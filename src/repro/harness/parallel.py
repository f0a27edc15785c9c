"""Parallel sweep runner with an on-disk content-addressed result cache.

Every table/figure in the evaluation is a *sweep*: a list of completely
independent (config, seed, workload) simulations whose results are then
tabulated together.  The kernel is single-threaded by design (see
:class:`repro.engine.events.EventQueue`), so the parallelism lever is to
shard whole simulations across worker processes — this module provides
that, plus a persistent result cache so re-running a benchmark suite only
simulates points it has never seen.

Three pieces:

* :func:`encode_value` / :func:`decode_value` — a JSON codec for result
  objects (dataclasses, tuples, non-string dict keys, numpy scalars) that
  round-trips every result type the experiment drivers produce.
* :class:`SweepTask` — one unit of work: a *module-level* callable plus
  arguments.  The callable is shipped to workers by dotted reference
  (``"module:qualname"``), never pickled, which also makes it part of the
  cache key.
* :class:`SweepRunner` — executes a batch of tasks serially or on a
  :class:`~concurrent.futures.ProcessPoolExecutor`, returns results in
  deterministic submission order, and memoises each task under
  ``sha256(fn + args + kwargs + salt)`` as a JSON file.

Cache invalidation: a result's key is its task — ``fn``, ``args``,
``kwargs`` — plus :data:`CACHE_SALT`, a code-version salt bumped whenever
simulation (or probe) semantics change, plus any user salt passed to the
runner.  Nothing else: whether :mod:`repro.obs` is on does not select a
cache population.  Clearing is just deleting the directory (or ``python -m
repro cache --clear``).

Metrics: every executed task yields one *entry*, ``{"result": <encoded>,
"obs": <registry snapshot> | None}`` — the snapshot is taken on a private
registry when instrumentation is enabled and stored *beside* the result,
on disk and in every serve tier.  :func:`answers` is the one rule for
reusing an entry: with metrics off any entry answers; with metrics on only
one that carries a snapshot does, otherwise the task is recomputed once and
the same entry overwritten with the snapshot.  The runner folds the
snapshots together in submission order (never completion order) into
:attr:`SweepRunner.last_metrics` and the ambient global registry, so
``--jobs 1`` and ``--jobs N``, cached and fresh, merge identical counters.

Because simulations are bit-deterministic in (config, seed), a cached
result is indistinguishable from a fresh one, and serial and parallel
execution of the same task list produce identical result lists.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import numbers
import os
import tempfile
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Optional, Sequence, Union

from repro import obs

#: Bump when simulator semantics change so stale cached results are never
#: returned for the new code — also bump when probe semantics change, so
#: stored snapshots are refreshed with them.  (v2: tuple-keyed event kernel;
#: v3: replay engine selection — results now depend on TraceConfig.engine;
#: v4: the resilience subsystem — results now depend on
#: TraceConfig.fault_events / mitigation and Scenario.degrade; v5: four
#: unread fields left the encoded configs, and the instrumentation state
#: left the key — entries carry their snapshot in an ``obs`` field; v6: the
#: kernel cannot cancel, so ``kernel.events_cancelled`` left the snapshot;
#: v7: the ``interp`` gap policy, the AWGR occupancy-hint field of
#: ``TraceConfig`` and the unread ``ExperimentConfig.trace`` went, and the
#: catalogue compiles one call shape per point; v8: a point function returns
#: its table rows, so cached values change shape under unchanged tasks.)
CACHE_SALT = "repro-kernel-v8"

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache location used by the benchmark suite and the CLI.
DEFAULT_CACHE_DIR = Path("benchmarks") / "results" / "cache"


def default_cache_dir() -> Path:
    """Resolve the cache directory: ``$REPRO_CACHE_DIR`` or the repo-local
    ``benchmarks/results/cache``."""
    env = os.environ.get(CACHE_DIR_ENV)
    return Path(env) if env else DEFAULT_CACHE_DIR


# ---------------------------------------------------------------------------
# Result codec: JSON with type tags for everything JSON cannot express.
# ---------------------------------------------------------------------------
#
# Encoding rules (decode inverts each):
#   primitives (None/bool/int/float/str)  -> themselves
#   list                                  -> JSON array of encoded items
#   tuple                                 -> {"$": "tuple", "v": [...]}
#   dict (str keys, none named "$")       -> JSON object of encoded values
#   dict (other keys)                     -> {"$": "dict", "v": [[k, v], ...]}
#   dataclass instance                    -> {"$": "dc", "t": "mod:Qual",
#                                             "v": {field: encoded}}
#   numpy scalar                          -> plain int/float
#
# The "$" tag namespace is reserved; a plain dict containing a "$" key is
# encoded through the tagged-dict form so it survives unambiguously.

_TAG = "$"


class CodecError(TypeError):
    """Raised when a value cannot be round-tripped through the cache."""


def encode_value(obj: Any) -> Any:
    """Encode ``obj`` into a JSON-serialisable structure (see module doc)."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, numbers.Integral):        # numpy ints
        return int(obj)
    if isinstance(obj, numbers.Real):            # numpy floats
        return float(obj)
    if isinstance(obj, list):
        return [encode_value(x) for x in obj]
    if isinstance(obj, tuple):
        return {_TAG: "tuple", "v": [encode_value(x) for x in obj]}
    if is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        return {
            _TAG: "dc",
            "t": f"{cls.__module__}:{cls.__qualname__}",
            "v": {f.name: encode_value(getattr(obj, f.name))
                  for f in fields(obj)},
        }
    if isinstance(obj, dict):
        if all(isinstance(k, str) for k in obj) and _TAG not in obj:
            return {k: encode_value(v) for k, v in obj.items()}
        return {_TAG: "dict",
                "v": [[encode_value(k), encode_value(v)]
                      for k, v in obj.items()]}
    raise CodecError(
        f"cannot encode {type(obj).__qualname__!r} for the result cache "
        f"(value: {obj!r})"
    )


def decode_value(obj: Any) -> Any:
    """Invert :func:`encode_value`."""
    if isinstance(obj, list):
        return [decode_value(x) for x in obj]
    if isinstance(obj, dict):
        tag = obj.get(_TAG)
        if tag is None:
            return {k: decode_value(v) for k, v in obj.items()}
        if tag == "tuple":
            return tuple(decode_value(x) for x in obj["v"])
        if tag == "dict":
            return {decode_value(k): decode_value(v) for k, v in obj["v"]}
        if tag == "dc":
            cls = resolve_callable(obj["t"])
            kwargs = {k: decode_value(v) for k, v in obj["v"].items()}
            return cls(**kwargs)
        raise CodecError(f"unknown codec tag {tag!r}")
    return obj


def _canonical(obj: Any) -> Any:
    """``encode_value(decode_value(obj))`` in one walk over untagged JSON and
    ``tuple`` tags; any other tag (a ``dc`` fills defaults) takes the trip."""
    if isinstance(obj, list):
        return [_canonical(x) for x in obj]
    if not isinstance(obj, dict):
        return encode_value(obj)
    if all(isinstance(k, str) for k in obj):
        if _TAG not in obj:
            return {k: _canonical(v) for k, v in obj.items()}
        if obj[_TAG] == "tuple":
            return {_TAG: "tuple", "v": [_canonical(x) for x in obj["v"]]}
    return encode_value(decode_value(obj))


def resolve_callable(ref: str) -> Any:
    """Import ``"module:qualname"`` and return the attribute."""
    mod_name, _, qualname = ref.partition(":")
    if not mod_name or not qualname:
        raise ValueError(f"bad callable reference {ref!r}; "
                         "expected 'module:qualname'")
    obj: Any = importlib.import_module(mod_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def callable_ref(fn: Union[str, Callable]) -> str:
    """Dotted ``"module:qualname"`` reference for a module-level callable."""
    if isinstance(fn, str):
        return fn
    qualname = getattr(fn, "__qualname__", None)
    module = getattr(fn, "__module__", None)
    if not module or not qualname or "<" in qualname:
        raise ValueError(
            f"sweep tasks need module-level callables, got {fn!r} "
            "(lambdas and closures cannot be shipped to workers or hashed "
            "into cache keys)"
        )
    return f"{module}:{qualname}"


# ---------------------------------------------------------------------------
# Tasks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepTask:
    """One independent simulation: ``fn(*args, **kwargs)``.

    ``fn`` must be addressable as ``module:qualname`` (a top-level function
    or classmethod) and its arguments must survive the result codec —
    config dataclasses, strings, numbers and containers thereof all do.
    """

    fn: str
    args: Any            # encoded tuple
    kwargs: Any          # encoded dict

    @staticmethod
    def make(fn: Union[str, Callable], *args: Any, **kwargs: Any) -> "SweepTask":
        return SweepTask(
            fn=callable_ref(fn),
            args=encode_value(tuple(args)),
            kwargs=encode_value(dict(kwargs)),
        )

    def cache_key(self, salt: str = "") -> str:
        material = json.dumps(
            {"fn": self.fn, "args": self.args, "kwargs": self.kwargs,
             "salt": CACHE_SALT + salt},
            sort_keys=True, separators=(",", ":"),
        )
        return hashlib.sha256(material.encode()).hexdigest()


def task(fn: Union[str, Callable], *args: Any, **kwargs: Any) -> SweepTask:
    """Sugar: ``task(accuracy_experiment, exp, "fft")``."""
    return SweepTask.make(fn, *args, **kwargs)


def decode_task_call(t: SweepTask) -> tuple[str, tuple, dict]:
    """Decode a task back into ``(fn_ref, args, kwargs)``.

    For front ends that take live arguments rather than encoded tasks —
    :meth:`repro.serve.ServeClient.submit`, notably — so a compiled
    :class:`SweepTask` can be re-submitted without re-deriving the call."""
    return t.fn, tuple(decode_value(t.args)), dict(decode_value(t.kwargs))


def _execute_encoded(
    fn_ref: str, enc_args: Any, enc_kwargs: Any, with_obs: bool = False
) -> dict:
    """Worker entry point: decode → run → encode, returned as an entry.

    Results cross the process boundary in encoded form, so the serial and
    parallel paths return byte-identical structures.  The entry is always
    ``{"result": <encoded>, "obs": <registry snapshot> | None}``: with
    ``with_obs`` the task runs under instrumentation on a *private* registry
    (isolated from the caller's ambient metrics, whether this is a worker
    process or the in-process serial path) whose snapshot rides beside the
    result; without it ``obs`` is None.
    """
    fn = resolve_callable(fn_ref)
    args = decode_value(enc_args)
    kwargs = decode_value(enc_kwargs)
    if not with_obs:
        return {"result": encode_value(fn(*args, **kwargs)), "obs": None}
    was_enabled = obs.enabled()
    obs.enable(True)
    try:
        with obs.use_registry(obs.Registry()) as reg:
            result = encode_value(fn(*args, **kwargs))
            return {"result": result, "obs": reg.snapshot()}
    finally:
        obs.enable(was_enabled)


def answers(entry: Optional[dict], with_obs: bool) -> bool:
    """Whether a stored ``entry`` may stand in for running its task.

    Metrics off: any entry does.  Metrics on: only one that carries the
    snapshot of the run that produced it — the caller otherwise recomputes
    once and overwrites the same entry, snapshot included.
    """
    return entry is not None and (not with_obs or entry["obs"] is not None)


# ---------------------------------------------------------------------------
# On-disk result cache
# ---------------------------------------------------------------------------

class ResultCache:
    """Content-addressed JSON result store shared by every execution front end.

    One entry per :meth:`SweepTask.cache_key`; the blob records the task
    alongside its encoded result (and the run's registry snapshot, or None,
    under ``obs``) so entries are self-describing.  Both
    :class:`SweepRunner` (batch sweeps) and :class:`repro.serve` (the resident
    job service) read and write the same layout under the same keys, so a
    result computed by either is a cache hit for the other.
    """

    def __init__(self, cache_dir: Union[str, Path]) -> None:
        self.cache_dir = Path(cache_dir)

    def path_for(self, key: str) -> Path:
        return self.cache_dir / f"{key}.json"

    def load(self, key: str) -> Optional[dict]:
        """The blob stored under ``key`` — an entry (``"result"``, ``"obs"``)
        plus the task it records — or None on miss.

        Corrupt or mismatched entries (torn writes, stale layouts) read as
        misses, so callers recompute and overwrite.
        """
        path = self.path_for(key)
        if not path.is_file():
            return None
        try:
            blob = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None         # corrupt entry: recompute and overwrite
        if (not isinstance(blob, dict) or blob.get("key") != key
                or "result" not in blob):
            return None
        blob.setdefault("obs", None)
        return blob

    def store(self, key: str, t: SweepTask, encoded_result: Any,
              salt: str = "", obs_snapshot: Optional[dict] = None) -> None:
        """Publish ``encoded_result`` (and its snapshot) under ``key``
        atomically."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = json.dumps(
            {"key": key, "fn": t.fn, "args": t.args, "kwargs": t.kwargs,
             "salt": CACHE_SALT + salt,
             "result": encoded_result, "obs": obs_snapshot},
            sort_keys=True,
        )
        # Atomic publish so concurrent sweeps never see a torn file.
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def info(self) -> dict:
        """Entry count and total size of the cache directory."""
        d = self.cache_dir
        files = sorted(d.glob("*.json")) if d.is_dir() else []
        return {
            "dir": str(d),
            "entries": len(files),
            "bytes": sum(f.stat().st_size for f in files),
        }

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        d = self.cache_dir
        if not d.is_dir():
            return 0
        removed = 0
        for f in d.glob("*.json"):
            f.unlink()
            removed += 1
        return removed


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

@dataclass
class SweepStats:
    """Execution accounting for one :meth:`SweepRunner.run` call."""

    executed: int = 0
    cached: int = 0

    @property
    def total(self) -> int:
        return self.executed + self.cached


class SweepRunner:
    """Shards independent simulations across processes, with memoisation.

    Parameters
    ----------
    workers:
        Process count.  ``0`` or ``1`` runs in-process (serial); ``None``
        uses ``os.cpu_count()``.  Results are returned in submission order
        either way, and — because simulations are deterministic — are
        bit-identical across worker counts.
    cache_dir:
        Directory for the content-addressed result cache; ``None`` disables
        caching.
    salt:
        Extra cache-key salt on top of :data:`CACHE_SALT` (e.g. a bench
        suite revision).
    """

    def __init__(
        self,
        workers: Optional[int] = 1,
        cache_dir: Union[None, str, Path] = None,
        salt: str = "",
    ) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.workers = workers
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.cache = (ResultCache(cache_dir) if cache_dir is not None
                      else None)
        self.salt = salt
        self.last_stats = SweepStats()
        # Merged per-task registry snapshot of the last run() while
        # instrumentation was enabled; None otherwise.
        self.last_metrics: Optional[dict] = None

    # ------------------------------------------------------------- caching
    def _cache_load(self, key: str) -> Optional[dict]:
        if self.cache is None:
            return None
        return self.cache.load(key)

    def _cache_store(self, key: str, t: SweepTask, entry: dict) -> None:
        if self.cache is None:
            return
        self.cache.store(key, t, entry["result"], self.salt, entry["obs"])

    # ------------------------------------------------------------- running
    def run(self, tasks: Sequence[SweepTask]) -> list[Any]:
        """Execute (or recall) every task; results in submission order.

        While :mod:`repro.obs` instrumentation is enabled, each task's
        registry snapshot travels beside its result (including through the
        cache, see :func:`answers`) and the snapshots are merged in
        submission order into :attr:`last_metrics` and the ambient global
        registry — identical for any worker count and for cached vs fresh
        execution.
        """
        tasks = list(tasks)
        with_obs = obs.enabled()
        keys = [t.cache_key(self.salt) for t in tasks]
        results: list[Any] = [None] * len(tasks)
        encoded: dict[int, dict] = {}       # task index -> entry
        misses: list[int] = []
        stats = SweepStats()

        for i, key in enumerate(keys):
            entry = self._cache_load(key)
            if answers(entry, with_obs):
                encoded[i] = entry
                stats.cached += 1
            else:
                misses.append(i)

        if misses:
            stats.executed = len(misses)
            if self.workers <= 1 or len(misses) == 1:
                for i in misses:
                    t = tasks[i]
                    encoded[i] = _execute_encoded(t.fn, t.args, t.kwargs,
                                                  with_obs)
            else:
                with ProcessPoolExecutor(
                    max_workers=min(self.workers, len(misses))
                ) as pool:
                    futs: list[tuple[int, Future]] = [
                        (i, pool.submit(_execute_encoded, tasks[i].fn,
                                        tasks[i].args, tasks[i].kwargs,
                                        with_obs))
                        for i in misses
                    ]
                    for i, fut in futs:
                        encoded[i] = fut.result()
            for i in misses:
                self._cache_store(keys[i], tasks[i], encoded[i])

        merged = obs.Registry() if with_obs else None
        for i in range(len(tasks)):
            if with_obs:
                merged.merge_snapshot(encoded[i]["obs"])
            results[i] = decode_value(encoded[i]["result"])
        if with_obs:
            self.last_metrics = merged.snapshot()
            obs.registry().merge_snapshot(self.last_metrics)
        else:
            self.last_metrics = None
        self.last_stats = stats
        return results

    def map(self, fn: Union[str, Callable], argtuples: Iterable[tuple],
            **common_kwargs: Any) -> list[Any]:
        """``run`` over ``fn(*argtuple, **common_kwargs)`` for each tuple."""
        return self.run([SweepTask.make(fn, *a, **common_kwargs)
                         for a in argtuples])


# ---------------------------------------------------------------------------
# Cache maintenance (used by the CLI and tests)
# ---------------------------------------------------------------------------

def cache_info(cache_dir: Union[str, Path]) -> dict:
    """Entry count and total size of a cache directory."""
    return ResultCache(cache_dir).info()


def cache_clear(cache_dir: Union[str, Path]) -> int:
    """Delete every cache entry; returns the number removed."""
    return ResultCache(cache_dir).clear()
