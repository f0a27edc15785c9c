"""Named metric registry: counters, gauges, and distributions.

The registry is the storage layer of :mod:`repro.obs`.  Three metric kinds
cover every probe in the simulator:

* :class:`Counter` — monotonically increasing integer (events fired, flits
  ejected, corrections applied).
* :class:`Gauge` — level with *high-water* semantics: ``set`` records the
  latest value locally, and merging two gauges keeps the maximum, so a
  merged sweep reports the worst case seen by any shard (heap depth,
  backlog, ...).
* :class:`Distribution` — streaming moments over samples, backed by the
  existing :class:`~repro.stats.online.OnlineStats` (latency, per-run wall
  time, correction magnitudes).

Merging is the design center: parallel sweep shards each fill a private
registry, and the parent folds the per-shard *snapshots* back together in
deterministic submission order (see :class:`repro.harness.parallel.SweepRunner`),
so serial and parallel runs of the same sweep produce identical merged
metrics.  Counter/gauge merges and the integer fields of distribution
merges are exact and associative; distribution means use the parallel
Welford formula, which is associative up to floating-point rounding.

Snapshots are plain ``dict``s of JSON primitives — safe to embed in cache
blobs, ship across process boundaries, and diff in tests.
"""

from __future__ import annotations

import math
from typing import Union

from repro.stats.online import OnlineStats

#: Metric-kind tags used in snapshots.
COUNTER = "counter"
GAUGE = "gauge"
DIST = "dist"


class Counter:
    """Monotonic integer counter."""

    __slots__ = ("value",)

    kind = COUNTER

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (default 1) to the counter."""
        self.value += n

    def snapshot(self) -> dict:
        return {"kind": COUNTER, "value": self.value}

    def merge_snapshot(self, snap: dict) -> None:
        self.value += snap["value"]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.value})"


class Gauge:
    """Level metric; merging keeps the maximum (high-water) value."""

    __slots__ = ("value", "_set")

    kind = GAUGE

    def __init__(self) -> None:
        self.value = 0.0
        self._set = False

    def set(self, v: float) -> None:
        """Record the current level (overwrites the previous local value)."""
        self.value = v
        self._set = True

    def set_max(self, v: float) -> None:
        """Record ``v`` only if it exceeds the current level."""
        if not self._set or v > self.value:
            self.set(v)

    def snapshot(self) -> dict:
        return {"kind": GAUGE, "value": self.value, "set": self._set}

    def merge_snapshot(self, snap: dict) -> None:
        if snap.get("set"):
            self.set_max(snap["value"])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Gauge({self.value})"


class Distribution:
    """Streaming sample distribution (count/mean/std/min/max/total)."""

    __slots__ = ("stats",)

    kind = DIST

    def __init__(self) -> None:
        self.stats = OnlineStats()

    def observe(self, x: float) -> None:
        """Accumulate one sample."""
        self.stats.add(x)

    def snapshot(self) -> dict:
        s = self.stats
        return {
            "kind": DIST,
            "count": s.count,
            "mean": s.mean,
            "m2": s._m2,
            "min": s.min if s.count else 0.0,
            "max": s.max if s.count else 0.0,
            "total": s.total,
        }

    def merge_snapshot(self, snap: dict) -> None:
        if not snap["count"]:
            return
        other = OnlineStats()
        other.count = snap["count"]
        other._mean = snap["mean"]
        other._m2 = snap["m2"]
        other.min = snap["min"]
        other.max = snap["max"]
        other.total = snap["total"]
        self.stats.merge(other)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Distribution(n={self.stats.count}, mean={self.stats.mean:.3f})"


Metric = Union[Counter, Gauge, Distribution]

_KINDS = {COUNTER: Counter, GAUGE: Gauge, DIST: Distribution}


class Registry:
    """A flat namespace of named metrics with get-or-create accessors.

    Names are dotted paths (``"net.mesh.injected"``); the :class:`Scope`
    helper prepends a component prefix so call sites stay short.  Asking
    for an existing name with a different kind is a :class:`TypeError` —
    silent kind changes would corrupt merges.
    """

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    def _get_or_create(self, name: str, cls: type) -> Metric:
        m = self._metrics.get(name)
        if m is None:
            m = cls()
            self._metrics[name] = m
            return m
        if not isinstance(m, cls):
            raise TypeError(
                f"metric {name!r} already registered as {m.kind}, "
                f"requested {cls.kind}"
            )
        return m

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get_or_create(name, Gauge)

    def distribution(self, name: str) -> Distribution:
        """Get or create the distribution ``name``."""
        return self._get_or_create(name, Distribution)

    def get(self, name: str) -> Metric | None:
        """Look up a metric without creating it."""
        return self._metrics.get(name)

    def names(self) -> list[str]:
        """All registered metric names, sorted."""
        return sorted(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def clear(self) -> None:
        """Drop every metric."""
        self._metrics.clear()

    # ------------------------------------------------------------- merging
    def snapshot(self) -> dict:
        """Plain-dict snapshot of every metric, keyed by sorted name."""
        return {name: self._metrics[name].snapshot() for name in self.names()}

    def merge_snapshot(self, snap: dict) -> None:
        """Fold a snapshot into this registry (creating metrics as needed)."""
        for name in sorted(snap):
            entry = snap[name]
            cls = _KINDS.get(entry.get("kind"))
            if cls is None:
                raise ValueError(f"unknown metric kind in snapshot: {entry!r}")
            self._get_or_create(name, cls).merge_snapshot(entry)

    def merge(self, other: "Registry") -> None:
        """Fold another registry into this one."""
        self.merge_snapshot(other.snapshot())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Registry({len(self._metrics)} metrics)"


class Scope:
    """A registry view that prefixes every metric name with a component id."""

    __slots__ = ("_registry", "_prefix")

    def __init__(self, registry: Registry, prefix: str) -> None:
        self._registry = registry
        self._prefix = prefix

    def counter(self, name: str) -> Counter:
        return self._registry.counter(f"{self._prefix}.{name}")

    def gauge(self, name: str) -> Gauge:
        return self._registry.gauge(f"{self._prefix}.{name}")

    def distribution(self, name: str) -> Distribution:
        return self._registry.distribution(f"{self._prefix}.{name}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Scope({self._prefix!r})"


class _NullMetric:
    """No-op stand-in returned by the disabled-path accessors."""

    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, v: float) -> None:
        pass

    def set_max(self, v: float) -> None:
        pass

    def observe(self, x: float) -> None:
        pass


class NullScope:
    """Scope returned while instrumentation is disabled: all no-ops."""

    __slots__ = ()

    def counter(self, name: str) -> _NullMetric:
        return NULL_METRIC

    def gauge(self, name: str) -> _NullMetric:
        return NULL_METRIC

    def distribution(self, name: str) -> _NullMetric:
        return NULL_METRIC


#: Shared singletons for the disabled path.
NULL_METRIC = _NullMetric()
NULL_SCOPE = NullScope()


def format_value(entry: dict) -> str:
    """One-line human rendering of a snapshot entry (used by reports)."""
    kind = entry["kind"]
    if kind == COUNTER:
        return str(entry["value"])
    if kind == GAUGE:
        v = entry["value"]
        return f"{v:g}"
    if kind == DIST:
        n = entry["count"]
        if not n:
            return "n=0"
        var = entry["m2"] / (n - 1) if n > 1 else 0.0
        return (
            f"n={n} mean={entry['mean']:.3f} std={math.sqrt(var):.3f} "
            f"min={entry['min']:g} max={entry['max']:g}"
        )
    return repr(entry)
