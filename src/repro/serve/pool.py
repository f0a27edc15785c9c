"""Bounded process-pool execution with worker-side traceback capture.

The service's execution layer: a :class:`~concurrent.futures.ProcessPoolExecutor`
wrapped for asyncio, with the three robustness behaviours the resident
service needs and batch sweeps don't:

* **Faithful failures.**  The worker entry point runs the task under a
  ``try/except`` and ships ``traceback.format_exc()`` back as data, so a
  failed job surfaces the *original worker-side traceback* — not a
  re-raise inside the service, and not ``concurrent.futures``' lossy
  exception pickling.  (A raised exception that cannot pickle would also
  kill the pool; returning a dict sidesteps the whole class of problems.)
* **Bounded retry on worker death.**  A worker segfaulting or calling
  ``os._exit`` breaks the whole executor (``BrokenProcessPool``).  The pool
  replaces the executor and retries the task with exponential backoff, up
  to ``max_retries`` attempts; tasks are deterministic and idempotent, so
  retry is always safe.
* **Deadline enforcement.**  A task over its ``timeout_s`` is *abandoned*:
  the job fails fast, but the worker keeps crunching (POSIX has no safe way
  to preempt a CPU-bound child mid-task).  Abandoned workers are counted,
  and once every worker slot is clogged the executor is recycled wholesale
  — fresh processes, stragglers reaped.

Execution results use the sweep codec end to end, so whatever the pool
returns can be stored directly in the shared :class:`repro.harness.ResultCache`.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Optional

from repro.harness.parallel import SweepTask, _execute_encoded
from repro.serve.protocol import RemoteError


class JobFailure(Exception):
    """A job failed in the worker; carries the original remote traceback."""

    def __init__(self, error: RemoteError) -> None:
        super().__init__(str(error))
        self.error = error


class JobTimeout(Exception):
    """A job exceeded its deadline and was abandoned."""

    def __init__(self, timeout_s: float) -> None:
        super().__init__(f"job exceeded its {timeout_s:g}s deadline")
        self.timeout_s = timeout_s


class WorkerDied(Exception):
    """Worker processes died repeatedly; all retry attempts exhausted."""

    def __init__(self, attempts: int) -> None:
        super().__init__(
            f"worker process died on all {attempts} attempts")
        self.attempts = attempts


def _run_guarded(fn_ref: str, enc_args: Any, enc_kwargs: Any,
                 with_obs: bool) -> dict:
    """Worker entry point: never raises; failures become data.

    Success: ``{"ok": True, "result": <encoded>, "obs": <snapshot>|None}``
    — the entry :func:`repro.harness.parallel._execute_encoded` produces,
    so the caller can cache it under the same key layout SweepRunner uses.
    Failure: ``{"ok": False, "error": {type, message, traceback}}``.
    """
    try:
        return {"ok": True,
                **_execute_encoded(fn_ref, enc_args, enc_kwargs, with_obs)}
    except BaseException as exc:  # noqa: BLE001 - the whole point
        return {"ok": False, "error": {
            "type": type(exc).__qualname__,
            "message": str(exc),
            "traceback": traceback.format_exc(),
        }}


def _mp_context():
    """A start method whose workers do not inherit the server's sockets.

    The default ``fork`` method duplicates every open file descriptor
    into the worker, connection sockets included.  A worker forked while
    connections are open then *pins* them: when the server closes its
    side no FIN is ever sent (the worker's duplicate keeps the TCP
    connection ESTABLISHED), so peers and clients blocked on the socket
    never learn the node is gone — fatal for a fabric whose failure
    detection is "the connection died".  ``forkserver`` (and ``spawn``)
    start workers from a clean exec'd process, so the only descriptors
    they hold are their own work pipes.
    """
    try:
        return multiprocessing.get_context("forkserver")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context("spawn")


class WorkerPool:
    """Async facade over a replaceable ProcessPoolExecutor.

    ``slots`` is an :class:`asyncio.Semaphore` sized to the worker count:
    the server acquires a slot before calling :meth:`execute`, so queued
    jobs wait in the server (where they can be listed and shed) rather
    than invisibly inside the executor.
    """

    def __init__(
        self,
        max_workers: int = 2,
        max_retries: int = 3,
        backoff_base_s: float = 0.05,
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {max_retries}")
        self.max_workers = max_workers
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.slots = asyncio.Semaphore(max_workers)
        self.abandoned = 0          # timed-out tasks still on old executors
        self.recycles = 0           # executors replaced (death or clog)
        self.retries = 0
        self._executor: Optional[ProcessPoolExecutor] = None

    # ----------------------------------------------------------- executor
    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.max_workers, mp_context=_mp_context())
        return self._executor

    def _recycle(self) -> None:
        """Replace the executor; old workers are released, not joined."""
        old, self._executor = self._executor, None
        self.recycles += 1
        self.abandoned = 0
        if old is not None:
            old.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    # ---------------------------------------------------------- execution
    async def execute(
        self,
        task: SweepTask,
        with_obs: bool = False,
        timeout_s: Optional[float] = None,
        on_retry=None,
    ) -> dict:
        """Run ``task`` to completion; returns its ``result``/``obs`` entry.

        Raises :class:`JobFailure` (worker exception, original traceback
        attached), :class:`JobTimeout` (deadline exceeded), or
        :class:`WorkerDied` (pool broke on every attempt).  ``on_retry`` is
        called as ``on_retry(attempt, delay_s)`` before each backoff sleep.
        """
        loop = asyncio.get_running_loop()
        for attempt in range(1, self.max_retries + 1):
            executor = self._ensure_executor()
            try:
                fut = executor.submit(_run_guarded, task.fn, task.args,
                                      task.kwargs, with_obs)
            except RuntimeError as exc:
                # Executor raced shutdown; treat like a broken pool.
                if attempt == self.max_retries:
                    raise WorkerDied(attempt) from exc
                await self._backoff(attempt, on_retry)
                continue
            try:
                outcome = await asyncio.wait_for(
                    asyncio.wrap_future(fut, loop=loop), timeout_s)
            except asyncio.TimeoutError:
                if not fut.cancel():
                    # Already running: the worker slot stays clogged until
                    # the task finishes on its own.  Recycle the executor
                    # once every slot is lost to stragglers.
                    self.abandoned += 1
                    if self.abandoned >= self.max_workers:
                        self._recycle()
                raise JobTimeout(timeout_s or 0.0) from None
            except BrokenProcessPool:
                self._recycle()
                if attempt == self.max_retries:
                    raise WorkerDied(attempt) from None
                self.retries += 1
                await self._backoff(attempt, on_retry)
                continue
            if outcome.pop("ok"):
                return outcome
            raise JobFailure(RemoteError.from_dict(outcome["error"]))
        raise WorkerDied(self.max_retries)  # pragma: no cover - loop covers

    async def _backoff(self, attempt: int, on_retry) -> None:
        delay = self.backoff_base_s * (2 ** (attempt - 1))
        if on_retry is not None:
            on_retry(attempt, delay)
        await asyncio.sleep(delay)
