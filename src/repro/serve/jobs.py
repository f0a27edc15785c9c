"""Job bookkeeping: lifecycle states, single-flight dedup, event fan-out.

A *job* is one unit of simulation work, identified by the content-addressed
key of its :class:`repro.harness.SweepTask` — the same
``sha256(fn + args + kwargs + salt)`` the sweep cache uses.  Identity by
content gives single-flight dedup for free: while a job is in flight, an
identical request attaches to it as another *subscriber* instead of
spawning a second execution, and every subscriber receives the same event
stream and result.

The :class:`JobTable` owns all jobs: active ones (queued/running) indexed by
key for dedup, plus a bounded history of finished ones for the ``jobs`` op
and the ``/jobs`` HTTP endpoint.  It is single-loop asyncio code — no locks;
every mutation happens on the server's event loop.
"""

from __future__ import annotations

import asyncio
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.harness.parallel import SweepTask
from repro.serve.protocol import RemoteError

# Lifecycle states.
QUEUED = "queued"          # admitted, waiting for a worker slot
RUNNING = "running"        # executing on the worker pool
DONE = "done"              # result available (fresh, cached, or deduped)
FAILED = "failed"          # worker raised; RemoteError captured
TIMEOUT = "timeout"        # exceeded its deadline; abandoned
CANCELLED = "cancelled"    # server shut down before the job could run

ACTIVE_STATES = (QUEUED, RUNNING)
TERMINAL_STATES = (DONE, FAILED, TIMEOUT, CANCELLED)

#: Finished jobs kept for inspection (``jobs`` op, ``/jobs`` endpoint).
HISTORY_LIMIT = 256


@dataclass
class Job:
    """One in-flight or finished unit of work."""

    jid: int                       # monotonically increasing submission id
    key: str                       # SweepTask content hash (full 64 hex)
    task: SweepTask
    state: str = QUEUED
    attempts: int = 0
    subscribers: int = 1           # requests currently attached
    coalesced: int = 0             # duplicate submits absorbed (lifetime)
    cached: bool = False           # result came from a cache tier
    peer_fetched: bool = False     # ...specifically from a peer node
    created_s: float = 0.0         # event-loop clock timestamps
    started_s: float = 0.0
    finished_s: float = 0.0
    error: Optional[RemoteError] = None
    _queues: list[asyncio.Queue] = field(default_factory=list, repr=False)

    @property
    def short_key(self) -> str:
        return self.key[:12]

    @property
    def elapsed_s(self) -> float:
        if self.finished_s and self.created_s:
            return self.finished_s - self.created_s
        return 0.0

    # ------------------------------------------------------------ events
    def subscribe(self) -> asyncio.Queue:
        """A private queue receiving this job's remaining events."""
        q: asyncio.Queue = asyncio.Queue()
        self._queues.append(q)
        return q

    def unsubscribe(self, q: asyncio.Queue) -> None:
        try:
            self._queues.remove(q)
        except ValueError:
            pass

    def publish(self, event: dict) -> None:
        """Fan an event out to every subscriber queue."""
        for q in self._queues:
            q.put_nowait(event)

    def summary(self) -> dict:
        """Wire/HTTP-friendly description (no result payload)."""
        out = {
            "id": self.jid,
            "job": self.short_key,
            "fn": self.task.fn,
            "state": self.state,
            "attempts": self.attempts,
            "subscribers": self.subscribers,
            "coalesced": self.coalesced,
            "cached": self.cached,
            "elapsed_s": round(self.elapsed_s, 6),
        }
        if self.error is not None:
            out["error"] = str(self.error)
        return out


@dataclass
class ServiceStats:
    """Monotonic service counters (the ``status`` op / ``/metrics``)."""

    submitted: int = 0             # submit requests admitted (incl. dedup)
    executed: int = 0              # jobs that actually ran on the pool
    cache_hits: int = 0            # jobs answered from the on-disk cache
    lru_hits: int = 0              # submits answered from the hot LRU tier
    dedup_hits: int = 0            # submits coalesced onto in-flight jobs
    completed: int = 0
    failed: int = 0
    timeouts: int = 0
    shed: int = 0                  # submits refused by admission control
    retries: int = 0               # worker-death retries
    cancelled: int = 0
    forwarded: int = 0             # submits routed to the key's owner node
    forward_failed: int = 0        # forwards that fell back to local run
    peer_fetch_hits: int = 0       # cache misses answered by a peer fetch
    peer_fetch_misses: int = 0     # peer fetches that found nothing

    def as_dict(self) -> dict:
        return dict(vars(self))


class JobTable:
    """All jobs the service knows about, keyed for single-flight dedup."""

    def __init__(self, history_limit: int = HISTORY_LIMIT) -> None:
        self.active: dict[str, Job] = {}
        self.history: deque[Job] = deque(maxlen=history_limit)
        self.stats = ServiceStats()
        self._ids = itertools.count(1)

    @property
    def depth(self) -> int:
        """Jobs currently queued or running (the admission-control load)."""
        return len(self.active)

    def get_or_create(self, task: SweepTask, key: str,
                      now_s: float) -> tuple[Job, bool]:
        """The in-flight job for ``key``, or a fresh QUEUED one.

        Returns ``(job, deduped)``; ``deduped`` is True when the request
        coalesced onto an existing in-flight job.
        """
        job = self.active.get(key)
        if job is not None:
            job.subscribers += 1
            job.coalesced += 1
            self.stats.dedup_hits += 1
            return job, True
        job = Job(jid=next(self._ids), key=key, task=task, created_s=now_s)
        self.active[key] = job
        self.stats.submitted += 1
        return job, False

    def finish(self, job: Job, state: str, now_s: float) -> None:
        """Move ``job`` to a terminal state and into the history ring."""
        assert state in TERMINAL_STATES, state
        job.state = state
        job.finished_s = now_s
        self.active.pop(job.key, None)
        self.history.append(job)
        if state == DONE:
            self.stats.completed += 1
        elif state == FAILED:
            self.stats.failed += 1
        elif state == TIMEOUT:
            self.stats.timeouts += 1
        else:
            self.stats.cancelled += 1

    def listing(self) -> list[dict]:
        """Active jobs first (oldest submission first), then recent history
        (newest first)."""
        active = sorted(self.active.values(), key=lambda j: j.jid)
        recent = list(self.history)[::-1]
        return [j.summary() for j in active + recent]
