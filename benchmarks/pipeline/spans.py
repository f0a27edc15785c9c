"""The benchmark's own in-memory span recorder, and its clock.

Spans are recorded *from outside* the program: the workloads wrap each
call into a layer's public function in :meth:`Recorder.span`.  The same
stopwatch serves both runs — with ``keep=False`` (the untraced,
end-to-end run) only each span's duration is kept, by name; with
``keep=True`` (the traced, per-layer run) the span itself is kept too,
with its parent and its pass/request id, and written out once at the end
as a per-layer table and a Chrome-trace JSON.  It deliberately does not
touch ``repro.obs``: enabling that changes cache keys, so observing a
run would change which run is measured.

Durations are reported in **host-normalised seconds**.  The sandboxes
this runs in share their cores: the same pure-Python loop was measured
taking 1.0x to 1.7x its best time, drifting over minutes and bursting
over seconds, which put a 25-40% spread on every raw wall time.
:class:`HostSpeed` therefore times a small fixed kernel of its own every
few tens of milliseconds from a background thread, and a span's duration
is scaled by how slow that kernel ran *while the span ran*.  The kernel
belongs to the benchmark, not to the program, so a change to the program
cannot move it.  The Chrome trace keeps the raw timestamps.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional

#: What the calibration kernel takes on an undisturbed core of the box the
#: benchmark was written on; normalised seconds are seconds on such a host.
NOMINAL_KERNEL_S = 0.0009
SAMPLE_EVERY_S = 0.04


class _Cell:
    """Something for the kernel to call methods on."""

    def __init__(self) -> None:
        self.total = 0
        self.slots = [0.0] * 64

    def step(self, i: int) -> int:
        self.total += i
        self.slots[i & 63] = self.total * 0.5
        return i if i & 1 else -i


class HostSpeed:
    """Background sampler of how fast this host is running right now."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.kernel_s: list[float] = []
        self._cell = _Cell()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _kernel(self) -> float:
        # Interpreter-bound and cache-resident on purpose: half integer
        # arithmetic, half method calls with attribute and list stores,
        # which together tracked the simulator's slow-downs best.  Kernels
        # that touch more memory (object churn, a strided walk over a
        # large table) were tried: sharing the caches with the measured
        # thread made them noisier than the host they were meant to track.
        # Timed in CPU time of this thread: being descheduled in favour of
        # the benchmark's own processes is not the host running slowly.
        x, step = 0, self._cell.step
        t0 = time.thread_time()
        for i in range(15_000):
            x += i
        for i in range(2_500):
            x += step(i)
        return time.thread_time() - t0

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_EVERY_S):
            t = time.perf_counter()
            self.kernel_s.append(self._kernel())
            self.times.append(t)

    def slowdown(self, start: float, end: float) -> float:
        """Mean kernel time over ``[start, end]`` relative to nominal; for
        a window shorter than the sampling interval, the nearest samples."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi - lo < 2:
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        if lo == hi:
            return 1.0
        return statistics.fmean(self.kernel_s[lo:hi]) / NOMINAL_KERNEL_S


class Span:
    __slots__ = ("name", "start", "end", "parent", "rid", "index")

    def __init__(self, name: str, start: float, parent: Optional[int],
                 rid) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent    # index of the span that caused this one
        self.rid = rid          # pass / request id shared by one unit of work
        self.index = -1         # position in Recorder.spans when kept

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self, keep: bool) -> None:
        self.keep = keep
        self.host = HostSpeed()
        self.spans: list[Span] = []
        self.durations: dict[str, list[float]] = {}    # host-normalised
        self.counts: dict[str, int] = {}
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, rid=None) -> Iterator[Span]:
        """Time a synchronous call; nests under the enclosing span."""
        parent = self._stack[-1] if self._stack else None
        s = Span(name, 0.0, parent.index if parent else None,
                 rid if rid is not None else (parent.rid if parent else None))
        if self.keep:
            s.index = len(self.spans)
            self.spans.append(s)
        self._stack.append(s)
        s.start = s.end = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            self._note(name, s.start, s.end)

    def add(self, name: str, start: float, end: float,
            parent: Optional[Span] = None, rid=None) -> Optional[Span]:
        """Record a span from explicit timestamps (concurrent requests,
        whose spans interleave and cannot use the nesting stack)."""
        self._note(name, start, end)
        if not self.keep:
            return None
        s = Span(name, start, parent.index if parent else None,
                 rid if rid is not None else (parent.rid if parent else None))
        s.end = end
        s.index = len(self.spans)
        self.spans.append(s)
        return s

    def _note(self, name: str, start: float, end: float) -> None:
        self.durations.setdefault(name, []).append(
            (end - start) / self.host.slowdown(start, end))

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # ------------------------------------------------------------ read-out
    def typical(self, name: str) -> float:
        """Median host-normalised duration of the calls of ``name``."""
        return statistics.median(self.durations[name])

    def table(self) -> dict[str, dict]:
        """Per span name: calls, total time, and self time — a span's
        duration minus the part of it that its child spans cover."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out: dict[str, dict] = {}
        for s in self.spans:
            covered, edge = 0.0, s.start
            for c in sorted(children.get(s.index, ()), key=lambda c: c.start):
                lo, hi = max(c.start, edge), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.seconds
            row["self_s"] += s.seconds - covered
        return out

    def chrome_trace(self) -> dict:
        """``chrome://tracing`` / Perfetto JSON: one complete event per
        span, one track per pass/request id."""
        t0 = min((s.start for s in self.spans), default=0.0)
        tids: dict = {}
        events = []
        for s in self.spans:
            tid = tids.setdefault(s.rid, len(tids))
            events.append({
                "name": s.name, "ph": "X", "pid": 0, "tid": tid,
                "ts": round((s.start - t0) * 1e6, 1),
                "dur": round(s.seconds * 1e6, 1),
                "args": {"id": s.index, "parent": s.parent,
                         "rid": str(s.rid)},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "counts": self.counts}
