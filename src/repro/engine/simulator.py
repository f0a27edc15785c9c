"""The discrete-event simulator loop and simulated clock.

Time is an integer number of *cycles* of the fastest clock in the system
(the network core clock).  Integer time avoids floating-point drift across
hundreds of millions of events and makes event ordering exact; components
with slower clocks (e.g. a 2 GHz core on a 5 GHz network clock) schedule at
multiples of their period.

The run loop is the hottest code in the repository — every simulated cycle
of every experiment goes through it — so it operates directly on the
queue's heap with hoisted locals: one heap access per event, no attribute
lookups per iteration; :meth:`Simulator.schedule` pushes onto that heap
itself.  There is one loop: an attached probe is read into a local once
and costs an ``is not None`` branch per event, so the instrumented run is
the measured run.  Firing order is pinned, with and
without a probe, by ``tests/test_engine_golden.py``.
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter
from typing import Any, Callable, Iterable, Optional

from repro.engine.events import EventQueue
from repro.engine.rng import RngFactory


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (scheduling in the past, etc.)."""


class Simulator:
    """Single-threaded deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed; all randomness in a simulation derives from it through
        :class:`~repro.engine.rng.RngFactory`, so a (config, seed) pair fully
        determines the run.
    max_events:
        Safety valve — the run aborts with :class:`SimulationError` after this
        many events, catching accidental infinite self-rescheduling loops in
        component code instead of hanging the test suite.

    Examples
    --------
    >>> sim = Simulator(seed=1)
    >>> fired = []
    >>> sim.schedule(10, fired.append, (10,))
    >>> sim.schedule(5, fired.append, (5,))
    >>> sim.run()
    >>> fired
    [5, 10]
    >>> sim.now
    10
    """

    __slots__ = (
        "_queue",
        "_now",
        "_running",
        "_event_count",
        "max_events",
        "rng",
        "_probe",
    )

    def __init__(self, seed: int = 0, max_events: int = 2_000_000_000) -> None:
        self._queue = EventQueue()
        self._now = 0
        self._running = False
        self._event_count = 0
        self.max_events = max_events
        self.rng = RngFactory(seed)
        self._probe = None

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> int:
        """Current simulated time in cycles."""
        return self._now

    @property
    def event_count(self) -> int:
        """Total events executed so far (profiling / progress metric)."""
        return self._event_count

    # ------------------------------------------------------------ scheduling
    def schedule(
        self,
        time: int,
        fn: Callable[..., None],
        args: tuple[Any, ...] = (),
        priority: int = 0,
    ) -> None:
        """Schedule ``fn(*args)`` at absolute ``time`` (>= now)."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} < now={self._now} "
                f"(fn={getattr(fn, '__qualname__', fn)!r})"
            )
        queue = self._queue
        seq = queue._seq
        queue._seq = seq + 1
        heappush(queue._heap, (time, priority, seq, fn, args))

    def schedule_after(
        self,
        delay: int,
        fn: Callable[..., None],
        args: tuple[Any, ...] = (),
        priority: int = 0,
    ) -> None:
        """Schedule ``fn(*args)`` ``delay`` cycles from now (delay >= 0)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self._queue.push(self._now + delay, fn, args, priority)

    def schedule_many(
        self,
        items: Iterable[tuple[int, Callable[..., None], tuple[Any, ...]]],
        priority: int = 0,
    ) -> int:
        """Bulk-schedule ``(time, fn, args)`` triples; returns the count.

        Equivalent to calling :meth:`schedule` once per item (same
        deterministic ordering) but heapifies the whole batch in one pass —
        the trace replayers use this to preload an entire schedule.  A batch
        with any item in the past is refused whole: nothing is queued.
        """
        now = self._now

        def _checked() -> Iterable[tuple[int, Callable[..., None], tuple]]:
            for time, fn, args in items:
                if time < now:
                    raise SimulationError(
                        f"cannot schedule at t={time} < now={now} "
                        f"(fn={getattr(fn, '__qualname__', fn)!r})"
                    )
                yield time, fn, args

        return self._queue.push_many(_checked(), priority)

    # ---------------------------------------------------------- observability
    @property
    def probe(self):
        """The attached kernel probe, or ``None`` (the default)."""
        return self._probe

    def attach_probe(self, probe) -> None:
        """Attach a kernel probe (see :class:`repro.obs.KernelProbe`).

        With a probe attached, :meth:`run` additionally tracks the heap
        high-water mark, events fired, cycles and wall time, and reports
        them via one ``probe.record_run`` call per run.  It is the same
        loop either way; without a probe the only cost is one
        ``is not None`` branch per event.
        """
        self._probe = probe

    # ------------------------------------------------------------- execution
    def run(self, until: Optional[int] = None) -> None:
        """Run until the queue drains or simulated time would exceed ``until``.

        With ``until`` given, the clock is left at ``min(until, last event
        time)``; events scheduled at exactly ``until`` ARE executed (closed
        interval), matching the usual "run N cycles" semantics of cycle
        simulators.  An ``until`` before :attr:`now` is refused: the clock
        never moves backwards.
        """
        if self._running:
            raise SimulationError("re-entrant Simulator.run() call")
        if until is not None and until < self._now:
            raise SimulationError(
                f"cannot run until t={until} < now={self._now}")
        self._running = True
        heap = self._queue._heap
        pop = heappop
        max_events = self.max_events
        probe = self._probe
        if probe is not None:
            start_events = self._event_count
            start_now = self._now
            high_water = len(heap)
            wall_t0 = perf_counter()
        try:
            while heap:
                if probe is not None and len(heap) > high_water:
                    high_water = len(heap)
                entry = heap[0]
                t = entry[0]
                if until is not None and t > until:
                    self._now = until
                    return
                pop(heap)
                self._now = t
                count = self._event_count + 1
                self._event_count = count
                if count > max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events} at t={t}"
                    )
                entry[3](*entry[4])
        finally:
            self._running = False
            # Here, not after the loop: an early ``until`` exit and a raising
            # callback are runs too.
            if probe is not None:
                probe.record_run(
                    events=self._event_count - start_events,
                    heap_high_water=high_water,
                    wall_s=perf_counter() - wall_t0,
                    cycles=self._now - start_now,
                )
