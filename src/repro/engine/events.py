"""The event queue of the discrete-event kernel.

The queue is a plain binary heap (``heapq``) of ``(time, priority, seq, fn,
args)`` tuples — the one entry shape.  ``seq`` is a monotonically increasing
sequence number assigned at scheduling time; it guarantees a *stable* order
among events that share a timestamp and priority, which in turn guarantees
deterministic simulations — a hard requirement for the trace self-correction
experiments, where two runs of the same configuration must produce identical
message timings.

Tuple comparison happens entirely in C and, because ``seq`` is unique, never
reaches the ``fn``/``args`` slots, so ordering is exactly the ``(time,
priority, seq)`` rule.  The one consumer, :meth:`repro.engine.Simulator.run`,
pops the heap itself: it reads ``entry[0]`` (time), ``entry[3]`` (fn) and
``entry[4]`` (args).

:meth:`EventQueue.push_many` bulk-loads a whole schedule (the trace
replayers' startup pattern) by appending raw entries and heapifying once —
O(n) instead of n heap-pushes from a Python loop.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable

#: A heap entry: ``(time, priority, seq, fn, args)``.
Entry = tuple[int, int, int, Callable[..., None], tuple[Any, ...]]


class EventQueue:
    """Binary-heap event queue with deterministic tie-breaking.

    Not thread-safe; the simulation kernel is single-threaded by design
    (parallel experiments shard whole simulations — see
    :mod:`repro.harness.parallel` — never one event loop).
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list[Entry] = []
        self._seq = 0

    def __len__(self) -> int:
        """Number of pending events."""
        return len(self._heap)

    def push(
        self,
        time: int,
        fn: Callable[..., None],
        args: tuple[Any, ...] = (),
        priority: int = 0,
    ) -> None:
        """Schedule ``fn(*args)`` at ``time``."""
        heapq.heappush(self._heap, (time, priority, self._seq, fn, args))
        self._seq += 1

    def push_many(
        self,
        items: Iterable[tuple[int, Callable[..., None], tuple[Any, ...]]],
        priority: int = 0,
    ) -> int:
        """Bulk-schedule ``(time, fn, args)`` triples; returns the count.

        Entries get consecutive sequence numbers in iteration order, so the
        deterministic tie-break is identical to pushing them one by one.
        The heap is rebuilt with a single O(n) ``heapify`` instead of n
        sift-ups, which is the dominant cost when a replayer preloads an
        entire trace schedule.

        All-or-nothing: the batch is built beside the heap and joins it only
        once ``items`` is exhausted, so an iterable that raises part-way
        leaves the queue and its sequence counter exactly as they were.
        """
        seq = self._seq
        batch = [
            (time, priority, seq + i, fn, args)
            for i, (time, fn, args) in enumerate(items)
        ]
        if batch:
            self._seq = seq + len(batch)
            self._heap.extend(batch)
            heapq.heapify(self._heap)
        return len(batch)
