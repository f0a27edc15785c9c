"""Unit tests for the event queue: ordering, tie-breaking, bulk loading.

The queue stores plain ``(time, priority, seq, fn, args)`` tuples and has
no ``pop`` of its own: its one consumer, ``Simulator.run``, pops
``queue._heap`` directly, and so do these tests.
"""

from __future__ import annotations

import heapq

from repro.engine import EventQueue


def pop(q: EventQueue):
    """The next entry the way ``Simulator.run`` takes it, or ``None``."""
    return heapq.heappop(q._heap) if q._heap else None


def drain(q: EventQueue) -> list:
    """Pop everything, invoking each callback; return the popped entries."""
    out = []
    while (entry := pop(q)) is not None:
        entry[3](*entry[4])
        out.append(entry)
    return out


def test_empty_queue():
    q = EventQueue()
    assert len(q) == 0
    assert not q
    assert pop(q) is None


def test_pop_in_time_order():
    q = EventQueue()
    fired = []
    for t in (30, 10, 20):
        q.push(t, fired.append, (t,))
    drain(q)
    assert fired == [10, 20, 30]


def test_fifo_among_equal_timestamps():
    q = EventQueue()
    order = []
    for tag in range(20):
        q.push(5, order.append, (tag,))
    drain(q)
    assert order == list(range(20))


def test_priority_orders_within_same_time():
    q = EventQueue()
    order = []
    q.push(5, order.append, ("low",), priority=10)
    q.push(5, order.append, ("high",), priority=0)
    q.push(5, order.append, ("mid",), priority=5)
    drain(q)
    assert order == ["high", "mid", "low"]


def test_interleaved_push_pop():
    q = EventQueue()
    out = []
    q.push(10, out.append, (10,))
    entry = pop(q)
    entry[3](*entry[4])
    q.push(5, out.append, (5,))   # earlier time pushed after a pop is fine
    entry = pop(q)
    entry[3](*entry[4])
    assert out == [10, 5]


# ----------------------------------------------------------- bulk loading
def test_push_many_orders_like_individual_pushes():
    a, b = EventQueue(), EventQueue()
    items = [(30, 0), (10, 1), (10, 0), (20, 2), (10, 1)]
    outa, outb = [], []
    for i, (t, _tag) in enumerate(items):
        a.push(t, outa.append, (i,))
    b.push_many((t, outb.append, (i,)) for i, (t, _tag) in enumerate(items))
    drain(a)
    drain(b)
    assert outa == outb


def test_push_many_into_nonempty_queue():
    q = EventQueue()
    out = []
    q.push(15, out.append, ("old",))
    n = q.push_many([(10, out.append, ("b0",)), (20, out.append, ("b1",))])
    assert n == 2
    assert len(q) == 3
    drain(q)
    assert out == ["b0", "old", "b1"]


def test_push_many_same_timestamp_stable():
    """Bulk-loaded records at one timestamp fire in submission order."""
    q = EventQueue()
    out = []
    q.push_many((7, out.append, (i,)) for i in range(50))
    drain(q)
    assert out == list(range(50))


def test_push_many_empty_iterable():
    q = EventQueue()
    assert q.push_many([]) == 0
    assert len(q) == 0
    assert pop(q) is None


def test_push_many_applies_priority():
    q = EventQueue()
    out = []
    q.push_many([(5, out.append, ("bulk",))], priority=5)
    q.push(5, out.append, ("urgent",), priority=0)
    drain(q)
    assert out == ["urgent", "bulk"]
