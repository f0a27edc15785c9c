"""Unit tests for the Simulator: clock semantics, scheduling rules, guards."""

from __future__ import annotations

import pytest

from repro.engine import SimulationError, Simulator


def test_run_executes_in_time_order():
    sim = Simulator()
    out = []
    sim.schedule(10, out.append, (10,))
    sim.schedule(5, out.append, (5,))
    sim.schedule(7, out.append, (7,))
    sim.run()
    assert out == [5, 7, 10]
    assert sim.now == 10


def test_schedule_after_is_relative():
    sim = Simulator()
    out = []

    def later():
        sim.schedule_after(5, out.append, (sim.now + 5,))

    sim.schedule(3, later)
    sim.run()
    assert out == [8]


def test_schedule_in_past_raises():
    sim = Simulator()
    sim.schedule(10, lambda: sim.schedule(5, lambda: None))
    with pytest.raises(SimulationError, match="cannot schedule"):
        sim.run()


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError, match="negative delay"):
        sim.schedule_after(-1, lambda: None)


def test_run_until_is_inclusive():
    sim = Simulator()
    out = []
    sim.schedule(5, out.append, (5,))
    sim.schedule(6, out.append, (6,))
    sim.run(until=5)
    assert out == [5]
    assert sim.now == 5
    sim.run()
    assert out == [5, 6]


def test_run_until_leaves_clock_at_until_when_idle():
    sim = Simulator()
    out = []
    sim.schedule(100, out.append, (100,))
    sim.run(until=50)
    assert sim.now == 50
    assert out == []
    sim.run()                   # the event stayed queued
    assert (sim.now, out) == (100, [100])


def test_run_until_in_the_past_is_refused():
    sim = Simulator()
    out = []
    sim.schedule(20, out.append, (20,))
    sim.run(until=15)
    with pytest.raises(SimulationError, match="cannot run until t=5 < now=15"):
        sim.run(until=5)
    assert sim.now == 15        # the clock did not move backwards
    with pytest.raises(SimulationError, match="cannot schedule"):
        sim.schedule(7, out.append, (7,))
    sim.run(until=15)           # until == now is not the past
    sim.run()
    assert (sim.now, out) == (20, [20])


def test_schedule_many_matches_individual_schedules():
    a, b = Simulator(), Simulator()
    outa, outb = [], []
    times = [9, 3, 3, 7, 3]
    for i, t in enumerate(times):
        a.schedule(t, outa.append, (i,))
    b.schedule_many((t, outb.append, (i,)) for i, t in enumerate(times))
    a.run()
    b.run()
    assert outa == outb
    assert a.event_count == b.event_count == len(times)


def test_schedule_many_in_past_raises():
    sim = Simulator()
    out = []
    sim.schedule(10, lambda: None)
    sim.run()
    sim.schedule(12, out.append, ("kept",))
    with pytest.raises(SimulationError, match="cannot schedule"):
        sim.schedule_many([(20, out.append, ("refused0",)),
                           (11, out.append, ("refused1",)),
                           (5, out.append, ("past",))])
    # A refused batch is refused whole: the queue is as it was (no entry,
    # no sequence number taken), and only what was accepted fires.
    queue = sim._queue
    assert len(queue) == 1 and queue._seq == 2
    sim.schedule(12, out.append, ("later",))
    sim.run()
    assert out == ["kept", "later"]
    assert sim.now == 12


def test_event_count_increments():
    sim = Simulator()
    for i in range(7):
        sim.schedule(i, lambda: None)
    sim.run()
    assert sim.event_count == 7


def test_max_events_guard():
    sim = Simulator(max_events=10)

    def loop():
        sim.schedule_after(1, loop)

    sim.schedule(0, loop)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run()


def test_reentrant_run_rejected():
    sim = Simulator()

    def nested():
        sim.run()

    sim.schedule(1, nested)
    with pytest.raises(SimulationError, match="re-entrant"):
        sim.run()


def test_same_time_fifo_among_callbacks():
    sim = Simulator()
    out = []
    for i in range(10):
        sim.schedule(42, out.append, (i,))
    sim.run()
    assert out == list(range(10))


def test_determinism_same_seed_same_rng():
    a = Simulator(seed=5).rng.stream("x").random(4)
    b = Simulator(seed=5).rng.stream("x").random(4)
    assert (a == b).all()
