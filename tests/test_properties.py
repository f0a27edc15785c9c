"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import heapq

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import NocConfig
from repro.engine import EventQueue, Simulator
from repro.noc.routing import route_port
from repro.noc.topology import LOCAL, Topology
from repro.stats import Histogram, OnlineStats
from repro.stats.error import mean_absolute_percentage_error


# ------------------------------------------------------------- event queue
def _drain(q: EventQueue) -> list[tuple[int, int, int]]:
    """The ``(time, priority, seq)`` keys in the order ``Simulator.run``
    would take them: it pops ``queue._heap`` directly."""
    return [heapq.heappop(q._heap)[:3] for _ in range(len(q))]


@given(st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 5)),
                max_size=200))
def test_event_queue_pops_sorted(items):
    q = EventQueue()
    for t, prio in items:
        q.push(t, lambda: None, priority=prio)
    assert len(q) == len(items)
    popped = _drain(q)
    assert popped == sorted(popped)
    assert len(popped) == len(items)


@given(st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 5)),
                max_size=200))
def test_event_queue_push_many_matches_push(items):
    """Bulk scheduling orders identically to one-by-one scheduling."""
    bulk = EventQueue()
    bulk.push_many(((t, (lambda: None), ()) for t, _ in items), priority=0)
    flat = EventQueue()
    for t, _ in items:
        flat.push(t, lambda: None, priority=0)
    assert _drain(bulk) == _drain(flat)


# ------------------------------------------------------------ online stats
@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1,
                max_size=500))
def test_online_stats_agrees_with_numpy(xs):
    s = OnlineStats()
    for x in xs:
        s.add(x)
    arr = np.asarray(xs)
    assert s.mean == pytest.approx(arr.mean(), rel=1e-9, abs=1e-6)
    if len(xs) > 1:
        assert s.variance == pytest.approx(arr.var(ddof=1), rel=1e-6, abs=1e-4)
    assert s.min == arr.min() and s.max == arr.max()


@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), max_size=200),
       st.lists(st.floats(-1e6, 1e6, allow_nan=False), max_size=200))
def test_online_stats_merge_equals_concat(a_xs, b_xs):
    a, b, whole = OnlineStats(), OnlineStats(), OnlineStats()
    for x in a_xs:
        a.add(x)
        whole.add(x)
    for x in b_xs:
        b.add(x)
        whole.add(x)
    a.merge(b)
    assert a.count == whole.count
    assert a.mean == pytest.approx(whole.mean, rel=1e-9, abs=1e-6)
    assert a.variance == pytest.approx(whole.variance, rel=1e-6, abs=1e-4)


# -------------------------------------------------------------- histogram
@given(st.lists(st.integers(0, 5000), max_size=300),
       st.integers(1, 50), st.integers(1, 64))
def test_histogram_conserves_mass(xs, bin_width, num_bins):
    h = Histogram(bin_width=bin_width, num_bins=num_bins)
    for x in xs:
        h.add(x)
    assert int(h.counts.sum()) + h.overflow == len(xs)


@given(st.lists(st.integers(0, 200), min_size=1, max_size=300))
def test_histogram_percentile_monotone(xs):
    h = Histogram(bin_width=2, num_bins=128)
    for x in xs:
        h.add(x)
    qs = [h.percentile(q) for q in (10, 50, 90, 99)]
    assert qs == sorted(qs)


# ------------------------------------------------------------ error metric
@given(st.lists(st.floats(1, 1e6), min_size=1, max_size=100))
def test_mape_zero_for_identical(xs):
    assert mean_absolute_percentage_error(xs, xs) == pytest.approx(0.0)


@given(st.lists(st.floats(1, 1e6), min_size=1, max_size=100),
       st.floats(0.01, 3.0))
def test_mape_of_uniform_scaling(xs, k):
    scaled = [x * k for x in xs]
    assert mean_absolute_percentage_error(scaled, xs) == pytest.approx(
        abs(k - 1) * 100, rel=1e-6)


# ----------------------------------------------------------------- routing
@st.composite
def topo_and_pair(draw):
    w = draw(st.integers(1, 6))
    h = draw(st.integers(1, 6))
    t = Topology(NocConfig(width=w, height=h))
    s = draw(st.integers(0, t.num_nodes - 1))
    d = draw(st.integers(0, t.num_nodes - 1))
    return t, s, d


@given(topo_and_pair())
@settings(max_examples=200)
def test_route_walk_reaches_destination_minimally(args):
    t, s, d = args
    cur, hops = s, 0
    while cur != d:
        port = route_port(t, cur, d)
        assert port != LOCAL
        nb = t.neighbor(cur, port)
        assert nb is not None
        cur = nb[0]
        hops += 1
        assert hops <= t.num_nodes * 2, "routing loop"
    assert hops == t.min_hops(s, d)


@given(topo_and_pair())
@settings(max_examples=200)
def test_route_port_reduces_distance(args):
    t, s, d = args
    if s == d:
        assert route_port(t, s, d) == LOCAL
        return
    nb = t.neighbor(s, route_port(t, s, d))
    assert nb is not None
    assert t.min_hops(nb[0], d) == t.min_hops(s, d) - 1


# -------------------------------------------------------------- simulator
@given(st.lists(st.integers(0, 1000), min_size=1, max_size=100))
def test_simulator_clock_monotone(times):
    sim = Simulator()
    seen = []
    for t in times:
        sim.schedule(t, lambda: seen.append(sim.now))
    sim.run()
    assert seen == sorted(seen)
    assert sim.now == max(times)
