"""Secondary-trigger (bound edge) mechanism tests.

The production capture does not emit bound edges (see the note in
repro/system/directory.py and EXPERIMENTS.md), but the trace format and the
replayers implement the general two-edge earliest-start rule; these tests
pin that behaviour down with hand-built traces.
"""

from __future__ import annotations

import pytest

from repro.config import OnocConfig, TraceConfig
from repro.core import SelfCorrectingReplayer, Trace, TraceRecord, replay_trace
from repro.core.iterate import IterativeRefiner
from repro.engine import Simulator
from repro.harness.builders import optical_factory
from repro.onoc import build_optical_network


def rec(mid, src, dst, t_in, t_del, cause=-1, gap=None, bound=-1,
        bound_gap=0, size=8):
    return TraceRecord(
        msg_id=mid, key=(src, dst, "synthetic", mid, 0), src=src, dst=dst,
        size_bytes=size, kind="synthetic", t_inject=t_in, t_deliver=t_del,
        cause_id=cause, gap=(t_in if cause == -1 else gap),
        bound_id=bound, bound_gap=bound_gap)


def bounded_trace():
    """r2 is released by max(r0 + 5, r1 + 60): consistent at capture where
    r0 delivers at 20 and r1 at 10 -> inject 70 either way... here we make
    both edge sums equal the captured inject (70)."""
    r0 = rec(0, 0, 1, 0, 20)                       # root, delivered t=20
    r1 = rec(1, 2, 3, 0, 10)                       # root, delivered t=10
    r2 = rec(2, 1, 2, 70, 90, cause=0, gap=50, bound=1, bound_gap=60)
    t = Trace(records=[r0, r1, r2], end_markers=[], exec_time=90)
    t.validate()
    return t


# ---------------------------------------------------------------- format
def test_bound_requires_cause():
    with pytest.raises(ValueError, match="bound but no cause"):
        rec(0, 0, 1, 10, 20, bound=5)


def test_bound_gap_consistency_checked():
    r0 = rec(0, 0, 1, 0, 20)
    r1 = rec(1, 2, 3, 0, 10)
    bad = rec(2, 1, 2, 70, 90, cause=0, gap=50, bound=1, bound_gap=7)
    t = Trace(records=[r0, r1, bad], end_markers=[], exec_time=90)
    with pytest.raises(ValueError, match="bound_gap"):
        t.validate()


def test_missing_bound_detected():
    r0 = rec(0, 0, 1, 0, 20)
    bad = rec(2, 1, 2, 70, 90, cause=0, gap=50, bound=99, bound_gap=60)
    t = Trace(records=[r0, bad], end_markers=[], exec_time=90)
    with pytest.raises(ValueError, match="not in trace"):
        t.validate()


def test_json_roundtrip_preserves_bounds():
    t = bounded_trace()
    again = Trace.from_json(t.to_json())
    assert again.records == t.records
    r2 = next(r for r in again.records if r.msg_id == 2)
    assert r2.bound_id == 1 and r2.bound_gap == 60


def test_legacy_json_without_bound_columns_loads():
    t = Trace(records=[rec(0, 0, 1, 0, 20)], end_markers=[], exec_time=20)
    text = t.to_json()
    # Strip the two bound columns to emulate a pre-bound trace file.
    import json

    obj = json.loads(text)
    obj["records"] = [row[:10] for row in obj["records"]]
    again = Trace.from_json(json.dumps(obj))
    assert again.records[0].bound_id == -1


# ----------------------------------------------------------------- replay
def _replay(trace):
    sim = Simulator(seed=1)
    net = build_optical_network(sim, OnocConfig(num_nodes=4,
                                                num_wavelengths=16))
    rep = SelfCorrectingReplayer(trace, sim, net)
    return rep.run()


def test_replay_applies_earliest_start_rule():
    t = bounded_trace()
    result = _replay(t)
    assert result.messages_unreplayed == 0
    expected = max(result.deliveries[0] + 50, result.deliveries[1] + 60)
    assert result.injections[2] == expected


def test_bound_binding_edge_can_win():
    """Give the bound edge a huge delay so it must dominate on any target."""
    r0 = rec(0, 0, 1, 0, 20)
    r1 = rec(1, 2, 3, 0, 10)
    r2 = rec(2, 1, 2, 1010, 1030, cause=0, gap=990, bound=1, bound_gap=1000)
    t = Trace(records=[r0, r1, r2], end_markers=[], exec_time=1030)
    t.validate()
    result = _replay(t)
    assert result.injections[2] == max(result.deliveries[0] + 990,
                                       result.deliveries[1] + 1000)


def test_iterative_refiner_honours_bounds():
    t = bounded_trace()
    def sim_factory():
        s = Simulator(seed=1)
        return s, build_optical_network(
            s, OnocConfig(num_nodes=4, num_wavelengths=16))

    refiner = IterativeRefiner(t, sim_factory, max_iterations=3)
    result = refiner.run()
    assert result.messages_unreplayed == 0


def test_dropping_dep_also_drops_bound():
    t = bounded_trace()
    sim = Simulator(seed=1)
    net = build_optical_network(sim, OnocConfig(num_nodes=4,
                                                num_wavelengths=16))
    rep = SelfCorrectingReplayer(t, sim, net, keep_dep_fraction=0.0)
    result = rep.run()
    # The bounded record fell back to its absolute timestamp.
    assert result.injections[2] == 70


def test_bound_that_is_the_cause_takes_the_larger_gap_on_both_engines():
    """A hand-built record may name one message as cause *and* bound
    (``Trace.validate`` rejects it, the replayers accept hand-built traces).
    The earliest-start rule is the max over edges, each priced with its own
    gap: ``deliver(0) + max(5, 40)``, not ``deliver(0) + 5``."""
    r0 = rec(0, 0, 1, 0, 20, size=64)
    r1 = rec(1, 1, 2, 60, 80, cause=0, gap=5, bound=0, bound_gap=40, size=64)
    t = Trace(records=[r0, r1], end_markers=[], exec_time=80)
    onoc = OnocConfig(num_nodes=4, num_wavelengths=16)
    for engine in ("event", "generational"):
        result = replay_trace(t, optical_factory(onoc, 1),
                              TraceConfig(engine=engine))
        assert result.deliveries[0] == 11, engine
        assert result.injections[1] == 51, engine
        assert result.messages_unreplayed == 0, engine
