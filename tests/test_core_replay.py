"""Replayer tests: the heart of the reproduction.

The decisive properties:

* replaying a trace **on its capture network** reproduces the captured
  execution time almost exactly (self-consistency);
* on a *different* network the self-correcting replay tracks the
  execution-driven reference closely while the naive replay does not;
* dependency ablation degrades gracefully toward naive behaviour.
"""

from __future__ import annotations

import pytest

from repro.config import (
    CacheConfig,
    ExperimentConfig,
    NocConfig,
    OnocConfig,
    REPLAY_ENGINES,
    SystemConfig,
    TraceConfig,
)
from repro.core import (
    NaiveReplayer,
    SelfCorrectingReplayer,
    compare_to_reference,
    replay_trace,
)
from repro.core.replay import FixedScheduleReplayer
from repro.harness import electrical_factory, optical_factory, run_execution_driven


def small_exp(seed=5):
    return ExperimentConfig(
        system=SystemConfig(
            num_cores=4,
            l1=CacheConfig(size_bytes=1024, assoc=2, line_bytes=64, hit_latency=1),
            l2_slice=CacheConfig(size_bytes=4096, assoc=4, line_bytes=64, hit_latency=4),
            mem_latency=30, num_mem_ctrls=2,
        ),
        noc=NocConfig(width=2, height=2),
        onoc=OnocConfig(num_nodes=4, num_wavelengths=16),
        seed=seed,
    )


@pytest.fixture(scope="module")
def setting():
    exp = small_exp()
    res_e, trace, _ = run_execution_driven(exp, "randshare", "electrical")
    res_o, ref_trace, _ = run_execution_driven(exp, "randshare", "optical")
    return exp, res_e, trace, res_o, ref_trace


def test_all_messages_replayed_naive(setting):
    exp, _, trace, _, _ = setting
    r = replay_trace(trace, optical_factory(exp.onoc, exp.seed),
                     TraceConfig(mode="naive"))
    assert r.messages_replayed == len(trace)
    assert r.messages_unreplayed == 0
    assert len(r.deliveries) == len(trace)


def test_all_messages_replayed_self_correcting(setting):
    exp, _, trace, _, _ = setting
    r = replay_trace(trace, optical_factory(exp.onoc, exp.seed))
    assert r.messages_replayed == len(trace)
    assert r.messages_unreplayed == 0


def test_naive_replay_preserves_injection_times(setting):
    exp, _, trace, _, _ = setting
    r = replay_trace(trace, optical_factory(exp.onoc, exp.seed),
                     TraceConfig(mode="naive"))
    for rec in trace.records:
        assert r.injections[rec.msg_id] == rec.t_inject


def test_self_correcting_respects_causality(setting):
    exp, _, trace, _, _ = setting
    r = replay_trace(trace, optical_factory(exp.onoc, exp.seed))
    for rec in trace.records:
        if rec.cause_id != -1:
            expected = r.deliveries[rec.cause_id] + rec.gap
            assert r.injections[rec.msg_id] == expected, (
                f"record {rec.msg_id} not gap-aligned to its cause"
            )


def test_self_consistency_on_capture_network(setting):
    """Replaying on the capture network reproduces the captured timing."""
    exp, res_e, trace, _, _ = setting
    r = replay_trace(trace, electrical_factory(exp.noc, exp.seed))
    err = abs(r.exec_time_estimate - res_e.exec_time_cycles) / res_e.exec_time_cycles
    assert err < 0.03, f"self-consistency error {err:.2%}"


def test_self_correcting_beats_naive_on_target(setting):
    exp, _, trace, res_o, ref_trace = setting
    factory = optical_factory(exp.onoc, exp.seed)
    naive = compare_to_reference(
        replay_trace(trace, factory, TraceConfig(mode="naive")), ref_trace)
    sc = compare_to_reference(replay_trace(trace, factory), ref_trace)
    assert sc.exec_time_error_pct < naive.exec_time_error_pct
    assert sc.exec_time_error_pct < 6.0, "self-correction should be precise"


def test_naive_estimate_biased_toward_capture_time(setting):
    """Naive replay keeps the capture network's timeline, so its estimate
    stays near the electrical execution time instead of the optical one."""
    exp, res_e, trace, res_o, _ = setting
    naive = replay_trace(trace, optical_factory(exp.onoc, exp.seed),
                         TraceConfig(mode="naive"))
    d_capture = abs(naive.exec_time_estimate - res_e.exec_time_cycles)
    d_target = abs(naive.exec_time_estimate - res_o.exec_time_cycles)
    assert d_capture < d_target


def test_dep_ablation_degrades_gracefully(setting):
    exp, _, trace, _, ref_trace = setting
    factory = optical_factory(exp.onoc, exp.seed)
    errs = []
    for frac in (1.0, 0.5, 0.0):
        r = replay_trace(trace, factory,
                         TraceConfig(mode="self_correcting",
                                     keep_dep_fraction=frac))
        errs.append(compare_to_reference(r, ref_trace).exec_time_error_pct)
    # full deps strictly better than none; zero == naive-like
    assert errs[0] < errs[-1]


def test_ablation_zero_fraction_counts_drops(setting):
    exp, _, trace, _, _ = setting
    from repro.engine import Simulator
    from repro.onoc import build_optical_network

    sim = Simulator(seed=1)
    net = build_optical_network(sim, exp.onoc)
    rep = SelfCorrectingReplayer(trace, sim, net, keep_dep_fraction=0.0)
    assert rep.dropped_deps == len(trace) - len(trace.roots())


def test_fixed_schedule_replayer_requires_complete_schedule(setting):
    exp, _, trace, _, _ = setting
    from repro.engine import Simulator
    from repro.onoc import build_optical_network

    sim = Simulator(seed=1)
    net = build_optical_network(sim, exp.onoc)
    with pytest.raises(ValueError, match="schedule missing"):
        FixedScheduleReplayer(trace, sim, net, schedule={})


def test_replay_network_too_small_rejected(setting):
    _, _, trace, _, _ = setting
    from repro.engine import Simulator
    from repro.onoc import build_optical_network

    sim = Simulator(seed=1)
    net = build_optical_network(sim, OnocConfig(num_nodes=2, num_wavelengths=4))
    with pytest.raises(ValueError, match="too small"):
        NaiveReplayer(trace, sim, net)


def test_replay_deterministic(setting):
    exp, _, trace, _, _ = setting
    factory = optical_factory(exp.onoc, exp.seed)
    a = replay_trace(trace, factory)
    b = replay_trace(trace, factory)
    assert a.exec_time_estimate == b.exec_time_estimate
    assert a.deliveries == b.deliveries


def test_replay_result_latencies_match_deliveries(setting):
    exp, _, trace, _, _ = setting
    r = replay_trace(trace, optical_factory(exp.onoc, exp.seed))
    key_of = {rec.msg_id: rec.key for rec in trace.records}
    for mid, t in r.deliveries.items():
        assert r.latencies_by_key[key_of[mid]] == t - r.injections[mid]


# ----------------------------------------------------- stall diagnostics
@pytest.fixture
def self_correct(setting):
    """Self-correcting replay on the optical target, once per engine: the
    stall / demotion diagnostics below come out of the one result-assembly
    function, fed by the event replayer and by the generational solver.
    (A loop rather than ``params=`` so the test ids stay as they were.)"""
    exp, *_ = setting

    def run(trace, **cfg):
        return [replay_trace(trace, optical_factory(exp.onoc, exp.seed),
                             TraceConfig(engine=engine, **cfg))
                for engine in REPLAY_ENGINES]

    return run


def _orphan_trace():
    """A trace whose record 2 depends on msg_id 99 that never delivers
    (and record 3 depends on the stalled record 2 — a stall chain).
    Built directly, skipping Trace.validate(), to model a buggy or
    truncated dependency graph reaching the replayer."""
    from repro.core.trace import Trace, TraceRecord

    def rec(msg_id, cause_id, t_inject, gap):
        return TraceRecord(
            msg_id=msg_id, key=(0, 1, "data", msg_id, 0), src=0, dst=1,
            size_bytes=64, kind="data", t_inject=t_inject,
            t_deliver=t_inject + 10, cause_id=cause_id, gap=gap)

    records = [
        rec(0, -1, 0, 0),
        rec(1, 0, 15, 5),
        rec(2, 99, 30, 5),           # cause 99 does not exist
        rec(3, 2, 45, 5),            # stalls transitively behind 2
    ]
    return Trace(records=records, end_markers=[], exec_time=55, meta={})


def test_stalled_dependents_are_diagnosed(self_correct):
    """Under the ``captured`` degraded-gap policy a missing trigger still
    stalls its whole dependency chain, with diagnostics naming the culprit."""
    for r in self_correct(_orphan_trace(), degraded_gap_policy="captured"):
        assert r.messages_replayed == 2
        assert r.messages_unreplayed == 2
        assert r.stalled_count == 2
        assert r.stalled_msg_ids == [2, 3]
        # Record 2 names its missing trigger; record 3 names its stalled cause.
        assert r.stalled_on == {2: [99], 3: [2]}
        # Missing triggers are a data bug, not a cycle: nothing is demoted.
        assert r.demoted_cyclic == 0
        assert r.fault_exposure.policy == "captured"
        assert r.fault_exposure.missing_triggers == 1
        assert r.fault_exposure.rederived == 0


def test_missing_trigger_rederived_under_neighbor_policy(self_correct):
    """The default ``neighbor_gap`` policy re-derives the orphaned record
    from its same-node predecessor instead of stalling the chain."""
    for r in self_correct(_orphan_trace()):
        assert r.messages_replayed == 4
        assert r.messages_unreplayed == 0
        assert r.stalled_count == 0
        assert r.fault_exposure.missing_triggers == 1
        assert r.fault_exposure.rederived_msg_ids == (2,)
        assert r.rederived_records == 1
        # The anchor chain preserves the captured inter-send delta on node 0:
        # record 2 fires 15 cycles after record 1's *replayed* injection.
        assert r.injections[2] == r.injections[1] + 15
        # Record 3's dependency on 2 is intact, so it still obeys the
        # earliest-start rule off 2's re-derived delivery.
        assert r.injections[3] == r.deliveries[2] + 5


def test_no_stall_diagnostics_on_clean_replay(setting, self_correct):
    _, _, trace, _, _ = setting
    for r in self_correct(trace):
        assert r.messages_unreplayed == 0
        assert r.stalled_count == 0
        assert r.stalled_msg_ids == []
        assert r.stalled_on == {}
        assert r.demoted_cyclic == 0


# ------------------------------------------------- degenerate dependency graphs
def _rec(msg_id, cause_id, t_inject, gap, t_deliver=None, src=0, dst=1):
    from repro.core.trace import TraceRecord

    return TraceRecord(
        msg_id=msg_id, key=(src, dst, "data", msg_id, 0), src=src, dst=dst,
        size_bytes=64, kind="data", t_inject=t_inject,
        t_deliver=t_inject + 10 if t_deliver is None else t_deliver,
        cause_id=cause_id, gap=gap)


def _cyclic_trace():
    """Two zero-latency records that cause each other — every per-edge
    causality equation balances, but the graph has no schedulable root.
    Built directly: Trace.validate() now rejects this shape."""
    from repro.core.trace import Trace

    records = [
        _rec(0, 1, 5, 0, t_deliver=5, src=0, dst=1),
        _rec(1, 0, 5, 0, t_deliver=5, src=1, dst=0),
    ]
    return Trace(records=records, end_markers=[], exec_time=0, meta={})


def test_validate_rejects_dependency_cycle():
    with pytest.raises(ValueError, match="dependency cycle"):
        _cyclic_trace().validate()


def test_cyclic_records_demoted_not_unreplayed(self_correct):
    """Regression: a rootless cycle (vacuously, 'all roots share offset 0')
    replayed on an empty network used to stall silently with
    messages_unreplayed > 0; cycle members now fall back to their captured
    timestamps and everything replays."""
    for r in self_correct(_cyclic_trace()):
        assert r.messages_unreplayed == 0
        assert r.messages_replayed == 2
        assert r.demoted_cyclic == 2
        assert r.stalled_count == 0
        # Demoted records replay at their captured timestamps.
        assert r.injections == {0: 5, 1: 5}


def test_cycle_descendants_fire_after_demotion(self_correct):
    """A record *downstream* of a cycle is not demoted — it self-corrects
    off the demoted members' actual deliveries."""
    from repro.core.trace import Trace

    records = [
        _rec(0, 1, 5, 0, t_deliver=5, src=0, dst=1),
        _rec(1, 0, 5, 0, t_deliver=5, src=1, dst=0),
        _rec(2, 0, 10, 5, src=1, dst=2),        # caused by cycle member 0
    ]
    trace = Trace(records=records, end_markers=[], exec_time=0, meta={})
    for r in self_correct(trace):
        assert r.messages_unreplayed == 0
        assert r.demoted_cyclic == 2
        # Record 2 was injected gap cycles after record 0's simulated delivery.
        assert r.injections[2] == r.deliveries[0] + 5


def test_offset_zero_roots_all_replay_on_idle_network(setting):
    """All-root traces sharing injection offset 0 replay completely on a
    fresh (empty) target network."""
    from repro.core.trace import Trace

    exp, *_ = setting
    records = [
        _rec(i, -1, 0, 0, src=i % 2, dst=2 + i % 2) for i in range(4)
    ]
    trace = Trace(records=records, end_markers=[], exec_time=0, meta={})
    trace.validate()
    sim, net = optical_factory(exp.onoc, exp.seed)()
    r = SelfCorrectingReplayer(trace, sim, net).run()
    assert r.messages_unreplayed == 0
    assert r.demoted_cyclic == 0
    assert all(t == 0 for t in r.injections.values())
