"""Flagging cases for every invariant in repro.validate.invariants.

Each case constructs a minimal artifact violating one invariant and asserts
the checker flags it by name (and nothing on the healthy variant); a case
registers the name it flags with ``@_flags``, and a guard demands one for
every name in ``ALL_INVARIANTS``.  ``trace.well_formed`` is
:meth:`Trace.validate`'s refusal, so its cases assert that refusal's exact
text.  Frozen ``TraceRecord`` validation forbids building some corrupt
shapes directly, so those cases smuggle the corruption in with
``object.__setattr__`` — exactly what a buggy capture/replay layer or a
hand-edited JSON artifact would produce.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.config import OnocConfig
from repro.core.iterate import IterativeRefiner
from repro.core.replay import ReplayResult
from repro.core.trace import EndMarker, Trace, TraceRecord
from repro.harness.builders import optical_factory
from repro.validate import GOLDEN_SCENARIOS
from repro.validate import invariants as inv
from repro.validate.golden import _trace_path

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _rec(msg_id, t_inject, t_deliver, cause_id=-1, gap=None, src=0, dst=1,
         kind="req_read", occ=None):
    if gap is None:
        gap = t_inject if cause_id == -1 else 0
    occ = msg_id if occ is None else occ
    return TraceRecord(
        msg_id=msg_id, key=(src, dst, kind, 0, occ), src=src, dst=dst,
        size_bytes=8, kind=kind, t_inject=t_inject, t_deliver=t_deliver,
        cause_id=cause_id, gap=gap)


def _chain_trace():
    """Healthy 3-record chain 0 -> 1 -> 2 with an end marker."""
    r0 = _rec(0, 0, 10)
    r1 = _rec(1, 15, 30, cause_id=0, gap=5)
    r2 = _rec(2, 30, 50, cause_id=1, gap=0)
    marker = EndMarker(0, 55, 2, 5)
    return Trace(records=[r0, r1, r2], end_markers=[marker], exec_time=55)


def _names(violations):
    return {v.invariant for v in violations}


#: Invariant names some case below asserts flagged.
_FLAGGED: set[str] = set()


def _flags(*names):
    """Register the invariants a test asserts flagged."""
    _FLAGGED.update(names)
    return lambda test: test


def _result_for(trace, mode="self_correcting"):
    """A ReplayResult consistent with replaying ``trace`` at capture times."""
    deliveries = {r.msg_id: r.t_deliver for r in trace.records}
    injections = {r.msg_id: r.t_inject for r in trace.records}
    return ReplayResult(
        mode=mode,
        exec_time_estimate=trace.exec_time,
        latencies_by_key={r.key: r.latency for r in trace.records},
        deliveries=deliveries,
        injections=injections,
        messages_replayed=len(trace.records),
        messages_unreplayed=0,
        wall_clock_s=0.0,
        sim_events=0,
    )


def test_healthy_trace_and_replay_have_no_violations():
    trace = _chain_trace()
    assert inv.check_trace(trace) == []
    assert inv.check_replay(trace, _result_for(trace)) == []


# ------------------------------------------------------- trace invariants

def _duplicate_record():
    trace = _chain_trace()
    trace.records.append(_rec(0, 0, 10))  # same msg_id and key as record 0
    return trace


def _damaged(index, **fields):
    """A fresh chain trace with ``fields`` forced onto record ``index``."""
    def build():
        trace = _chain_trace()
        for name, value in fields.items():
            object.__setattr__(trace.records[index], name, value)
        return trace
    return build


def _cycle():
    r0 = _rec(0, 5, 5, cause_id=1, gap=0, occ=0)
    r1 = _rec(1, 5, 5, cause_id=0, gap=0, occ=1)
    return Trace(records=[r0, r1], end_markers=[], exec_time=0)


def _stale_exec_time():
    trace = _chain_trace()
    trace.exec_time = 999  # no longer the latest marker finish
    return trace


def _dangling_marker():
    trace = _chain_trace()
    trace.end_markers[0] = EndMarker(0, 55, 42, 5)
    return trace


_DAMAGES = {
    "duplicate_msg_id_and_key": _duplicate_record,
    "dangling_cause": _damaged(1, cause_id=99),
    "gap_mismatch": _damaged(1, gap=3),  # 10 + 3 != 15
    "negative_gap": _damaged(1, gap=-5, t_inject=5, t_deliver=20),
    "dependency_cycle": _cycle,
    "time_travel": _damaged(2, t_deliver=20),  # before inject 30
    "stale_exec_time": _stale_exec_time,
    "dangling_marker_cause": _dangling_marker,
}


@_flags(inv.TRACE_WELL_FORMED)
@pytest.mark.parametrize("damage", sorted(_DAMAGES))
def test_trace_well_formed_reports_the_validate_refusal(damage):
    with pytest.raises(ValueError) as refusal:
        _DAMAGES[damage]().validate()
    flagged = [v for v in inv.check_trace(_DAMAGES[damage]())
               if v.invariant == inv.TRACE_WELL_FORMED]
    assert flagged == [inv.Violation(inv.TRACE_WELL_FORMED,
                                     str(refusal.value))]


@_flags(inv.TRACE_CHANNEL_ORDER)
def test_trace_channel_monotonicity_flags_disjoint_reorder():
    # Same channel; r2's flight starts after r0 delivers, yet r2 "delivers"
    # back at t=12 < r0's delivery — a time-travelling artifact that per-
    # record latency checks alone cannot catch once we corrupt in pairs.
    r0 = _rec(0, 0, 20)
    r1 = _rec(1, 5, 40, occ=1)          # overlapping: free to reorder
    r2 = _rec(2, 25, 30, occ=2)
    trace = Trace(records=[r0, r1, r2], end_markers=[], exec_time=0)
    assert inv.check_trace(trace) == []  # healthy: no reorder among disjoint
    object.__setattr__(trace.records[2], "t_deliver", 12)
    object.__setattr__(trace.records[2], "t_inject", 25)
    violations = inv.check_trace(trace)
    assert inv.TRACE_CHANNEL_ORDER in _names(violations)


def test_violation_lists_are_capped():
    # Every later injection delivers before the first one: 60 strict-FIFO
    # breaks on one channel of a well-formed trace.
    records = [_rec(0, 0, 100)] + [_rec(i, i, i + 1, occ=i)
                                   for i in range(1, 61)]
    trace = Trace(records=records, end_markers=[], exec_time=0)
    violations = inv.check_trace(trace, strict_fifo=True)
    assert _names(violations) == {inv.TRACE_CHANNEL_ORDER}
    assert len(violations) == inv._VIOLATION_CAP + 1
    assert "suppressed" in violations[-1].message


# ------------------------------------------------------ replay invariants

@_flags(inv.REPLAY_CONSERVATION)
def test_replay_conservation_flags_delivery_without_injection():
    trace = _chain_trace()
    result = _result_for(trace)
    del result.injections[2]
    result.messages_replayed = 2
    result.messages_unreplayed = 1
    result.stalled_count = 1
    names = _names(inv.check_replay(trace, result))
    assert inv.REPLAY_CONSERVATION in names


def test_replay_conservation_flags_injection_outside_trace():
    trace = _chain_trace()
    result = _result_for(trace)
    result.injections[7] = 0
    violations = inv.check_replay(trace, result)
    assert [(v.invariant, v.msg_id) for v in violations] == [
        (inv.REPLAY_CONSERVATION, 7)]


@_flags(inv.REPLAY_CAUSALITY)
def test_replay_causality_flags_wrong_self_correcting_injection():
    trace = _chain_trace()
    result = _result_for(trace)
    # Record 1's cause delivered at 10 (gap 5) => injection must be 15 (or
    # the captured fallback, also 15 here); 13 is neither.
    result.injections[1] = 13
    names = _names(inv.check_replay(trace, result))
    assert inv.REPLAY_CAUSALITY in names


def test_replay_causality_naive_mode_pins_captured_timestamps():
    trace = _chain_trace()
    result = _result_for(trace, mode="naive")
    result.injections[1] = 13  # naive must inject at the captured time 15
    names = _names(inv.check_replay(trace, result))
    assert inv.REPLAY_CAUSALITY in names


@_flags(inv.REPLAY_STALLS)
def test_replay_stall_accounting_flags_count_drift():
    trace = _chain_trace()
    result = _result_for(trace)
    result.stalled_count = 2  # but messages_unreplayed == 0
    names = _names(inv.check_replay(trace, result))
    assert inv.REPLAY_STALLS in names


def test_iterative_refinement_is_not_held_to_the_online_rule():
    # A refined schedule is a damped blend of rebuilt timelines: neither the
    # earliest-start time nor the captured one, and legitimately so.
    scenario = next(s for s in GOLDEN_SCENARIOS if s.workload == "fft")
    trace = Trace.from_json(_trace_path(GOLDEN_DIR, scenario).read_text())
    onoc = OnocConfig(num_nodes=scenario.cores, num_wavelengths=32,
                      topology="crossbar")
    result = IterativeRefiner(trace, optical_factory(onoc, scenario.seed),
                              max_iterations=3).run()
    assert inv.check_replay(trace, result) == []


@_flags(inv.REPLAY_CHANNEL_ORDER)
def test_replay_channel_monotonicity_flags_replayed_reorder():
    r0 = _rec(0, 0, 20)
    r1 = _rec(1, 25, 30, occ=1)
    trace = Trace(records=[r0, r1], end_markers=[], exec_time=0)
    result = _result_for(trace, mode="naive")
    result.deliveries[1] = 15  # delivered before the disjoint predecessor
    result.latencies_by_key[r1.key] = 15 - 25
    result.exec_time_estimate = 20
    names = _names(inv.check_replay(trace, result))
    assert inv.REPLAY_CHANNEL_ORDER in names


# --------------------------------------------------- metamorphic helpers

def test_scale_trace_gaps_scales_roots_and_edges():
    trace = _chain_trace()
    scaled = inv.scale_trace_gaps(trace, 3)
    by_id = {r.msg_id: r for r in scaled.records}
    assert by_id[0].t_inject == 0 and by_id[0].t_deliver == 10
    assert by_id[1].t_inject == 10 + 15  # deliver(0) + 3*5
    assert by_id[1].latency == trace.records[1].latency
    assert scaled.exec_time == by_id[2].t_deliver + 15
    scaled.validate()  # still a structurally valid trace


def test_scale_trace_gaps_identity_at_one():
    trace = _chain_trace()
    scaled = inv.scale_trace_gaps(trace, 1)
    assert scaled.to_json() == Trace(
        records=trace.records, end_markers=trace.end_markers,
        exec_time=trace.exec_time, meta={"gap_scale": 1}).to_json()


def test_scale_trace_gaps_rejects_negative_factor():
    with pytest.raises(ValueError, match="scale factor"):
        inv.scale_trace_gaps(_chain_trace(), -1)


def test_all_invariants_catalogue_is_complete():
    # Guard: every published name has a case above asserting it flagged.
    assert len(set(inv.ALL_INVARIANTS)) == len(inv.ALL_INVARIANTS)
    assert set(inv.ALL_INVARIANTS) <= _FLAGGED
