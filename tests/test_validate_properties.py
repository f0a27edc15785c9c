"""Property-based invariant tests (hypothesis; skipped if not installed).

Strategy: generate random *valid* dependency DAG traces, then assert the
whole validation stack holds on them — check_trace finds nothing, replaying
self-correctingly conserves messages, gap scaling composes, and the JSON
round-trip is the identity.  The generator builds records in causal order so
every sample satisfies the Trace contract by construction.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core.trace import EndMarker, Trace, TraceRecord  # noqa: E402
from repro.validate import invariants as inv  # noqa: E402


@st.composite
def traces(draw):
    n = draw(st.integers(min_value=0, max_value=25))
    records: list[TraceRecord] = []
    deliver: dict[int, int] = {}
    for i in range(n):
        cause_id = -1
        if records and draw(st.booleans()):
            cause_id = draw(st.sampled_from(sorted(deliver)))
        gap = draw(st.integers(min_value=0, max_value=50))
        t_inject = gap if cause_id == -1 else deliver[cause_id] + gap
        latency = draw(st.integers(min_value=1, max_value=30))
        src = draw(st.integers(min_value=0, max_value=3))
        dst = draw(st.integers(min_value=0, max_value=3).filter(
            lambda d, s=src: d != s))
        records.append(TraceRecord(
            msg_id=i, key=(src, dst, "req_read", 0, i), src=src, dst=dst,
            size_bytes=draw(st.integers(min_value=1, max_value=256)),
            kind="req_read", t_inject=t_inject,
            t_deliver=t_inject + latency, cause_id=cause_id, gap=gap))
        deliver[i] = t_inject + latency
    markers = []
    if records:
        last = max(records, key=lambda r: r.t_deliver)
        m_gap = draw(st.integers(min_value=0, max_value=20))
        markers.append(EndMarker(0, last.t_deliver + m_gap, last.msg_id,
                                 m_gap))
    trace = Trace(records=records, end_markers=markers,
                  exec_time=markers[0].t_finish if markers else 0)
    trace.validate()
    return trace


@settings(max_examples=60, deadline=None)
@given(traces())
def test_generated_traces_satisfy_every_trace_invariant(trace):
    assert inv.check_trace(trace) == []


@settings(max_examples=60, deadline=None)
@given(traces())
def test_json_round_trip_is_identity(trace):
    back = Trace.from_json(trace.to_json())
    assert back.records == trace.records
    assert back.end_markers == trace.end_markers
    assert back.to_json() == trace.to_json()


@settings(max_examples=40, deadline=None)
@given(traces(), st.integers(min_value=1, max_value=5))
def test_gap_scaling_preserves_validity_and_latencies(trace, k):
    scaled = inv.scale_trace_gaps(trace, k)
    assert inv.check_trace(scaled) == []
    assert {r.msg_id: r.latency for r in scaled.records} \
        == {r.msg_id: r.latency for r in trace.records}
    # k=1 is the identity on timing.
    if k == 1:
        assert {r.msg_id: r.t_inject for r in scaled.records} \
            == {r.msg_id: r.t_inject for r in trace.records}


@settings(max_examples=40, deadline=None)
@given(traces(), st.integers(min_value=1, max_value=4))
def test_gap_scaling_never_shrinks_exec_time(trace, k):
    scaled = inv.scale_trace_gaps(trace, k)
    assert scaled.exec_time >= trace.exec_time


@settings(max_examples=30, deadline=None)
@given(traces())
def test_self_correcting_replay_conserves_on_generated_traces(trace):
    from repro.config import NocConfig
    from repro.core.replay import SelfCorrectingReplayer
    from repro.harness.builders import make_electrical

    sim, net = make_electrical(NocConfig(width=2, height=2), seed=1)
    result = SelfCorrectingReplayer(trace, sim, net).run()
    assert result.messages_unreplayed == 0
    assert inv.check_replay(trace, result) == []
