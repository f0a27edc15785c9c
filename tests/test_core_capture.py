"""Trace-capture tests against real full-system runs."""

from __future__ import annotations

import pytest

from repro.config import ExperimentConfig, NocConfig, OnocConfig, SystemConfig, CacheConfig
from repro.core import TraceCapture
from repro.harness import run_execution_driven
from repro.net import Message


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
def captured():
    exp = small_exp()
    res, trace, _ = run_execution_driven(exp, "randshare", "electrical")
    return res, trace


def test_capture_produces_valid_trace(captured):
    res, trace = captured
    trace.validate()
    assert len(trace) > 0
    assert trace.exec_time == res.exec_time_cycles


def test_every_network_message_captured(captured):
    res, trace = captured
    assert len(trace) == res.messages


def test_semantic_keys_unique(captured):
    _, trace = captured
    keys = {r.key for r in trace.records}
    assert len(keys) == len(trace.records)


def test_end_markers_one_per_core(captured):
    _, trace = captured
    assert sorted(m.node for m in trace.end_markers) == [0, 1, 2, 3]


def test_dependency_structure_nontrivial(captured):
    _, trace = captured
    roots = trace.roots()
    assert 0 < len(roots) < len(trace)        # some deps, some roots
    assert trace.dependency_depth() > 10      # deep causal chains


def test_gaps_nonnegative_and_bounded(captured):
    _, trace = captured
    for r in trace.records:
        assert 0 <= r.gap <= trace.exec_time


def test_meta_propagated():
    exp = small_exp()
    _, trace, _ = run_execution_driven(exp, "fft", "electrical", scale=0.5)
    assert trace.meta["workload"] == "fft"
    assert trace.meta["capture_network"] == "electrical"
    assert trace.meta["scale"] == 0.5


def test_capture_on_optical_network_too():
    exp = small_exp()
    res, trace, _ = run_execution_driven(exp, "stencil", "optical")
    trace.validate()
    assert len(trace) == res.messages


def test_capture_determinism():
    exp = small_exp()
    _, t1, _ = run_execution_driven(exp, "lu", "electrical")
    _, t2, _ = run_execution_driven(exp, "lu", "electrical")
    sig1 = [(r.key, r.t_inject, r.t_deliver, r.gap) for r in t1.records]
    sig2 = [(r.key, r.t_inject, r.t_deliver, r.gap) for r in t2.records]
    assert sig1 == sig2


def test_capture_rejects_non_protocol_messages():
    cap = TraceCapture()
    with pytest.raises(TypeError, match="ProtPayload"):
        cap.on_network_send(Message(0, 1, 8, payload="raw"))


# ------------------------------------------------ incremental acyclicity

def test_capture_rejects_forward_cause_naming_the_transition():
    """A cause that has not been sent yet is a forward reference — the only
    shape a (zero-latency) dependency cycle can take, since sends are hooked
    in simulation order.  The error must pinpoint the protocol transition
    that closed the cycle, not wait for post-hoc validation."""
    from repro.system.protocol import ProtPayload
    cap = TraceCapture()
    first = Message(0, 1, 64, "req_read", payload=ProtPayload(line=7))
    first.inject_time, first.deliver_time = 0, 10
    cap.on_network_send(first)
    future = Message(1, 0, 64, "resp_data", payload=ProtPayload(line=7))
    offender = Message(0, 2, 64, "req_write",
                       payload=ProtPayload(line=7, aux=0, seq=4,
                                           cause=future))
    with pytest.raises(RuntimeError) as exc:
        cap.on_network_send(offender)
    text = str(exc.value)
    # Names the offending transition and the forward trigger precisely.
    assert "req_write 0->2" in text
    assert "line=7" in text and "seq=4" in text
    assert f"message {future.id} (resp_data)" in text
    assert "cause" in text
    # The offender was rejected, not half-recorded.
    assert len(cap.finalize()) == 1


def test_capture_rejects_self_cycle():
    from repro.system.protocol import ProtPayload
    cap = TraceCapture()
    msg = Message(0, 1, 64, "req_read", payload=ProtPayload(line=1))
    msg.payload.cause = msg
    with pytest.raises(RuntimeError, match="dependency cycle at capture"):
        cap.on_network_send(msg)


def test_posthoc_validate_agrees_on_the_cycle():
    """The same damage smuggled past capture (hand-built records) is still
    caught by ``Trace.validate()``'s fire-fixpoint: the capture-time check
    is an earlier, better-named gate over the same invariant."""
    from repro.core.trace import Trace, TraceRecord

    def rec(msg_id, cause_id):
        return TraceRecord(
            msg_id=msg_id, key=(0, 1, "req_read", 0, msg_id), src=0, dst=1,
            size_bytes=8, kind="req_read", t_inject=5, t_deliver=5,
            cause_id=cause_id, gap=0)

    # Zero-latency two-cycle: each record's cause delivers exactly when the
    # other injects, so every per-edge arithmetic check balances.
    cyclic = Trace(records=[rec(0, 1), rec(1, 0)], end_markers=[],
                   exec_time=5)
    with pytest.raises(ValueError, match="cyc"):
        cyclic.validate()


def test_capture_counts(captured):
    res, trace = captured
    # control messages should dominate data in count for coherence traffic
    kinds = {}
    for r in trace.records:
        kinds[r.kind] = kinds.get(r.kind, 0) + 1
    assert kinds.get("req_read", 0) + kinds.get("req_write", 0) > 0
    assert kinds.get("resp_data", 0) > 0
