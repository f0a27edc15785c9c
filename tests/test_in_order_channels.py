"""Per-backend ``in_order_channels`` capability flag and strict-FIFO checks.

The flag declares that a backend delivers same-(src, dst) messages in
injection order, which lets the validation harness hold it to the *strict*
form of the channel-monotonicity invariant.  The settings here were
validated empirically (42 random scenarios, zero strict violations for the
backends claiming True; circuit_mesh and electrical demonstrably reorder).
"""

from __future__ import annotations

import pytest

from repro.core.trace import Trace, TraceRecord
from repro.harness import backend_in_order_channels
from repro.harness.builders import run_execution_driven
from repro.noc.network import ElectricalNetwork
from repro.onoc import topology_in_order_channels
from repro.onoc.awgr import OpticalAwgr
from repro.onoc.circuit import CircuitSwitchedMesh
from repro.onoc.crossbar import OpticalCrossbar
from repro.onoc.hybrid import HybridNetwork
from repro.onoc.swmr import OpticalSwmrCrossbar
from repro.validate import invariants as inv
from repro.validate.scenario import Scenario


# ----------------------------------------------------------- flag values
def test_capability_flags():
    assert OpticalAwgr.in_order_channels
    assert OpticalSwmrCrossbar.in_order_channels
    assert OpticalCrossbar.in_order_channels
    # Segment-waiter re-queuing can reorder same-pair circuits.
    assert not CircuitSwitchedMesh.in_order_channels
    # Wormhole VC arbitration reorders overlapping flights.
    assert not ElectricalNetwork.in_order_channels
    assert not HybridNetwork.in_order_channels


def test_backend_lookup_helpers():
    assert backend_in_order_channels("electrical") is False
    assert backend_in_order_channels("awgr") is True
    assert topology_in_order_channels("circuit_mesh") is False
    with pytest.raises(ValueError):
        topology_in_order_channels("token_ring")
    with pytest.raises(ValueError):
        backend_in_order_channels("carrier_pigeon")


# ------------------------------------------------- strict checker (unit)
def _rec(msg_id, t_inject, t_deliver, src=0, dst=1):
    return TraceRecord(
        msg_id=msg_id, key=(src, dst, "req_read", 0, msg_id), src=src,
        dst=dst, size_bytes=8, kind="req_read", t_inject=t_inject,
        t_deliver=t_deliver, cause_id=-1, gap=t_inject)


def _trace(*records):
    return Trace(records=list(records), end_markers=[], exec_time=0)


def test_strict_flags_overlapping_reorder():
    """Overlapping flights that reorder: legal by default, a violation
    under strict FIFO."""
    trace = _trace(_rec(0, 0, 40), _rec(1, 5, 20))
    assert inv.check_trace(trace) == []
    violations = inv.check_trace(trace, strict_fifo=True)
    assert {v.invariant for v in violations} == {inv.TRACE_CHANNEL_ORDER}
    assert "strict FIFO" in violations[0].message
    assert violations[0].msg_id == 1


def test_strict_passes_in_order_and_exempts_ties():
    ordered = _trace(_rec(0, 0, 10), _rec(1, 5, 20), _rec(2, 12, 30))
    assert inv.check_trace(ordered, strict_fifo=True) == []
    # Same-cycle injections may deliver in either order.
    tied = _trace(_rec(0, 0, 30), _rec(1, 0, 20))
    assert inv.check_trace(tied, strict_fifo=True) == []


def test_strict_is_per_channel():
    """Reordering across *different* channels is never a violation."""
    trace = _trace(_rec(0, 0, 40, src=0, dst=1), _rec(1, 5, 20, src=0, dst=2))
    assert inv.check_trace(trace, strict_fifo=True) == []


def test_strict_replay_check():
    trace = _trace(_rec(0, 0, 40), _rec(1, 5, 50))
    from repro.core.replay import ReplayResult
    result = ReplayResult(
        mode="naive", exec_time_estimate=0,
        latencies_by_key={r.key: 10 for r in trace.records},
        deliveries={0: 40, 1: 10}, injections={0: 0, 1: 5},
        messages_replayed=2, messages_unreplayed=0,
        wall_clock_s=0.0, sim_events=0)
    # deliveries[1]=10 < deliveries[0]=40 with a later injection: an
    # overlapping reorder, visible only to the strict form.
    base = {v.invariant for v in inv.check_replay(trace, result)}
    assert inv.REPLAY_CHANNEL_ORDER not in base
    strict = {v.invariant
              for v in inv.check_replay(trace, result, strict_fifo=True)}
    assert inv.REPLAY_CHANNEL_ORDER in strict


# --------------------------------- circuit_mesh waiter re-queue pinning
def test_circuit_waiter_requeues_at_back_of_fifo():
    """Pin the allocator model behind ``in_order_channels = False``.

    A torn-down segment wakes its head waiter, but the wakeup re-*attempts*
    acquisition rather than receiving a reservation.  If a third circuit
    acquires the freed segment in the same cycle, the woken waiter re-queues
    at the *back* of the segment FIFO — behind a same-pair circuit that
    arrived after it.  This is the documented greedy re-arbitration model
    (docs/METHODOLOGY.md §3); flipping to place-keeping handoff would let
    ``in_order_channels`` be True and must update doc + this test together.
    """
    from repro.config import OnocConfig
    from repro.engine import Simulator
    from repro.net import Message
    from repro.onoc.circuit import CircuitSwitchedMesh, _SetupWalker

    sim = Simulator(seed=1)
    net = CircuitSwitchedMesh(sim, OnocConfig(num_nodes=4))
    path = net._xy_path(0, 3)          # two hops on the 2x2 mesh
    assert len(path) == 2
    seg = net._segment(path[0])

    def walker(cid):
        msg = Message(src=0, dst=3, size_bytes=64)
        msg.inject_time = 0
        return _SetupWalker(cid, msg, list(path))

    # Circuit 1 holds the contended segment; W blocks behind it.
    seg.holder = 1
    w = walker(2)
    net._advance(w)
    assert list(seg.waiters) == [w]

    # Teardown frees the segment and wakes W — but thief V's same-cycle
    # _advance runs first and acquires it (greedy re-arbitration).
    seg.holder = None
    seg.waiters.clear()                # W popped by the teardown wakeup
    v = walker(3)
    net._advance(v)
    assert seg.holder == v.cid

    # A later same-pair circuit X queues before W's re-attempt lands...
    x = walker(4)
    net._advance(x)
    # ...so W, re-attempting, joins the FIFO *behind* X: same-pair reorder.
    net._advance(w)
    assert list(seg.waiters) == [x, w]


# ------------------------------------------- empirical backend behaviour
@pytest.mark.parametrize("topology", ["awgr", "swmr_crossbar", "crossbar"])
def test_in_order_backends_capture_strict_fifo_traces(topology):
    """Every backend claiming in_order_channels produces captures that
    survive the strict check on a real workload."""
    s = Scenario("prodcons", 16, 3, 0.1, "electrical", topology,
                 wavelengths=32)
    _, trace, _ = run_execution_driven(s.experiment(), "prodcons",
                                       "optical", scale=0.1)
    assert trace is not None and len(trace) > 100
    strict = [v for v in inv.check_trace(trace, strict_fifo=True)
              if "strict FIFO" in v.message]
    assert strict == []
