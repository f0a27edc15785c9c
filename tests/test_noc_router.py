"""Direct router-level unit tests: VC allocation, credits, XY routes.

These poke the Router through the real network wiring but observe its
internal state between cycles — complementing the end-to-end tests in
test_noc_network.py.
"""

from __future__ import annotations

import pytest

from repro.config import NocConfig
from repro.engine import Simulator
from repro.net import Message
from repro.noc import ElectricalNetwork
from repro.noc.flit import Packet
from repro.noc.router import EJECT_CREDITS
from repro.noc.topology import EAST, LOCAL, WEST


def make_net(cfg=None, seed=1):
    sim = Simulator(seed=seed)
    return sim, ElectricalNetwork(sim, cfg or NocConfig())


def test_initial_credits_match_buffer_depth():
    cfg = NocConfig(num_vcs=3, vc_depth=5)
    _, net = make_net(cfg)
    r = net.routers[5]
    for port in range(1, net.topo.num_ports):
        assert r.credits[port] == [5, 5, 5]
    assert r.credits[LOCAL] == [EJECT_CREDITS] * 3


def test_credits_conserved_after_drain():
    """After the network drains, every credit must be back home."""
    cfg = NocConfig(num_vcs=2, vc_depth=4)
    sim, net = make_net(cfg)
    for i in range(60):
        s, d = i % 16, (i * 5 + 2) % 16
        if s != d:
            sim.schedule(i, net.send, (Message(s, d, 96),))
    sim.run()
    assert net.quiescent()
    for r in net.routers:
        for port in range(1, net.topo.num_ports):
            if net.topo.neighbor(r.node, port) is not None:
                assert r.credits[port] == [cfg.vc_depth] * cfg.num_vcs, (
                    f"router {r.node} port {port} leaked credits"
                )
        assert r.credits[LOCAL] == [EJECT_CREDITS] * cfg.num_vcs
    for ni in net.nis:
        assert ni.credits == [cfg.vc_depth] * cfg.num_vcs


def test_output_vc_released_after_tail():
    sim, net = make_net()
    sim.schedule(0, net.send, (Message(0, 3, 64),))
    sim.run()
    for r in net.routers:
        for port_alloc in r.out_alloc:
            assert all(a is None for a in port_alloc)


def test_input_vc_state_reset_after_packet():
    sim, net = make_net()
    sim.schedule(0, net.send, (Message(0, 3, 64),))
    sim.run()
    for r in net.routers:
        for port_vcs in r.input_vcs:
            for ivc in port_vcs:
                assert not ivc.flits
                assert ivc.route_out is None and ivc.out_vc is None


def test_flits_routed_counter():
    sim, net = make_net()
    sim.schedule(0, net.send, (Message(0, 1, 64),))  # 4 flits, 1 hop
    sim.run()
    # Flits traverse router 0 (to EAST) and router 1 (to LOCAL).
    assert net.routers[0].flits_routed == 4
    assert net.routers[1].flits_routed == 4
    assert sum(r.flits_routed for r in net.routers) == 8


def test_link_flit_counters_follow_xy_route():
    sim, net = make_net()
    sim.schedule(0, net.send, (Message(0, 5, 16),))  # (0,0)->(1,1), XY
    sim.run()
    # XY: east first (0 -> 1), then north (1 -> 5).
    assert net.link_flits.get((0, EAST)) == 1
    assert (1, WEST) not in net.link_flits
    assert sum(net.link_flits.values()) == 2  # two inter-router hops


def test_va_takes_the_lowest_empty_output_vc():
    cfg = NocConfig(num_vcs=4)
    _, net = make_net(cfg)
    r0 = net.routers[0]
    # Toward node 1 the XY port is EAST.  VC 0 is owned, VC 1 still holds
    # a flit downstream (allocation is atomic), so VA must take VC 2.
    r0.out_alloc[EAST][0] = (WEST, 0)
    r0.credits[EAST][1] = cfg.vc_depth - 1
    ivc = r0.input_vcs[LOCAL][0]
    ivc.flits.extend(Packet(0, 1, 1).make_flits())
    r0._waiting = 1
    assert r0._try_vc_alloc(ivc)
    assert (ivc.route_out, ivc.out_vc) == (EAST, 2)
    assert r0.out_alloc[EAST][2] == (LOCAL, 0)
    assert r0._waiting == 0


def test_single_flit_packet_is_head_and_tail():
    sim, net = make_net()
    done = []
    net.set_delivery_handler(done.append)
    sim.schedule(0, net.send, (Message(0, 15, 8),))  # 1 flit
    sim.run()
    assert len(done) == 1


def test_buffered_flits_zero_after_drain():
    sim, net = make_net()
    for i in range(30):
        if i % 16 != (i * 3 + 1) % 16:
            sim.schedule(i, net.send, (Message(i % 16, (i * 3 + 1) % 16, 48),))
    sim.run()
    assert all(r.buffered_flits() == 0 for r in net.routers)


def test_local_input_overflow_raises_like_any_port():
    """The NI holds vc_depth credits per VC like any upstream router, so a
    flit beyond that on LOCAL is a broken credit protocol, not a longer
    queue."""
    cfg = NocConfig()
    sim, net = make_net(cfg)
    r = net.routers[0]
    for flit in Packet(0, 1, cfg.vc_depth + 1).make_flits():
        net._landing[1].append((r, LOCAL, 0, flit))
    with pytest.raises(RuntimeError, match=r"input \(0,0\) overflow"):
        sim.run()
    assert r._buffered == cfg.vc_depth


def test_unready_flits_skip_switch_allocation_not_vc_allocation():
    """The SA walk is gated on a flit that has cleared the pipeline: a router
    holding only younger flits grants nothing and keeps its SA pointer, while
    VA still allocates that cycle."""
    sim, net = make_net()
    r = net.routers[0]
    r._sa_rr = 7
    for flit in Packet(0, 1, 2).make_flits():
        net._landing[1].append((r, LOCAL, 0, flit))
    sim.run(until=1)
    ivc = r.input_vcs[LOCAL][0]
    assert (r._buffered, r._ready, list(r._arrivals)) == (2, 0, [4, 4])
    assert ivc.route_out == EAST and ivc.out_vc is not None
    assert r.flits_routed == 0 and r._sa_rr == 7
    sim.run(until=4)    # the head clears the pipeline: slot 0, three steps on
    assert (r.flits_routed, r._sa_rr, r._ready) == (1, 1, 1)
