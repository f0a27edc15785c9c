"""Electrical-network integration tests: delivery, latency, invariants."""

from __future__ import annotations

import pytest

from repro.config import NocConfig
from repro.engine import Simulator
from repro.net import Message
from repro.noc import ElectricalNetwork


def run_messages(cfg: NocConfig, sends, seed=1):
    """sends: list of (time, src, dst, size). Returns (net, delivered list)."""
    sim = Simulator(seed=seed)
    net = ElectricalNetwork(sim, cfg)
    done: list[Message] = []
    net.set_delivery_handler(done.append)
    for t, s, d, size in sends:
        sim.schedule(t, net.send, (Message(s, d, size),))
    sim.run()
    return net, done


def test_single_message_minimum_latency():
    cfg = NocConfig()
    # 1 hop: NI->router link (1) + router pipeline (3) + SA/ST + link (1)
    # + downstream pipeline + ejection link; exact value is a contract.
    net, done = run_messages(cfg, [(0, 0, 1, 16)])
    assert len(done) == 1
    lat = done[0].latency
    # Analytical lower bound: 2 routers * (router_latency + 1 ST cycle... )
    hops = 1
    lower = cfg.link_latency + (hops + 1) * cfg.router_latency + hops * cfg.link_latency + cfg.link_latency
    assert lat >= lower
    assert lat < lower + 10  # and no mysterious stalls for a lone packet


def test_latency_scales_with_distance():
    cfg = NocConfig()
    _, d1 = run_messages(cfg, [(0, 0, 1, 16)])
    _, d2 = run_messages(cfg, [(0, 0, 15, 16)])
    assert d2[0].latency > d1[0].latency


def test_latency_scales_with_size():
    cfg = NocConfig()
    _, small = run_messages(cfg, [(0, 0, 5, 16)])
    _, big = run_messages(cfg, [(0, 0, 5, 160)])
    # 10 flits vs 1 flit: ~9 extra serialization cycles
    assert big[0].latency >= small[0].latency + 9


def test_all_pairs_delivery_mesh():
    cfg = NocConfig()
    sends = [(0, s, d, 32) for s in range(16) for d in range(16) if s != d]
    net, done = run_messages(cfg, sends)
    assert len(done) == 240
    assert net.quiescent()


@pytest.mark.parametrize("cfg", [
    NocConfig(num_vcs=4, vc_depth=2),
    NocConfig(width=2, height=2),
    NocConfig(width=8, height=2),
    NocConfig(width=8, height=1),
    NocConfig(width=1, height=8, num_vcs=1),
], ids=["4vc", "2x2", "8x2", "8x1", "1x8-1vc"])
def test_all_pairs_delivery_variants(cfg):
    n = cfg.num_nodes
    sends = [(0, s, d, 64) for s in range(n) for d in range(n) if s != d]
    net, done = run_messages(cfg, sends)
    assert len(done) == len(sends)
    assert net.quiescent()


def test_heavy_random_load_drains():
    cfg = NocConfig()
    import numpy as np

    rng = np.random.default_rng(3)
    sends = []
    for i in range(600):
        s = int(rng.integers(0, 16))
        d = int(rng.integers(0, 16))
        if s != d:
            sends.append((int(rng.integers(0, 200)), s, d,
                          int(rng.integers(8, 128))))
    net, done = run_messages(cfg, sends)
    assert len(done) == len(sends)
    assert net.stats.in_flight() == 0


def test_flit_accounting():
    cfg = NocConfig(flit_bytes=16)
    net, done = run_messages(cfg, [(0, 0, 5, 72), (0, 3, 9, 8)])
    assert net.stats.flits_delivered == 5 + 1
    assert net.stats.bytes_delivered == 80


def test_hop_count_stats():
    cfg = NocConfig()
    net, _ = run_messages(cfg, [(0, 0, 15, 16)])
    assert net.stats.hop_count.mean == 6  # manhattan distance in 4x4


def test_self_send_rejected():
    sim = Simulator()
    net = ElectricalNetwork(sim, NocConfig())
    with pytest.raises(ValueError, match="self-send"):
        net.send(Message(3, 3, 8))


def test_out_of_range_rejected():
    sim = Simulator()
    net = ElectricalNetwork(sim, NocConfig())
    with pytest.raises(ValueError, match="out of range"):
        net.send(Message(0, 99, 8))


def test_determinism_same_seed_identical_latencies():
    cfg = NocConfig()
    sends = [(i % 40, i % 16, (i * 7 + 1) % 16, 48) for i in range(100)
             if i % 16 != (i * 7 + 1) % 16]
    _, d1 = run_messages(cfg, sends, seed=5)
    _, d2 = run_messages(cfg, sends, seed=5)
    # Message ids are globally monotone, so compare delivery order and
    # per-message timing instead of raw ids.
    sig1 = [(m.src, m.dst, m.inject_time, m.deliver_time) for m in d1]
    sig2 = [(m.src, m.dst, m.inject_time, m.deliver_time) for m in d2]
    assert sig1 == sig2


def test_wormhole_ordering_same_flow():
    """Two packets of one src->dst flow deliver in injection order."""
    cfg = NocConfig()
    sim = Simulator(seed=1)
    net = ElectricalNetwork(sim, cfg)
    order = []
    for k in range(6):
        m = Message(0, 15, 64, payload=k, on_delivery=lambda m: order.append(m.payload))
        sim.schedule(k, net.send, (m,))
    sim.run()
    assert order == sorted(order)


def test_queueing_delay_recorded_under_burst():
    cfg = NocConfig()
    sends = [(0, 0, 15, 160) for _ in range(8)]   # 8 big packets same flow
    net, done = run_messages(cfg, sends)
    assert len(done) == 8
    assert net.stats.queueing_delay.max > 0  # later packets waited at the NI


def test_backpressure_bounds_buffer_occupancy():
    """Credit flow control must never overflow any input VC."""
    cfg = NocConfig(vc_depth=2, num_vcs=2)
    sim = Simulator(seed=2)
    net = ElectricalNetwork(sim, cfg)
    overflow_seen = []

    def check():
        for r in net.routers:
            for pv in r.input_vcs:
                for ivc in pv:
                    if len(ivc.flits) > cfg.vc_depth:
                        overflow_seen.append((r.node, ivc.port, ivc.vc))

    for i in range(200):
        s, d = i % 16, (i * 5 + 2) % 16
        if s != d:
            sim.schedule(i // 4, net.send, (Message(s, d, 96),))
    for t in range(0, 400, 7):
        sim.schedule(t, check)
    sim.run()
    assert not overflow_seen
    assert net.quiescent()


def test_wake_from_inside_a_tick_reaches_the_next_tick():
    """A component woken by another's cycle() is cycled one tick later —
    the wake must not land in the active set the running tick discards."""
    sim = Simulator()
    net = ElectricalNetwork(sim, NocConfig())
    cycled = []

    class Stub:
        def __init__(self, key, then=None):
            self.key = key
            self.then = then

        def cycle(self, now):
            cycled.append((sim.now, self.key))
            if self.then is not None:
                net.wake(self.then)
            return False

    first = Stub(1001, then=Stub(1000))
    sim.schedule(5, net.wake, (first,))
    sim.run()
    assert cycled == [(5, 1001), (6, 1000)]
    assert net.quiescent()


def test_quiescent_waits_for_the_last_credits():
    """A lone message's last credits are still in flight when its delivery
    handler runs: the network is not quiescent then, only once they land."""
    sim = Simulator()
    net = ElectricalNetwork(sim, NocConfig())
    seen = []
    net.set_delivery_handler(lambda m: seen.append((sim.now, net.quiescent())))
    sim.schedule(0, net.send, (Message(0, 15, 64),))
    sim.run()
    assert seen == [(32, False)]
    assert net.quiescent()
