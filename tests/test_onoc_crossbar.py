"""Optical MWSR crossbar behaviour tests."""

from __future__ import annotations

import pytest

from repro.config import OnocConfig
from repro.engine import Simulator
from repro.net import Message
from repro.onoc import OpticalCrossbar


def run(sends, cfg=None, seed=1):
    sim = Simulator(seed=seed)
    net = OpticalCrossbar(sim, cfg or OnocConfig())
    done = []
    net.set_delivery_handler(done.append)
    for t, s, d, size in sends:
        sim.schedule(t, net.send, (Message(s, d, size),))
    sim.run()
    return net, done


def test_single_message_latency_decomposition():
    cfg = OnocConfig()
    net, done = run([(0, 0, 1, 72)], cfg)
    m = done[0]
    ser = cfg.serialization_cycles(72)
    prop = cfg.propagation_cycles(net.layout.distance_cm(0, 1))
    # Token starts parked at the reader (node 1): it travels 1 -> 0, i.e.
    # 15 ring hops of optical propagation.
    travel = cfg.propagation_cycles(15 * net.layout.spacing_cm)
    assert m.latency == travel + ser + prop + 2 * cfg.conversion_cycles


def test_token_travel_zero_when_parked_at_writer():
    cfg = OnocConfig()
    sim = Simulator(seed=1)
    net = OpticalCrossbar(sim, cfg)
    ch = net.channels[3]
    ch.token_at = 5
    assert net.timing.token_travel(ch.token_at, 5) == 0
    assert net.timing.token_travel(ch.token_at, 6) >= 1


def test_token_electrical_overhead_knob():
    slow = OnocConfig(token_hop_cycles=4)
    _, done_fast = run([(0, 0, 1, 72)], OnocConfig())
    _, done_slow = run([(0, 0, 1, 72)], slow)
    assert done_slow[0].latency > done_fast[0].latency


def test_token_parks_at_last_writer():
    cfg = OnocConfig()
    sim = Simulator(seed=1)
    net = OpticalCrossbar(sim, cfg)
    done = []
    net.set_delivery_handler(done.append)
    sim.schedule(0, net.send, (Message(5, 1, 72),))
    sim.run()
    first = done[0].latency
    # Second message from the same writer: token already parked at node 5.
    sim.schedule(sim.now + 100, net.send, (Message(5, 1, 72),))
    sim.run()
    second = done[1].latency
    assert second < first


def test_per_channel_serialization_queueing():
    cfg = OnocConfig()
    # Two simultaneous writers to one destination serialize on its channel.
    net, done = run([(0, 2, 9, 720), (0, 4, 9, 720)], cfg)
    lats = sorted(m.latency for m in done)
    assert lats[1] > lats[0]  # second waited for the channel
    assert net.stats.queueing_delay.max > 0


def test_different_channels_do_not_interfere():
    cfg = OnocConfig()
    _, alone = run([(0, 0, 8, 72)], cfg)
    _, shared = run([(0, 0, 8, 72), (0, 1, 9, 72), (0, 2, 10, 72)], cfg)
    lat_alone = alone[0].latency
    lat_shared = next(m.latency for m in shared if m.dst == 8)
    assert lat_shared == lat_alone


def test_bandwidth_affects_serialization():
    slow = OnocConfig(num_wavelengths=1)
    fast = OnocConfig(num_wavelengths=64)
    _, d_slow = run([(0, 0, 1, 1024)], slow)
    _, d_fast = run([(0, 0, 1, 1024)], fast)
    assert d_slow[0].latency > d_fast[0].latency


def test_stats_accounting():
    net, done = run([(0, 0, 1, 72), (0, 3, 7, 8)])
    assert net.stats.messages_delivered == 2
    assert net.stats.bytes_delivered == 80
    assert net.bits_transmitted == 80 * 8
    assert net.quiescent()


def test_self_send_rejected():
    sim = Simulator()
    net = OpticalCrossbar(sim, OnocConfig())
    with pytest.raises(ValueError, match="self-send"):
        net.send(Message(2, 2, 8))


def test_fifo_order_per_channel():
    order = []
    sim = Simulator(seed=1)
    net = OpticalCrossbar(sim, OnocConfig())
    for k in range(5):
        m = Message(k, 15, 720, payload=k,
                    on_delivery=lambda m: order.append(m.payload))
        sim.schedule(k, net.send, (m,))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_hotspot_saturates_single_channel():
    """All nodes hammering one destination: total service time is at least
    the sum of serializations (single reader limit)."""
    cfg = OnocConfig()
    sim = Simulator(seed=1)
    net = OpticalCrossbar(sim, cfg)
    done = []
    net.set_delivery_handler(done.append)
    writers = [n for n in range(16) if n != 0]
    for n in writers:
        sim.schedule(0, net.send, (Message(n, 0, 720),))
    sim.run()
    ser = cfg.serialization_cycles(720)
    assert sim.now >= len(writers) * ser
