"""SWMR crossbar and passive AWGR tests (extension architectures)."""

from __future__ import annotations

import pytest

from repro.config import ConfigError, OnocConfig
from repro.engine import Simulator
from repro.net import Message
from repro.onoc import (
    OpticalAwgr,
    OpticalSwmrCrossbar,
    awgr_ring_census,
    build_optical_network,
    swmr_ring_census,
)
from repro.power import optical_energy_report
from repro.system import FullSystem, build_workload
from repro.config import SystemConfig


def run(net_cls, sends, cfg=None, seed=1):
    sim = Simulator(seed=seed)
    net = net_cls(sim, cfg or OnocConfig())
    done = []
    net.set_delivery_handler(done.append)
    for t, s, d, size in sends:
        sim.schedule(t, net.send, (Message(s, d, size),))
    sim.run()
    return net, done


# ------------------------------------------------------------------- SWMR
def test_swmr_no_arbitration_latency():
    cfg = OnocConfig(topology="swmr_crossbar")
    net, done = run(OpticalSwmrCrossbar, [(0, 0, 1, 72)], cfg)
    m = done[0]
    ser = cfg.serialization_cycles(72)
    prop = cfg.propagation_cycles(net.layout.distance_cm(0, 1))
    # No token travel: just serialize + propagate + convert.
    assert m.latency == ser + prop + 2 * cfg.conversion_cycles


def test_swmr_source_fanout_serializes():
    """One writer bursting to many destinations serializes on its channel —
    the mirror image of MWSR's destination hotspot."""
    cfg = OnocConfig(topology="swmr_crossbar")
    sends = [(0, 0, d, 720) for d in range(1, 9)]
    net, done = run(OpticalSwmrCrossbar, sends, cfg)
    lats = sorted(m.latency for m in done)
    ser = cfg.serialization_cycles(720)
    assert lats[-1] >= 7 * ser  # eighth message waited for seven serializations


def test_swmr_destination_fanin_parallel():
    """Many writers to one destination do NOT serialize (each uses its own
    channel) — the opposite of the MWSR crossbar."""
    cfg = OnocConfig(topology="swmr_crossbar")
    sends = [(0, s, 15, 720) for s in range(8)]
    _, done = run(OpticalSwmrCrossbar, sends, cfg)
    lats = [m.latency for m in done]
    ser = cfg.serialization_cycles(720)
    # every message finishes within ~one serialization + propagation
    assert max(lats) < 2 * ser + 60


def test_swmr_census():
    c = swmr_ring_census(16, 64)
    assert c.modulator_rings == 16 * 64
    assert c.detector_rings == 16 * 15 * 64
    with pytest.raises(ValueError):
        swmr_ring_census(1, 64)


def test_swmr_factory_and_power():
    cfg = OnocConfig(topology="swmr_crossbar")
    sim = Simulator(seed=1)
    net = build_optical_network(sim, cfg)
    assert isinstance(net, OpticalSwmrCrossbar)
    sim.schedule(0, net.send, (Message(0, 1, 72),))
    sim.run()
    rep = optical_energy_report(net, sim.now)
    assert rep.static_mw["laser"] > 0
    assert "swmr" in rep.name


# ------------------------------------------------------------------- AWGR
def test_awgr_requires_enough_wavelengths():
    with pytest.raises(ConfigError, match="awgr"):
        OnocConfig(topology="awgr", num_nodes=16, num_wavelengths=8)


def test_awgr_no_contention_across_pairs():
    cfg = OnocConfig(topology="awgr")
    sends = [(0, s, (s + 1) % 16, 720) for s in range(16) if s != (s + 1) % 16]
    net, done = run(OpticalAwgr, sends, cfg)
    lats = [m.latency for m in done]
    # all disjoint (src,dst) pairs: zero queueing anywhere
    assert net.stats.queueing_delay.max == 0
    assert len(done) == len(sends)


def test_awgr_lane_serialization_slower_than_crossbar():
    cfg = OnocConfig(topology="awgr")
    sim = Simulator(seed=1)
    net = OpticalAwgr(sim, cfg)
    # 64 λ / 15 lanes = 4 λ per lane -> 16x slower than the full channel.
    assert net.timing.lanes_per_pair == 4
    assert net.timing.serialization(720) > cfg.serialization_cycles(720)


def test_awgr_same_pair_fifo():
    cfg = OnocConfig(topology="awgr")
    sim = Simulator(seed=1)
    net = OpticalAwgr(sim, cfg)
    order = []
    for k in range(4):
        m = Message(0, 1, 720, payload=k,
                    on_delivery=lambda m: order.append(m.payload))
        sim.schedule(0, net.send, (m,))
    sim.run()
    assert order == [0, 1, 2, 3]
    assert net.quiescent()


def test_awgr_census_passive():
    c = awgr_ring_census(16, 64)
    assert c.switch_rings == 0
    assert c.total == 2 * 16 * 64


def test_awgr_factory_and_power():
    cfg = OnocConfig(topology="awgr")
    sim = Simulator(seed=1)
    net = build_optical_network(sim, cfg)
    assert isinstance(net, OpticalAwgr)
    sim.schedule(0, net.send, (Message(0, 5, 72),))
    sim.run()
    rep = optical_energy_report(net, sim.now)
    assert "awgr" in rep.name
    # passive fabric: far fewer rings to tune than the MWSR crossbar
    from repro.onoc import crossbar_ring_census

    assert (awgr_ring_census(16, 64).total
            < crossbar_ring_census(16, 64).total)


# -------------------------------------------------------- full-system runs
@pytest.mark.parametrize("topology", ["swmr_crossbar", "awgr"])
def test_full_system_runs_on_extension_networks(topology):
    cfg = OnocConfig(topology=topology)
    progs = build_workload("randshare", 16, seed=7)
    sim = Simulator(seed=7)
    net = build_optical_network(sim, cfg)
    system = FullSystem(sim, SystemConfig(), net, progs)
    res = system.run(max_cycles=10_000_000)
    assert res.exec_time_cycles > 0
    assert res.messages > 0
