"""Energy-model tests."""

from __future__ import annotations

import pytest

from repro.config import NocConfig, OnocConfig
from repro.engine import Simulator
from repro.net import Message
from repro.noc import ElectricalNetwork
from repro.onoc import build_optical_network
from repro.power import (
    ElectricalEnergyConfig,
    EnergyReport,
    electrical_energy_report,
    optical_energy_report,
)


def run_elec(n_msgs=50, cfg=None):
    sim = Simulator(seed=1)
    net = ElectricalNetwork(sim, cfg or NocConfig())
    for i in range(n_msgs):
        s, d = i % 16, (i * 7 + 3) % 16
        if s != d:
            sim.schedule(i, net.send, (Message(s, d, 64),))
    sim.run()
    return net, sim.now


def run_opt(topology="crossbar", n_msgs=50):
    sim = Simulator(seed=1)
    nodes = 16
    net = build_optical_network(sim, OnocConfig(topology=topology,
                                                num_nodes=nodes))
    for i in range(n_msgs):
        s, d = i % nodes, (i * 7 + 3) % nodes
        if s != d:
            sim.schedule(i, net.send, (Message(s, d, 64),))
    sim.run()
    return net, sim.now


# ------------------------------------------------------------ EnergyReport
def test_report_arithmetic():
    r = EnergyReport("x", duration_cycles=2000, clock_ghz=2.0,
                     static_mw={"a": 10.0}, dynamic_pj={"b": 500.0})
    assert r.duration_ns == 1000.0
    assert r.static_energy_pj == 10_000.0
    assert r.total_energy_uj == pytest.approx(10_500e-6)
    assert r.avg_power_mw == pytest.approx(10.5)


def test_report_zero_duration():
    r = EnergyReport("x", duration_cycles=0, clock_ghz=2.0)
    assert r.avg_power_mw == 0.0


def test_report_validation():
    with pytest.raises(ValueError):
        EnergyReport("x", duration_cycles=-1, clock_ghz=2.0)
    with pytest.raises(ValueError):
        EnergyReport("x", duration_cycles=1, clock_ghz=0.0)


def test_energy_config_validation():
    with pytest.raises(ValueError):
        ElectricalEnergyConfig(link_pj=-1)


# --------------------------------------------------------------- electrical
def test_electrical_dynamic_scales_with_traffic():
    net_lo, t_lo = run_elec(10)
    net_hi, t_hi = run_elec(200)
    r_lo = electrical_energy_report(net_lo, t_lo)
    r_hi = electrical_energy_report(net_hi, t_hi)
    assert r_hi.total_dynamic_pj > r_lo.total_dynamic_pj


def test_electrical_static_independent_of_traffic():
    net_lo, t = run_elec(10)
    net_hi, _ = run_elec(200)
    r_lo = electrical_energy_report(net_lo, t)
    r_hi = electrical_energy_report(net_hi, t)
    assert r_lo.total_static_mw == r_hi.total_static_mw


def test_electrical_zero_traffic_zero_dynamic():
    sim = Simulator(seed=1)
    net = ElectricalNetwork(sim, NocConfig())
    r = electrical_energy_report(net, 1000)
    assert r.total_dynamic_pj == 0.0
    assert r.total_static_mw > 0.0


def test_electrical_components_present():
    net, t = run_elec(50)
    r = electrical_energy_report(net, t)
    assert set(r.dynamic_pj) == {"buffers", "crossbar", "arbitration", "links"}
    assert all(v > 0 for v in r.dynamic_pj.values())


# ----------------------------------------------------------------- optical
def test_optical_crossbar_report():
    net, t = run_opt("crossbar")
    r = optical_energy_report(net, t)
    assert r.static_mw["laser"] > 0
    assert r.static_mw["ring_tuning"] > 0
    assert r.dynamic_pj["modulation"] > 0
    assert r.dynamic_pj["control_plane"] == 0.0


def test_optical_circuit_mesh_counts_control_plane():
    net, t = run_opt("circuit_mesh")
    r = optical_energy_report(net, t)
    assert r.dynamic_pj["control_plane"] > 0


def test_optical_static_dominates_at_low_load():
    """The known ONOC energy-proportionality problem: lasers + tuning burn
    power regardless of traffic."""
    net, t = run_opt("crossbar", n_msgs=5)
    r = optical_energy_report(net, t)
    assert r.static_energy_pj > r.total_dynamic_pj


def test_optical_modulation_scales_with_bits():
    net_lo, t = run_opt("crossbar", n_msgs=10)
    net_hi, _ = run_opt("crossbar", n_msgs=200)
    r_lo = optical_energy_report(net_lo, t)
    r_hi = optical_energy_report(net_hi, t)
    assert r_hi.dynamic_pj["modulation"] > r_lo.dynamic_pj["modulation"]


def test_optical_report_reads_the_backend_class_facts():
    """A backend the power model has never heard of is priced from the
    facts its class states; nothing in repro.power names a backend."""
    from repro.onoc.devices import RingCensus
    from repro.onoc.entity import FifoChannelNetwork

    class ToyBackend(FifoChannelNetwork):
        topology = "crossbar"           # borrows the crossbar's timing
        power_label = "toy"

        @classmethod
        def ring_census(cls, cfg):
            return RingCensus(modulator_rings=10, detector_rings=0,
                              switch_rings=0)

        @classmethod
        def worst_loss_db(cls, cfg):
            return 0.0

        @classmethod
        def laser_channels(cls, cfg):
            return 1

        def control_plane_pj(self, ecfg):
            return 7.0

    cfg = OnocConfig(num_nodes=16)
    sim = Simulator(seed=1)
    net = ToyBackend(sim, cfg)
    sim.schedule(0, net.send, (Message(0, 5, 64),))
    sim.run()
    r = optical_energy_report(net, sim.now)
    dev = cfg.devices
    assert r.name == "optical_toy_16n"
    assert r.static_mw["ring_tuning"] == 10 * dev.ring_tuning_uw * 1e-3
    assert r.static_mw["laser"] == pytest.approx(
        10 ** ((dev.detector_sensitivity_dbm + dev.power_margin_db) / 10)
        * cfg.num_wavelengths / dev.laser_efficiency)
    assert r.dynamic_pj["modulation"] == 64 * 8 * dev.modulation_pj_bit
    assert r.dynamic_pj["control_plane"] == 7.0


def test_as_row_shape():
    net, t = run_elec(20)
    row = electrical_energy_report(net, t).as_row()
    assert set(row) == {"network", "static_mw", "dynamic_pj", "total_uj", "avg_mw"}
