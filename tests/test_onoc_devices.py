"""Photonic device census, layout and loss-budget tests."""

from __future__ import annotations

import math

import pytest

from repro.config import OnocConfig, PhotonicDeviceConfig
from repro.onoc import (
    LossBudget,
    SerpentineLayout,
    crossbar_ring_census,
    mesh_ring_census,
)
from repro.onoc.devices import mesh_link_length_cm
from repro.onoc.loss import db_to_mw


# ----------------------------------------------------------------- census
def test_crossbar_census_counts():
    c = crossbar_ring_census(16, 64)
    assert c.modulator_rings == 16 * 15 * 64
    assert c.detector_rings == 16 * 64
    assert c.switch_rings == 0
    assert c.total == c.modulator_rings + c.detector_rings


def test_mesh_census_counts():
    c = mesh_ring_census(16, 64, rings_per_switch_point=2)
    assert c.modulator_rings == 16 * 64
    assert c.detector_rings == 16 * 64
    assert c.switch_rings == 16 * 4 * 2 * 64


def test_census_validation():
    with pytest.raises(ValueError):
        crossbar_ring_census(1, 64)
    with pytest.raises(ValueError):
        mesh_ring_census(16, 0)
    with pytest.raises(ValueError):
        mesh_ring_census(16, 4, rings_per_switch_point=0)


# ----------------------------------------------------------------- layout
def test_serpentine_positions_monotone():
    layout = SerpentineLayout(OnocConfig())
    pos = [layout.position_cm(n) for n in range(16)]
    assert pos == sorted(pos)
    assert pos[0] == 0.0
    assert pos[-1] < layout.total_length_cm


def test_serpentine_distance_directional():
    layout = SerpentineLayout(OnocConfig())
    d_fwd = layout.distance_cm(0, 1)
    d_back = layout.distance_cm(1, 0)
    assert d_fwd > 0 and d_back > 0
    assert d_fwd + d_back == pytest.approx(layout.total_length_cm)


def test_serpentine_ring_hops():
    layout = SerpentineLayout(OnocConfig())
    assert layout.ring_hops(0, 1) == 1
    assert layout.ring_hops(1, 0) == 15
    assert layout.ring_hops(5, 5) == 16  # full loop back to self


def test_serpentine_node_range():
    layout = SerpentineLayout(OnocConfig())
    with pytest.raises(ValueError):
        layout.position_cm(16)


def test_mesh_link_length_positive():
    assert mesh_link_length_cm(OnocConfig(topology="circuit_mesh")) > 0


# ----------------------------------------------------------------- losses
def test_db_mw_roundtrip():
    for dbm in (-20.0, 0.0, 3.0, 10.0):
        assert 10.0 * math.log10(db_to_mw(dbm)) == pytest.approx(dbm)


def test_path_loss_components_sum():
    b = LossBudget(OnocConfig())
    pl = b.path_loss(distance_cm=2.0, rings_passed=10, splitters=1,
                     bends=4, couplers=2)
    total = (pl.waveguide_db + pl.ring_through_db + pl.drop_db
             + pl.couplers_db + pl.splitters_db + pl.bends_db
             + pl.detector_db)
    assert pl.total_db == pytest.approx(total)
    dev = PhotonicDeviceConfig()
    assert pl.waveguide_db == pytest.approx(2.0 * dev.waveguide_loss_db_cm)
    assert pl.ring_through_db == pytest.approx(10 * dev.ring_through_loss_db)


def test_path_loss_validation():
    b = LossBudget(OnocConfig())
    with pytest.raises(ValueError):
        b.path_loss(-1.0, 0)
    with pytest.raises(ValueError):
        b.path_loss(1.0, -1)


def test_loss_monotone_in_distance_and_rings():
    b = LossBudget(OnocConfig())
    assert b.path_loss(4.0, 5).total_db > b.path_loss(2.0, 5).total_db
    assert b.path_loss(2.0, 10).total_db > b.path_loss(2.0, 5).total_db


def test_required_laser_power_formula():
    cfg = OnocConfig()
    b = LossBudget(cfg)
    dev = cfg.devices
    dbm = b.required_laser_dbm_per_wavelength(10.0)
    assert dbm == pytest.approx(dev.detector_sensitivity_dbm + 10.0
                                + dev.power_margin_db)
    with pytest.raises(ValueError):
        b.required_laser_dbm_per_wavelength(-1.0)


def test_wallplug_scales_with_channels_and_wavelengths():
    b = LossBudget(OnocConfig())
    base = b.laser_wallplug_mw(10.0, 1, 1)
    assert b.laser_wallplug_mw(10.0, 2, 1) == pytest.approx(2 * base)
    assert b.laser_wallplug_mw(10.0, 1, 4) == pytest.approx(4 * base)
    with pytest.raises(ValueError):
        b.laser_wallplug_mw(10.0, 0)


def test_architecture_worst_losses_positive_and_ordered():
    cfg = OnocConfig()
    b = LossBudget(cfg)
    xbar = b.crossbar_worst_loss_db()
    assert xbar > 0
    mesh_cfg = OnocConfig(topology="circuit_mesh")
    mesh = LossBudget(mesh_cfg).mesh_worst_loss_db()
    assert mesh > 0
    # The serpentine loop is much longer than the mesh diameter.
    assert xbar > mesh
