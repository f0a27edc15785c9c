"""Area-model tests."""

from __future__ import annotations

import pytest

from repro.config import NocConfig, OnocConfig
from repro.onoc import awgr_ring_census, crossbar_ring_census, mesh_ring_census
from repro.power import AreaConfig, AreaReport, electrical_area, optical_area


def test_area_config_validation():
    with pytest.raises(ValueError):
        AreaConfig(ring_mm2=-1)


def test_report_total_is_component_sum():
    rep = AreaReport("x", {"a": 1.0, "b": 2.5})
    assert rep.total_mm2 == 3.5
    row = rep.as_row()
    assert row["total_mm2"] == 3.5 and row["a"] == 1.0


def test_electrical_area_positive_components():
    rep = electrical_area(NocConfig())
    assert set(rep.components) == {"buffers", "crossbars", "links"}
    assert all(v > 0 for v in rep.components.values())


def test_electrical_area_scales_with_buffers():
    small = electrical_area(NocConfig(num_vcs=2, vc_depth=4))
    big = electrical_area(NocConfig(num_vcs=4, vc_depth=8))
    assert big.components["buffers"] == pytest.approx(
        4 * small.components["buffers"])


def test_electrical_area_grows_with_network():
    small = electrical_area(NocConfig(width=2, height=2))
    big = electrical_area(NocConfig(width=8, height=8))
    assert big.total_mm2 > small.total_mm2


@pytest.mark.parametrize("w,h,links", [(4, 4, 48), (8, 1, 14), (1, 1, 0)])
def test_electrical_area_counts_directed_mesh_links(w, h, links):
    rep = electrical_area(NocConfig(width=w, height=h), link_mm=1.0)
    assert rep.components["links"] == pytest.approx(
        links * AreaConfig().link_mm2_per_mm)
    assert rep.name == f"electrical_mesh_{w}x{h}"


def test_optical_area_ring_count_dominates_mwsr():
    cfg = OnocConfig()
    rep = optical_area(cfg, crossbar_ring_census(16, 64))
    assert rep.components["rings"] > rep.components["waveguides"]


def test_optical_area_awgr_smaller_than_mwsr():
    cfg = OnocConfig()
    mwsr = optical_area(cfg, crossbar_ring_census(16, 64))
    awgr = optical_area(OnocConfig(topology="awgr"),
                        awgr_ring_census(16, 64))
    assert awgr.total_mm2 < mwsr.total_mm2


def test_optical_area_circuit_mesh():
    cfg = OnocConfig(topology="circuit_mesh")
    rep = optical_area(cfg, mesh_ring_census(16, 64))
    assert rep.total_mm2 > 0
