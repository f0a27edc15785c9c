"""Silicon/photonic area estimates (DSENT-class coarse model).

Area is the third axis (after performance and energy) of the 2012-era ONOC
comparisons.  Constants are round published ballparks for ~45 nm electronics
and first-generation silicon photonics; as with the energy model, only
relative magnitudes between architectures are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import NocConfig, OnocConfig
from repro.onoc.devices import RingCensus
from repro.onoc.network import backend_class


@dataclass(frozen=True)
class AreaConfig:
    """Per-component footprints."""

    # Electrical (mm^2 / um^2-scale aggregates, 45 nm-ish)
    router_buffer_mm2_per_flit: float = 0.0006   # per buffered flit slot
    router_crossbar_mm2_per_port2: float = 0.0004  # scales with ports^2
    link_mm2_per_mm: float = 0.004               # repeated wires, per mm run
    # Photonic
    ring_mm2: float = 0.0001                      # 10 um ring + tuner
    waveguide_mm2_per_mm: float = 0.0005          # pitch-limited strip
    coupler_mm2: float = 0.01

    def __post_init__(self) -> None:
        for name in ("router_buffer_mm2_per_flit", "router_crossbar_mm2_per_port2",
                     "link_mm2_per_mm", "ring_mm2", "waveguide_mm2_per_mm",
                     "coupler_mm2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class AreaReport:
    """Component breakdown in mm^2."""

    name: str
    components: dict

    @property
    def total_mm2(self) -> float:
        return sum(self.components.values())

    def as_row(self) -> dict:
        return {
            "network": self.name,
            **{k: round(v, 3) for k, v in self.components.items()},
            "total_mm2": round(self.total_mm2, 3),
        }


def electrical_area(cfg: NocConfig, area_cfg: AreaConfig | None = None,
                    link_mm: float = 2.0) -> AreaReport:
    """Electrical mesh area: 5-port routers' buffers + crossbars + links."""
    a = area_cfg or AreaConfig()
    n = cfg.num_nodes
    ports = 5
    buffers = n * ports * cfg.num_vcs * cfg.vc_depth * a.router_buffer_mm2_per_flit
    crossbars = n * ports * ports * a.router_crossbar_mm2_per_port2
    # Count directed links once per direction.
    links = 2 * (cfg.width - 1) * cfg.height + 2 * (cfg.height - 1) * cfg.width
    link_area = links * link_mm * a.link_mm2_per_mm
    return AreaReport(
        name=f"electrical_{cfg.topology}_{cfg.width}x{cfg.height}",
        components={"buffers": buffers, "crossbars": crossbars,
                    "links": link_area},
    )


def optical_area(cfg: OnocConfig, census: RingCensus,
                 area_cfg: AreaConfig | None = None) -> AreaReport:
    """Optical network area: rings + waveguides + couplers, the waveguide
    length stated by the backend class ``cfg.topology`` names."""
    a = area_cfg or AreaConfig()
    rings = census.total * a.ring_mm2
    wg_mm = backend_class(cfg.topology).waveguide_cm(cfg) * 10.0
    waveguides = wg_mm * a.waveguide_mm2_per_mm
    couplers = 2 * a.coupler_mm2   # on/off chip laser coupling
    return AreaReport(
        name=f"optical_{cfg.topology}_{cfg.num_nodes}n",
        components={"rings": rings, "waveguides": waveguides,
                    "couplers": couplers},
    )
