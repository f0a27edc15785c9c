"""Factory for optical networks."""

from __future__ import annotations

from repro.config import OnocConfig
from repro.engine import Simulator
from repro.onoc.awgr import OpticalAwgr
from repro.onoc.circuit import CircuitSwitchedMesh
from repro.onoc.crossbar import OpticalCrossbar
from repro.onoc.entity import OpticalEntity
from repro.onoc.swmr import OpticalSwmrCrossbar

#: Every optical backend, in Table 5's row order.
BACKENDS = (OpticalCrossbar, OpticalSwmrCrossbar, OpticalAwgr,
            CircuitSwitchedMesh)

_TOPOLOGY_CLASSES = {cls.topology: cls for cls in BACKENDS}


def backend_class(topology: str) -> type[OpticalEntity]:
    """The optical backend class ``topology`` names."""
    cls = _TOPOLOGY_CLASSES.get(topology)
    if cls is None:
        raise ValueError(f"unknown optical topology {topology!r}")
    return cls


def build_optical_network(sim: Simulator, cfg: OnocConfig) -> OpticalEntity:
    """Instantiate the optical network selected by ``cfg.topology``."""
    return backend_class(cfg.topology)(sim, cfg)


def topology_in_order_channels(topology: str) -> bool:
    """Whether the named optical topology guarantees per-(src, dst) FIFO
    delivery (its class-level ``in_order_channels`` capability flag)."""
    return backend_class(topology).in_order_channels
