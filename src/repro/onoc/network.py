"""Factory for optical networks."""

from __future__ import annotations

from typing import Union

from repro.config import OnocConfig
from repro.engine import Simulator
from repro.onoc.awgr import OpticalAwgr
from repro.onoc.circuit import CircuitSwitchedMesh
from repro.onoc.crossbar import OpticalCrossbar
from repro.onoc.swmr import OpticalSwmrCrossbar

OpticalNetwork = Union[OpticalCrossbar, CircuitSwitchedMesh,
                       OpticalSwmrCrossbar, OpticalAwgr]

_TOPOLOGY_CLASSES = {
    cls.topology: cls
    for cls in (OpticalCrossbar, CircuitSwitchedMesh, OpticalSwmrCrossbar,
                OpticalAwgr)
}


def build_optical_network(
    sim: Simulator,
    cfg: OnocConfig,
    keep_per_message_latency: bool = False,
) -> OpticalNetwork:
    """Instantiate the optical network selected by ``cfg.topology``."""
    cls = _TOPOLOGY_CLASSES.get(cfg.topology)
    if cls is None:
        raise ValueError(f"unknown optical topology {cfg.topology!r}")
    return cls(sim, cfg, keep_per_message_latency)


def topology_in_order_channels(topology: str) -> bool:
    """Whether the named optical topology guarantees per-(src, dst) FIFO
    delivery (its class-level ``in_order_channels`` capability flag)."""
    cls = _TOPOLOGY_CLASSES.get(topology)
    if cls is None:
        raise ValueError(f"unknown optical topology {topology!r}")
    return cls.in_order_channels
