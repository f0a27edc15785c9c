"""Path-adaptive opto-electronic hybrid NoC (extension).

Implements the research direction the same authors published the year after
this paper ("A Path-Adaptive Opto-electronic Hybrid NoC for Chip
Multi-processor", ISPA 2013): both an electrical mesh layer and an optical
layer span the whole chip, and each message picks a layer by the distance to
its destination — short-haul traffic stays on the cheap electrical mesh,
long-haul traffic takes the distance-insensitive optical medium.

The hybrid is itself a :class:`repro.net.NetworkAdapter`, so workloads and
traces run on it unchanged; its statistics are the union of the two layers
plus the routing-decision counters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import NocConfig, OnocConfig
from repro.engine import Simulator
from repro.net import Message, NetworkBase
from repro.noc import ElectricalNetwork
from repro.noc.topology import Topology
from repro.onoc.network import build_optical_network


@dataclass(frozen=True)
class HybridConfig:
    """Layer configs plus the path-adaptive threshold.

    Messages whose minimal electrical hop count is >= ``optical_threshold``
    ride the optical layer.  Threshold 0 sends everything optical; a
    threshold above the network diameter sends everything electrical.
    """

    noc: NocConfig
    onoc: OnocConfig
    optical_threshold: int = 3

    def __post_init__(self) -> None:
        if self.noc.num_nodes != self.onoc.num_nodes:
            raise ValueError(
                f"layer size mismatch: electrical {self.noc.num_nodes} vs "
                f"optical {self.onoc.num_nodes}"
            )
        if self.optical_threshold < 0:
            raise ValueError(
                f"optical_threshold must be >= 0, got {self.optical_threshold}"
            )


class HybridNetwork(NetworkBase):
    """Distance-adaptive two-layer interconnect.

    Messages on one (src, dst) pair always take the same layer (routing is
    by hop distance), but the electrical layer itself reorders, so the
    hybrid cannot promise in-order channels.
    """

    def __init__(self, sim: Simulator, cfg: HybridConfig) -> None:
        super().__init__(sim, cfg.noc.num_nodes, cfg.noc.flit_bytes)
        self.cfg = cfg
        self.electrical = ElectricalNetwork(sim, cfg.noc)
        self.optical = build_optical_network(sim, cfg.onoc)
        self.topo = Topology(cfg.noc)
        self.sent_electrical = 0
        self.sent_optical = 0
        # Layer delivery funnels into the hybrid's own accounting.
        self.electrical.set_delivery_handler(self._on_layer_delivery)
        self.optical.set_delivery_handler(self._on_layer_delivery)

    # ----------------------------------------------------------- routing
    def _inject(self, msg: Message) -> None:
        if self.route_optical(msg.src, msg.dst):
            self.sent_optical += 1
            self.optical.send(msg)
        else:
            self.sent_electrical += 1
            self.electrical.send(msg)

    def route_optical(self, src: int, dst: int) -> bool:
        """The path-adaptive decision: optical iff the electrical route is
        at least ``optical_threshold`` hops."""
        return self.topo.min_hops(src, dst) >= self.cfg.optical_threshold

    # ---------------------------------------------------------- delivery
    def _on_layer_delivery(self, msg: Message) -> None:
        self._count_delivery(msg, self.topo.min_hops(msg.src, msg.dst))
        # The layer stamped the message and fired its own callback; only
        # the hybrid-level global handler remains.
        if self._delivery_handler is not None:
            self._delivery_handler(msg)

    # ------------------------------------------------------------ queries
    def quiescent(self) -> bool:
        return self.electrical.quiescent() and self.optical.quiescent()

    @property
    def optical_fraction(self) -> float:
        """Fraction of sent messages that took the optical layer."""
        total = self.sent_electrical + self.sent_optical
        return self.sent_optical / total if total else 0.0
