"""Corona-style MWSR optical crossbar with token arbitration.

Every node *reads* one dedicated home WDM channel and may *write* any other
node's channel after acquiring that channel's optical token, which circulates
the serpentine waveguide.  The model is event-driven at message granularity —
no per-cycle simulation is needed because a granted transmission is a
contention-free circuit:

    wait for token (arbitration)  ->  E/O  ->  serialize  ->  propagate  ->  O/E

Per-channel arbitration is a FIFO queue with token-travel gaps: when writer
B is granted after writer A, the token first travels A -> B along the ring
(``ring_hops * token_hop_cycles``).  This captures the first-order behaviour
of token-channel arbitration (single writer at a time per channel, positional
grant latency) without simulating individual wavelengths.
"""

from __future__ import annotations

from repro.config import ONOC_CROSSBAR, OnocConfig
from repro.onoc.devices import RingCensus, crossbar_ring_census
from repro.onoc.entity import FifoChannelNetwork
from repro.onoc.loss import LossBudget


class OpticalCrossbar(FifoChannelNetwork):
    """MWSR WDM crossbar implementing :class:`repro.net.NetworkAdapter`:
    one token-arbitrated FIFO channel per destination (the token's travel
    is :class:`~repro.onoc.timing.CrossbarTiming`'s ``token_travel``)."""

    topology = ONOC_CROSSBAR
    power_label = "crossbar"

    @classmethod
    def ring_census(cls, cfg: OnocConfig) -> RingCensus:
        return crossbar_ring_census(cfg.num_nodes, cfg.num_wavelengths)

    @classmethod
    def worst_loss_db(cls, cfg: OnocConfig) -> float:
        return LossBudget(cfg).crossbar_worst_loss_db()
