"""Firefly-style SWMR (single-writer multiple-reader) optical crossbar.

The dual of the Corona MWSR design: every *source* owns a home WDM channel
that it alone modulates — so there is **no write arbitration at all** — and
every other node holds detector banks on that channel.  The costs move
elsewhere:

* a writer can address only one destination at a time (its channel is a
  single resource), so *fan-out bursts from one source* serialize, the
  mirror image of MWSR's hotspot-destination serialization;
* all N-1 potential readers must either burn N-1 full detector banks per
  channel (Firefly's "reservation-assisted" variants exist precisely to cut
  this) — reflected here in the ring census and hence tuning power.

Event-driven at message granularity like the MWSR model: a granted
transmission is a contention-free circuit.
"""

from __future__ import annotations

from repro.config import ONOC_SWMR, OnocConfig
from repro.onoc.devices import RingCensus
from repro.onoc.entity import FifoChannelNetwork
from repro.onoc.loss import LossBudget


def swmr_ring_census(num_nodes: int, num_wavelengths: int) -> RingCensus:
    """SWMR: one modulator bank per source channel, a detector bank per
    (channel, reader) pair."""
    if num_nodes < 2 or num_wavelengths < 1:
        raise ValueError("need >= 2 nodes and >= 1 wavelength")
    return RingCensus(
        modulator_rings=num_nodes * num_wavelengths,
        detector_rings=num_nodes * (num_nodes - 1) * num_wavelengths,
        switch_rings=0,
    )


class OpticalSwmrCrossbar(FifoChannelNetwork):
    """SWMR WDM crossbar implementing :class:`repro.net.NetworkAdapter`:
    one FIFO channel per source.  No arbitration — the writer owns the
    channel, so consecutive messages from one source serialize back to
    back."""

    topology = ONOC_SWMR
    power_label = "swmr"

    @classmethod
    def ring_census(cls, cfg: OnocConfig) -> RingCensus:
        return swmr_ring_census(cfg.num_nodes, cfg.num_wavelengths)

    @classmethod
    def worst_loss_db(cls, cfg: OnocConfig) -> float:
        return LossBudget(cfg).swmr_worst_loss_db()
