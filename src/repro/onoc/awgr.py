"""Passive wavelength-routed all-to-all (AWGR / λ-router).

A fully passive optical interconnect (Koka et al. style): an arrayed
waveguide grating router gives every (source, destination) pair a dedicated
wavelength subset, so there is **no arbitration anywhere** — the trade is
bandwidth: each of the N-1 point-to-point lanes from a source gets only
``num_wavelengths / (N-1)`` wavelengths, so serialization takes (N-1)× as
long as on a full crossbar channel.  Contention exists only *within* one
(src, dst) lane, where messages serialize FIFO.

Ideal for coherence-style many-small-message traffic; poor for bulk
transfers — the opposite corner of the design space from the MWSR crossbar,
which is what makes it a useful third point for the trace model's
design-space-exploration story.
"""

from __future__ import annotations

from repro.config import ONOC_AWGR, OnocConfig
from repro.onoc.devices import RingCensus
from repro.onoc.entity import FifoChannelNetwork
from repro.onoc.loss import LossBudget


def awgr_ring_census(num_nodes: int, num_wavelengths: int) -> RingCensus:
    """AWGR: modulator + detector banks per node; the routing fabric itself
    is passive (no switched or arbitration rings)."""
    if num_nodes < 2 or num_wavelengths < 1:
        raise ValueError("need >= 2 nodes and >= 1 wavelength")
    return RingCensus(
        modulator_rings=num_nodes * num_wavelengths,
        detector_rings=num_nodes * num_wavelengths,
        switch_rings=0,
    )


class OpticalAwgr(FifoChannelNetwork):
    """Passive λ-router implementing :class:`repro.net.NetworkAdapter`:
    one FIFO lane per (src, dst) pair, whose λ subset serves a single
    message at a time."""

    topology = ONOC_AWGR
    power_label = "awgr"

    @classmethod
    def ring_census(cls, cfg: OnocConfig) -> RingCensus:
        return awgr_ring_census(cfg.num_nodes, cfg.num_wavelengths)

    @classmethod
    def worst_loss_db(cls, cfg: OnocConfig) -> float:
        return LossBudget(cfg).awgr_worst_loss_db()
