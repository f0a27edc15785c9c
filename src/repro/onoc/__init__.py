"""Optical Network-on-Chip data plane.

Two 2012-era ONOC architectures are provided behind the same
:class:`repro.net.NetworkAdapter` interface as the electrical baseline:

* :class:`~repro.onoc.crossbar.OpticalCrossbar` — a Corona-style MWSR
  (multiple-writer single-reader) WDM crossbar on a serpentine waveguide with
  optical token-channel arbitration.
* :class:`~repro.onoc.circuit.CircuitSwitchedMesh` — a circuit-switched
  photonic mesh with an electrical control plane that reserves microring
  switch points hop-by-hop (Phastlane/path-setup style).

Every backend's per-message arithmetic (serialization, propagation, resource
key, token travel, setup walk) lives once, in :mod:`repro.onoc.timing`; the
event entities here and the vectorized engine in
:mod:`repro.core.generational` both read it.  The physical layer
(insertion-loss budget, laser power, ring census) lives in
:mod:`repro.onoc.devices` and :mod:`repro.onoc.loss`.
"""

from repro import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "OpticalAwgr": "repro.onoc.awgr",
    "awgr_ring_census": "repro.onoc.awgr",
    "CircuitSwitchedMesh": "repro.onoc.circuit",
    "OpticalCrossbar": "repro.onoc.crossbar",
    "RingCensus": "repro.onoc.devices",
    "SerpentineLayout": "repro.onoc.devices",
    "crossbar_ring_census": "repro.onoc.devices",
    "mesh_ring_census": "repro.onoc.devices",
    "HybridConfig": "repro.onoc.hybrid",
    "HybridNetwork": "repro.onoc.hybrid",
    "LossBudget": "repro.onoc.loss",
    "build_optical_network": "repro.onoc.network",
    "topology_in_order_channels": "repro.onoc.network",
    "OpticalSwmrCrossbar": "repro.onoc.swmr",
    "swmr_ring_census": "repro.onoc.swmr",
    "timing_for": "repro.onoc.timing",
})

__all__ = [
    "CircuitSwitchedMesh",
    "HybridConfig",
    "HybridNetwork",
    "LossBudget",
    "OpticalAwgr",
    "OpticalCrossbar",
    "OpticalSwmrCrossbar",
    "RingCensus",
    "SerpentineLayout",
    "awgr_ring_census",
    "build_optical_network",
    "crossbar_ring_census",
    "mesh_ring_census",
    "swmr_ring_census",
    "timing_for",
    "topology_in_order_channels",
]
