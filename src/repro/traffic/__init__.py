"""Synthetic traffic generation for network characterisation (Fig. 3)."""

from repro import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "PATTERNS": "repro.traffic.patterns",
    "bit_complement": "repro.traffic.patterns",
    "bit_reverse": "repro.traffic.patterns",
    "hotspot": "repro.traffic.patterns",
    "neighbor": "repro.traffic.patterns",
    "tornado": "repro.traffic.patterns",
    "transpose": "repro.traffic.patterns",
    "uniform_random": "repro.traffic.patterns",
    "SyntheticTrafficGenerator": "repro.traffic.generator",
    "TrafficResult": "repro.traffic.generator",
    "run_synthetic": "repro.traffic.generator",
})

__all__ = [
    "PATTERNS",
    "SyntheticTrafficGenerator",
    "TrafficResult",
    "bit_complement",
    "bit_reverse",
    "hotspot",
    "neighbor",
    "run_synthetic",
    "tornado",
    "transpose",
    "uniform_random",
]
