"""Post-run electrical-NoC analysis: link utilisation and hotspots.

Turns the network's raw per-link flit counters into the standard
characterisation artifacts: a utilisation matrix, the hottest links, load
imbalance (max/mean), and a bisection-traffic estimate — the numbers an
architect reads before deciding where an optical layer would pay off.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.noc.network import ElectricalNetwork
from repro.noc.topology import EAST, NORTH, SOUTH, WEST

_PORT_NAMES = {NORTH: "N", EAST: "E", SOUTH: "S", WEST: "W"}


@dataclass(frozen=True)
class LinkLoad:
    """Utilisation of one directed link."""

    src_node: int
    out_port: int
    port_name: str
    flits: int
    utilization: float      # flits per cycle over the observation window

    def label(self) -> str:
        return f"{self.src_node}->{self.port_name}"


@dataclass(frozen=True)
class LinkReport:
    """Aggregate link statistics for one run."""

    cycles: int
    links: list[LinkLoad]
    mean_utilization: float
    max_utilization: float
    imbalance: float            # max / mean (1.0 = perfectly even)
    bisection_flits: int        # flits crossing the vertical mid-cut

    def hottest(self, k: int = 5) -> list[LinkLoad]:
        return sorted(self.links, key=lambda ld: -ld.flits)[:k]


def analyze_links(net: ElectricalNetwork, cycles: int) -> LinkReport:
    """Build a :class:`LinkReport` from a finished run.

    ``cycles`` is the observation window (normally the run's exec time).
    """
    if cycles <= 0:
        raise ValueError(f"cycles must be > 0, got {cycles}")
    loads = [
        LinkLoad(src_node=node, out_port=port,
                 port_name=_PORT_NAMES[port], flits=flits,
                 utilization=flits / cycles)
        for (node, port), flits in sorted(net.link_flits.items())
    ]
    utils = [ld.utilization for ld in loads]
    mean_u = sum(utils) / len(utils) if utils else 0.0
    max_u = max(utils, default=0.0)

    # Bisection estimate: flits on east/west links crossing the mid column.
    bisection = 0
    mid = net.cfg.width // 2
    for (node, port), flits in net.link_flits.items():
        x = node % net.cfg.width
        if (port == EAST and x == mid - 1) or (port == WEST and x == mid):
            bisection += flits
    return LinkReport(
        cycles=cycles,
        links=loads,
        mean_utilization=mean_u,
        max_utilization=max_u,
        imbalance=(max_u / mean_u) if mean_u > 0 else 0.0,
        bisection_flits=bisection,
    )
