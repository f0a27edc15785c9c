"""Mesh description: node coordinates, ports, neighbour wiring.

Port numbering is fixed so the routing function can use plain integers in
the hot path: ``LOCAL=0, NORTH=1, EAST=2, SOUTH=3, WEST=4`` (x grows east,
y grows north; node id = ``y * width + x``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config import NocConfig

LOCAL = 0
NORTH = 1
EAST = 2
SOUTH = 3
WEST = 4

_OPPOSITE = {NORTH: SOUTH, SOUTH: NORTH, EAST: WEST, WEST: EAST}


@dataclass(frozen=True)
class Coord:
    """2-D mesh coordinate."""

    x: int
    y: int


class Topology:
    """Static wiring of the mesh: who connects to whom through which port."""

    num_ports = 5

    def __init__(self, cfg: NocConfig) -> None:
        self.cfg = cfg
        self.width = cfg.width
        self.height = cfg.height
        self.num_nodes = cfg.num_nodes
        #: ``coords[node]`` is the node's :class:`Coord`, built once; route
        #: computation indexes it directly (``coord()`` adds the range check).
        self.coords = [
            Coord(node % self.width, node // self.width)
            for node in range(self.num_nodes)
        ]
        # neighbour[node][port] = (neighbour_node, neighbour_input_port) or None
        self._neighbors: list[list[Optional[tuple[int, int]]]] = [
            [None] * self.num_ports for _ in range(self.num_nodes)
        ]
        for node, c in enumerate(self.coords):
            for port, (dx, dy) in (
                (NORTH, (0, 1)),
                (EAST, (1, 0)),
                (SOUTH, (0, -1)),
                (WEST, (-1, 0)),
            ):
                nx_, ny_ = c.x + dx, c.y + dy
                if 0 <= nx_ < self.width and 0 <= ny_ < self.height:
                    self._neighbors[node][port] = (ny_ * self.width + nx_,
                                                   _OPPOSITE[port])

    # ------------------------------------------------------------ queries
    def coord(self, node: int) -> Coord:
        """Mesh coordinate of ``node``."""
        self._check_node(node)
        return self.coords[node]

    def neighbor(self, node: int, port: int) -> Optional[tuple[int, int]]:
        """``(neighbour_node, neighbour_input_port)`` or None at an edge."""
        self._check_node(node)
        if not (0 <= port < self.num_ports):
            raise ValueError(f"port {port} out of range for the mesh")
        return self._neighbors[node][port]

    def output_ports(self, node: int) -> list[int]:
        """Non-LOCAL ports with a live link, ascending."""
        return [p for p in range(1, self.num_ports)
                if self._neighbors[node][p] is not None]

    def min_hops(self, src: int, dst: int) -> int:
        """Minimal hop count between routers: the Manhattan distance."""
        a, b = self.coord(src), self.coord(dst)
        return abs(a.x - b.x) + abs(a.y - b.y)

    def _check_node(self, node: int) -> None:
        if not (0 <= node < self.num_nodes):
            raise ValueError(f"node {node} out of range [0, {self.num_nodes})")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Topology(mesh, {self.width}x{self.height})"
