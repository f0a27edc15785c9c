"""Topology descriptions: node coordinates, ports, neighbour wiring.

Port numbering is fixed per topology family so routing functions can use
plain integers in the hot path:

* mesh / torus: ``LOCAL=0, NORTH=1, EAST=2, SOUTH=3, WEST=4``
  (x grows east, y grows north; node id = ``y * width + x``)
* ring: ``LOCAL=0, CW=1, CCW=2`` (clockwise = increasing id)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config import MESH, NocConfig, RING, TORUS

LOCAL = 0
NORTH = 1
EAST = 2
SOUTH = 3
WEST = 4

CW = 1
CCW = 2

_OPPOSITE_MESH = {NORTH: SOUTH, SOUTH: NORTH, EAST: WEST, WEST: EAST}
_OPPOSITE_RING = {CW: CCW, CCW: CW}


@dataclass(frozen=True)
class Coord:
    """2-D mesh coordinate."""

    x: int
    y: int


class Topology:
    """Static wiring of a NoC: who connects to whom through which port."""

    def __init__(self, cfg: NocConfig) -> None:
        self.cfg = cfg
        self.kind = cfg.topology
        self.width = cfg.width
        self.height = cfg.height
        self.num_nodes = cfg.num_nodes
        if self.kind == RING:
            self.num_ports = 3
        else:
            self.num_ports = 5
        # neighbour[node][port] = (neighbour_node, neighbour_input_port) or None
        self._neighbors: list[list[Optional[tuple[int, int]]]] = [
            [None] * self.num_ports for _ in range(self.num_nodes)
        ]
        self._wire()
        #: ``coords[node]`` is the node's :class:`Coord`, built once; route
        #: computation indexes it directly (``coord()`` adds the range check).
        self.coords = [
            Coord(node % self.width, node // self.width)
            for node in range(self.num_nodes)
        ]

    # ------------------------------------------------------------- wiring
    def _wire(self) -> None:
        if self.kind in (MESH, TORUS):
            for node in range(self.num_nodes):
                x, y = node % self.width, node // self.width
                for port, (dx, dy) in (
                    (NORTH, (0, 1)),
                    (EAST, (1, 0)),
                    (SOUTH, (0, -1)),
                    (WEST, (-1, 0)),
                ):
                    nx_, ny_ = x + dx, y + dy
                    if self.kind == TORUS:
                        nx_ %= self.width
                        ny_ %= self.height
                    elif not (0 <= nx_ < self.width and 0 <= ny_ < self.height):
                        continue
                    # A 1-wide dimension would wire a node to itself on a
                    # torus; skip those degenerate links.
                    neighbor = ny_ * self.width + nx_
                    if neighbor == node:
                        continue
                    self._neighbors[node][port] = (neighbor, _OPPOSITE_MESH[port])
        else:  # ring
            n = self.num_nodes
            for node in range(n):
                if n > 1:
                    self._neighbors[node][CW] = ((node + 1) % n, CCW)
                    self._neighbors[node][CCW] = ((node - 1) % n, CW)

    # ------------------------------------------------------------ queries
    def coord(self, node: int) -> Coord:
        """Mesh/torus coordinate of ``node``."""
        self._check_node(node)
        return self.coords[node]

    def node_at(self, x: int, y: int) -> int:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"coordinate ({x},{y}) outside {self.width}x{self.height}")
        return y * self.width + x

    def neighbor(self, node: int, port: int) -> Optional[tuple[int, int]]:
        """``(neighbour_node, neighbour_input_port)`` or None at an edge."""
        self._check_node(node)
        if not (0 <= port < self.num_ports):
            raise ValueError(f"port {port} out of range for {self.kind}")
        return self._neighbors[node][port]

    def output_ports(self, node: int) -> list[int]:
        """Non-LOCAL ports with a live link, ascending."""
        return [p for p in range(1, self.num_ports)
                if self._neighbors[node][p] is not None]

    def min_hops(self, src: int, dst: int) -> int:
        """Minimal hop count between routers (0 if src == dst)."""
        self._check_node(src)
        self._check_node(dst)
        if src == dst:
            return 0
        if self.kind == MESH:
            a, b = self.coord(src), self.coord(dst)
            return abs(a.x - b.x) + abs(a.y - b.y)
        if self.kind == TORUS:
            a, b = self.coord(src), self.coord(dst)
            dx = abs(a.x - b.x)
            dy = abs(a.y - b.y)
            return min(dx, self.width - dx) + min(dy, self.height - dy)
        # ring
        d = abs(src - dst)
        return min(d, self.num_nodes - d)

    def _check_node(self, node: int) -> None:
        if not (0 <= node < self.num_nodes):
            raise ValueError(f"node {node} out of range [0, {self.num_nodes})")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Topology({self.kind}, {self.width}x{self.height})"
