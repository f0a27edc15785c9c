"""Routing function: current node + destination -> output port.

XY dimension order on the mesh: all of the x offset first, then y.  The
route is minimal, and dimension order is deadlock-free with any VC count.
"""

from __future__ import annotations

from repro.noc.topology import EAST, LOCAL, NORTH, SOUTH, Topology, WEST


def route_port(topo: Topology, cur: int, dst: int) -> int:
    """The XY route's output port at ``cur``, or LOCAL to eject."""
    if cur == dst:
        return LOCAL
    a, b = topo.coords[cur], topo.coords[dst]
    if b.x > a.x:
        return EAST
    if b.x < a.x:
        return WEST
    return NORTH if b.y > a.y else SOUTH
