"""Routing functions: current node + destination -> output port(s).

All algorithms are *minimal*.  Deadlock freedom:

* mesh XY/YX — dimension order, deadlock-free with any VC count.
* mesh adaptive — minimal-adaptive on VCs >= 1 with XY as the escape path on
  VC 0 (Duato's protocol); see :mod:`repro.noc.router` for the VC discipline.
* torus / ring — dimension order plus dateline VC classes (packets switch
  from VC class 0 to class 1 when crossing the wrap link), handled by the
  router; this module only picks directions.
"""

from __future__ import annotations

from repro.config import MESH, RING, ROUTING_YX, TORUS
from repro.noc.topology import CCW, CW, EAST, LOCAL, NORTH, SOUTH, Topology, WEST


def _mesh_dx_dy(topo: Topology, cur: int, dst: int) -> tuple[int, int]:
    """Signed hop deltas; for torus, the shorter way around each dimension.

    Ties (exactly half-way around) break toward the positive direction.
    """
    a, b = topo.coords[cur], topo.coords[dst]
    dx = b.x - a.x
    dy = b.y - a.y
    if topo.kind == TORUS:
        w, h = topo.width, topo.height
        if abs(dx) > w // 2 or (abs(dx) == w - abs(dx) and dx < 0):
            dx = dx - w if dx > 0 else dx + w
        if abs(dy) > h // 2 or (abs(dy) == h - abs(dy) and dy < 0):
            dy = dy - h if dy > 0 else dy + h
    return dx, dy


def productive_ports(topo: Topology, cur: int, dst: int) -> list[int]:
    """All output ports on a minimal path (empty list means: eject here)."""
    if cur == dst:
        return []
    if topo.kind == RING:
        n = topo.num_nodes
        fwd = (dst - cur) % n
        if fwd < n - fwd:
            return [CW]
        if fwd > n - fwd:
            return [CCW]
        return [CW, CCW]  # equidistant
    dx, dy = _mesh_dx_dy(topo, cur, dst)
    ports: list[int] = []
    if dx > 0:
        ports.append(EAST)
    elif dx < 0:
        ports.append(WEST)
    if dy > 0:
        ports.append(NORTH)
    elif dy < 0:
        ports.append(SOUTH)
    return ports


def route_port(topo: Topology, algorithm: str, cur: int, dst: int) -> int:
    """Deterministic (escape-path) route: one output port, or LOCAL to eject.

    For the adaptive algorithm this returns the XY escape route; the router
    consults :func:`productive_ports` separately for the adaptive candidates.
    """
    if cur == dst:
        return LOCAL
    if topo.kind == RING:
        return productive_ports(topo, cur, dst)[0]
    if topo.kind in (MESH, TORUS):
        dx, dy = _mesh_dx_dy(topo, cur, dst)
        if algorithm == ROUTING_YX:
            if dy > 0:
                return NORTH
            if dy < 0:
                return SOUTH
            return EAST if dx > 0 else WEST
        # XY order (also the escape path for adaptive)
        if dx > 0:
            return EAST
        if dx < 0:
            return WEST
        return NORTH if dy > 0 else SOUTH
    raise ValueError(f"no routing for topology {topo.kind!r}")


def crosses_dateline(topo: Topology, cur: int, port: int) -> bool:
    """True if leaving ``cur`` through ``port`` wraps around a dimension.

    Wrap links are where torus/ring cyclic dependencies close; packets
    crossing one move to the second dateline VC class.
    """
    if topo.kind == MESH:
        return False
    nb = topo.neighbor(cur, port)
    if nb is None:
        return False
    if topo.kind == RING:
        n = topo.num_nodes
        return (port == CW and cur == n - 1) or (port == CCW and cur == 0)
    x, y = cur % topo.width, cur // topo.width
    return (
        (port == EAST and x == topo.width - 1)
        or (port == WEST and x == 0)
        or (port == NORTH and y == topo.height - 1)
        or (port == SOUTH and y == 0)
    )
