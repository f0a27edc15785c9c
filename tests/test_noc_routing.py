"""Routing-function tests: minimality, dimension order, live ports."""

from __future__ import annotations

import pytest

from repro.config import NocConfig
from repro.noc.routing import route_port
from repro.noc.topology import EAST, LOCAL, NORTH, SOUTH, Topology, WEST


def mesh(w=4, h=4):
    return Topology(NocConfig(width=w, height=h))


def walk(topo, src, dst, max_steps=64):
    """Follow route_port until ejection; returns hop count."""
    cur, hops = src, 0
    while True:
        port = route_port(topo, cur, dst)
        if port == LOCAL:
            return hops
        nb = topo.neighbor(cur, port)
        assert nb is not None, f"routed off-chip at {cur} port {port}"
        cur = nb[0]
        hops += 1
        assert hops <= max_steps, "routing loop"


def test_mesh_routes_are_minimal():
    t = mesh()
    for s in range(16):
        for d in range(16):
            assert walk(t, s, d) == t.min_hops(s, d)


@pytest.mark.parametrize("w,h", [(9, 1), (1, 9)])
def test_line_routes_are_minimal(w, h):
    t = mesh(w, h)
    for s in range(9):
        for d in range(9):
            assert walk(t, s, d) == t.min_hops(s, d) == abs(s - d)


def test_xy_goes_x_first():
    t = mesh()
    # from (0,0) to (2,2): the first hop is EAST, and once x matches, NORTH
    assert route_port(t, 0, 2 * 4 + 2) == EAST
    assert route_port(t, 2, 2 * 4 + 2) == NORTH
    # from (3,3) to (1,0): WEST first, then SOUTH
    assert route_port(t, 15, 1) == WEST
    assert route_port(t, 13, 1) == SOUTH


def test_route_to_self_is_local():
    t = mesh()
    assert route_port(t, 5, 5) == LOCAL


def test_route_port_uses_live_ports():
    t = mesh(3, 3)
    for s in range(9):
        for d in range(9):
            if s != d:
                assert t.neighbor(s, route_port(t, s, d)) is not None
