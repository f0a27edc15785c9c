"""Topology wiring tests: neighbours, symmetry, distances."""

from __future__ import annotations

from collections import deque

import pytest

from repro.config import NocConfig
from repro.noc.topology import CCW, CW, EAST, NORTH, SOUTH, Topology, WEST


def mesh(w=4, h=4):
    return Topology(NocConfig(width=w, height=h))


def torus(w=4, h=4):
    return Topology(NocConfig(topology="torus", width=w, height=h))


def ring(n=8):
    return Topology(NocConfig(topology="ring", width=n, height=1))


def test_mesh_edges_have_no_wrap():
    t = mesh()
    assert t.neighbor(0, WEST) is None
    assert t.neighbor(0, SOUTH) is None
    assert t.neighbor(3, EAST) is None
    assert t.neighbor(12, NORTH) is None


def test_mesh_interior_neighbors():
    t = mesh()
    node = t.node_at(1, 1)  # 5
    assert t.neighbor(node, EAST) == (t.node_at(2, 1), WEST)
    assert t.neighbor(node, NORTH) == (t.node_at(1, 2), SOUTH)
    assert t.neighbor(node, WEST) == (t.node_at(0, 1), EAST)
    assert t.neighbor(node, SOUTH) == (t.node_at(1, 0), NORTH)


def test_torus_wraps():
    t = torus()
    assert t.neighbor(0, WEST) == (3, EAST)
    assert t.neighbor(0, SOUTH) == (12, NORTH)
    assert t.neighbor(15, EAST) == (12, WEST)


def test_ring_wiring():
    t = ring(5)
    assert t.neighbor(4, CW) == (0, CCW)
    assert t.neighbor(0, CCW) == (4, CW)
    assert t.num_ports == 3


def test_neighbor_symmetry_all_topologies():
    for t in (mesh(3, 5), torus(4, 4), ring(6)):
        for node in range(t.num_nodes):
            for port in t.output_ports(node):
                nbr, in_port = t.neighbor(node, port)
                back = t.neighbor(nbr, in_port)
                assert back == (node, port), (t.kind, node, port)


def test_coord_roundtrip():
    t = mesh(5, 3)
    for node in range(t.num_nodes):
        c = t.coord(node)
        assert t.node_at(c.x, c.y) == node


def test_min_hops_mesh_is_manhattan():
    t = mesh()
    assert t.min_hops(0, 15) == 6
    assert t.min_hops(0, 0) == 0
    assert t.min_hops(0, 3) == 3
    assert t.min_hops(5, 10) == t.min_hops(10, 5)


def test_min_hops_torus_uses_wrap():
    t = torus()
    assert t.min_hops(0, 3) == 1       # wrap west
    assert t.min_hops(0, 12) == 1      # wrap south
    assert t.min_hops(0, 15) == 2


def test_min_hops_ring():
    t = ring(8)
    assert t.min_hops(0, 1) == 1
    assert t.min_hops(0, 7) == 1
    assert t.min_hops(0, 4) == 4


def bfs_hops(t, src):
    """Hop count from ``src`` to every node, by breadth-first search over
    ``Topology.neighbor`` (an independent reference for ``min_hops``)."""
    dist = {src: 0}
    frontier = deque([src])
    while frontier:
        node = frontier.popleft()
        for port in range(1, t.num_ports):
            link = t.neighbor(node, port)
            if link is not None and link[0] not in dist:
                dist[link[0]] = dist[node] + 1
                frontier.append(link[0])
    return dist


def test_min_hops_matches_bfs():
    for t in (mesh(4, 4), torus(4, 4), ring(8)):
        for s in range(t.num_nodes):
            sp = bfs_hops(t, s)
            for d in range(t.num_nodes):
                assert t.min_hops(s, d) == sp[d], (t.kind, s, d)


def test_mesh_out_degree():
    t = mesh()
    # 4x4 mesh: corners 2, edges 3, interior 4 (out-degree)
    degs = sorted(len(t.output_ports(node)) for node in range(t.num_nodes))
    assert degs.count(2) == 4 and degs.count(3) == 8 and degs.count(4) == 4


def test_torus_1wide_dimension_skips_self_links():
    t = Topology(NocConfig(topology="torus", width=1, height=4))
    assert t.neighbor(0, EAST) is None
    assert t.neighbor(0, WEST) is None
    assert t.neighbor(0, NORTH) is not None


def test_node_range_checks():
    t = mesh()
    with pytest.raises(ValueError):
        t.coord(16)
    with pytest.raises(ValueError):
        t.neighbor(0, 9)
    with pytest.raises(ValueError):
        t.node_at(4, 0)
