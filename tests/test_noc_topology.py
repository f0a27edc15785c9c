"""Topology wiring tests: neighbours, symmetry, distances."""

from __future__ import annotations

from collections import deque

import pytest

from repro.config import NocConfig
from repro.noc.topology import EAST, NORTH, SOUTH, Topology, WEST


def mesh(w=4, h=4):
    return Topology(NocConfig(width=w, height=h))


def test_mesh_edges_have_no_wrap():
    t = mesh()
    assert t.neighbor(0, WEST) is None
    assert t.neighbor(0, SOUTH) is None
    assert t.neighbor(3, EAST) is None
    assert t.neighbor(12, NORTH) is None


def test_mesh_interior_neighbors():
    t = mesh()
    node = 1 * 4 + 1  # (1,1)
    assert t.neighbor(node, EAST) == (1 * 4 + 2, WEST)
    assert t.neighbor(node, NORTH) == (2 * 4 + 1, SOUTH)
    assert t.neighbor(node, WEST) == (1 * 4 + 0, EAST)
    assert t.neighbor(node, SOUTH) == (0 * 4 + 1, NORTH)


def test_neighbor_symmetry():
    for t in (mesh(3, 5), mesh(4, 4), mesh(6, 1), mesh(1, 6)):
        for node in range(t.num_nodes):
            for port in t.output_ports(node):
                nbr, in_port = t.neighbor(node, port)
                back = t.neighbor(nbr, in_port)
                assert back == (node, port), (t.width, t.height, node, port)


def test_coord_roundtrip():
    t = mesh(5, 3)
    for node in range(t.num_nodes):
        c = t.coord(node)
        assert c.y * t.width + c.x == node


def test_min_hops_mesh_is_manhattan():
    t = mesh()
    assert t.min_hops(0, 15) == 6
    assert t.min_hops(0, 0) == 0
    assert t.min_hops(0, 3) == 3
    assert t.min_hops(5, 10) == t.min_hops(10, 5)


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
    for t in (mesh(4, 4), mesh(5, 3), mesh(8, 1), mesh(1, 8)):
        for s in range(t.num_nodes):
            sp = bfs_hops(t, s)
            for d in range(t.num_nodes):
                assert t.min_hops(s, d) == sp[d], (t.width, t.height, s, d)


def test_mesh_out_degree():
    t = mesh()
    # 4x4 mesh: corners 2, edges 3, interior 4 (out-degree)
    degs = sorted(len(t.output_ports(node)) for node in range(t.num_nodes))
    assert degs.count(2) == 4 and degs.count(3) == 8 and degs.count(4) == 4


def test_one_wide_mesh_has_no_side_links():
    t = mesh(1, 4)
    for node in range(4):
        assert t.neighbor(node, EAST) is None
        assert t.neighbor(node, WEST) is None
    assert t.neighbor(0, NORTH) == (1, SOUTH)
    assert t.neighbor(0, SOUTH) is None


def test_node_range_checks():
    t = mesh()
    with pytest.raises(ValueError):
        t.coord(16)
    with pytest.raises(ValueError):
        t.neighbor(0, 9)
    with pytest.raises(ValueError):
        t.min_hops(0, 16)
