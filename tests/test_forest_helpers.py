"""The cause-forest helpers of ``core/trace.py``, each against a scalar
(or sorting) definition.

* ``IdIndex.of`` answers dense ids (``0..n-1`` in order) by arithmetic and
  any other ids by binary search; both must equal a first-occurrence dict
  lookup, for every query including the -1 sentinel and ids far outside.
* ``_rooted`` decides reachability by pointer doubling; it must equal a
  per-record walk up the parent pointers, on forests with roots, absent
  causes, self-loops and short cycles, and on one chain deep enough that
  the doubling needs 12 rounds.
* ``csr`` groups edges by a radix order (``_stable_order``); the grouping
  must be ``np.argsort(kind="stable")``'s.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.trace import IdIndex, _rooted, _stable_order, csr

QUERIES = (-1, -2, -7)
FAR = 1 << 62


@st.composite
def id_columns(draw):
    """Dense, shuffled, gapped, duplicated or empty msg_ids."""
    kind = draw(st.sampled_from(
        ["dense", "shuffled", "gapped", "duplicated", "empty"]))
    n = 0 if kind == "empty" else draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = np.arange(n, dtype=np.int64)
    if kind == "shuffled":
        ids = rng.permutation(ids)
    elif kind == "gapped":
        ids = np.sort(rng.choice(3 * n, size=n, replace=False))
    elif kind == "duplicated":
        ids = rng.integers(0, max(2, n // 2), size=n)
    return kind, ids.astype(np.int64)


@given(id_columns(), st.lists(st.integers(-10, 130), max_size=20))
@settings(derandomize=True, max_examples=200, deadline=None, database=None)
def test_id_index_is_a_first_occurrence_lookup(column, extra):
    kind, ids = column
    n = len(ids)
    first: dict[int, int] = {}
    for pos, i in enumerate(ids.tolist()):
        first.setdefault(i, pos)
    query = np.array([*ids.tolist(), *QUERIES, n, n + 5, FAR, *extra],
                     dtype=np.int64)
    expect = [-1 if q == -1 else first.get(q, -2) for q in query.tolist()]
    index = IdIndex(ids)
    assert index.of(query).tolist() == expect
    assert index.of(query).dtype == np.int64
    if kind in ("dense", "empty"):
        assert index.dense
    if kind in ("gapped", "shuffled") and not np.array_equal(
            ids, np.arange(n)):
        assert not index.dense


def _walk(root: np.ndarray, parent: np.ndarray) -> list[bool]:
    """Per record: follow the parent pointers until a record with no edge
    (fires iff it is a root), a record already decided, or a record seen
    on this walk (a cycle: nothing on the walk fires)."""
    fires: dict[int, bool] = {}
    for start in range(len(parent)):
        path, seen, i = [], set(), start
        while i not in fires and parent[i] >= 0 and i not in seen:
            path.append(i)
            seen.add(i)
            i = int(parent[i])
        if i not in fires:
            fires[i] = bool(parent[i] < 0 and root[i])
        for j in path:
            fires[j] = fires[i] if i not in seen else False
    return [fires[i] for i in range(len(parent))]


@st.composite
def forests(draw):
    """Parent arrays with roots, absent causes (-2), self-loops, random
    edges and explicit 2- to 5-cycles; roots are a subset of the records
    with no edge."""
    n = draw(st.integers(0, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parent = rng.integers(0, max(n, 1), size=n)
    parent[rng.random(n) < 0.3] = -1
    parent[rng.random(n) < 0.1] = -2
    loops = rng.random(n) < 0.05
    parent[loops] = np.flatnonzero(loops)
    for _ in range(draw(st.integers(0, 3))):
        size = draw(st.integers(2, 5))
        if size <= n:
            ring = rng.choice(n, size=size, replace=False)
            parent[ring] = np.roll(ring, 1)
    root = (parent < 0) & (rng.random(n) < 0.8)
    return root, parent.astype(np.int64)


@given(forests())
@settings(derandomize=True, max_examples=200, deadline=None, database=None)
def test_pointer_doubling_is_the_per_record_walk(forest):
    root, parent = forest
    assert _rooted(root, parent).tolist() == _walk(root, parent)


def test_a_deep_chain_needs_every_doubling_round():
    """One 3,000-deep chain, laid out in shuffled positions, plus a branch
    off its tail and a 3-cycle with a tail: reaching the chain's root takes
    2**12 >= 2,999 steps, so 12 doubling rounds, more than 11."""
    depth = 3000
    rng = np.random.default_rng(44)
    pos = rng.permutation(depth + 6)
    parent = np.full(depth + 6, -1, dtype=np.int64)
    chain = pos[:depth]
    parent[chain[1:]] = chain[:-1]              # chain[0] is the root
    parent[pos[depth]] = chain[-1]              # a branch off the tail
    ring = pos[depth + 1:depth + 4]
    parent[ring] = np.roll(ring, 1)             # a 3-cycle
    parent[pos[depth + 4]] = ring[0]            # and a tail below it
    parent[pos[depth + 5]] = -2                 # an absent cause
    root = parent < 0
    root[pos[depth + 5]] = False
    fired = _rooted(root, parent)
    assert fired.tolist() == _walk(root, parent)
    assert fired[chain].all() and fired[pos[depth]]
    assert not fired[pos[depth + 1:]].any()


BOUNDS = st.one_of(st.integers(1, (1 << 16) - 1),
                   st.integers((1 << 16) + 1, 1 << 20),
                   st.integers((1 << 32) + 1, 1 << 62))


@given(BOUNDS, st.integers(0, 300), st.integers(0, 2**32 - 1))
@settings(derandomize=True, max_examples=200, deadline=None, database=None)
def test_csr_groups_edges_as_the_stable_argsort(bound, m, seed):
    """Below 2**16 one radix digit, up to 2**32 two, past it four.  ``csr``
    counts edges per parent, so its bound is an array length; past 2**20
    the order it takes, ``_stable_order``, is checked on its own."""
    rng = np.random.default_rng(seed)
    parents = rng.integers(0, bound, size=m)
    parents[: m // 3] = rng.choice(parents[:8], size=m // 3)
    order = np.argsort(parents, kind="stable")
    assert np.array_equal(_stable_order(parents, bound), order)
    if bound > 1 << 20:
        return
    indptr, edge_order = csr(parents, bound)
    assert np.array_equal(edge_order, order)
    assert len(indptr) == bound + 1 and indptr[-1] == m
    grouped = parents[edge_order]
    for v in np.unique(parents).tolist():
        assert (grouped[indptr[v]:indptr[v + 1]] == v).all()
        assert indptr[v + 1] - indptr[v] == (parents == v).sum()
