"""The dependency plan of a self-correcting replay, classified once.

The paper's model is "annotate dependencies at capture, re-derive injection
times on the target".  *Which* records keep their trigger edges, which ride
a neighbour anchor, which fall back to the captured timestamp and which are
demoted as cycle members depends on the trace and on three scalars —
``keep_dep_fraction``, ``dep_drop_seed``, ``degraded_gap_policy`` — and on
no scheduler.  :func:`classify` decides it, here and nowhere else:

* the **ablation draw** — one ``default_rng(dep_drop_seed).random()`` per
  cause-bearing record in records order, only when the fraction is < 1;
* the **degraded set** (ablated records, records flagged under
  ``DEGRADED_RECORDS_META_KEY``, records whose trigger is missing from the
  trace) and, unless the policy is ``captured``, each one's **anchor**: its
  predecessor on the same source node in captured ``(t_inject, msg_id)``
  order — the predecessor may itself be degraded, the chain telescopes,
  which is what makes the all-degraded limit coincide with naive replay.  A
  degraded record with no predecessor becomes a captured-timestamp root;
* the **can-fire fixpoint** over trigger edges and the **Tarjan demotion**
  of dependency-cycle members to captured-timestamp roots (hand-built
  traces only: a validated :class:`Trace` is acyclic).

Both schedulers read the resulting :class:`Plan`: the event-driven
:class:`~repro.core.replay.SelfCorrectingReplayer` builds its run-time
tables from it, the generational windowed solver sweeps its edge arrays, and
:func:`repro.core.replay._assemble_result` derives the stall / re-derivation
diagnostics from its masks.  So the two engines can only ever disagree about
*scheduling*.

:class:`Columns` is the trace as parallel int64 arrays, memoised on the
trace instance; every index in a :class:`Plan` is a position in
``trace.records``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import GAP_POLICY_CAPTURED
from repro.core.trace import DEGRADED_RECORDS_META_KEY, Trace

__all__ = ["Columns", "Plan", "classify", "csr", "gather_ranges"]


# --------------------------------------------------------------------------
# Columnar trace view
# --------------------------------------------------------------------------

@dataclass
class Columns:
    """The trace as parallel int64 arrays (records order preserved)."""

    n: int
    ids: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    size: np.ndarray
    t_inject: np.ndarray
    cause_id: np.ndarray
    gap: np.ndarray
    bound_id: np.ndarray
    bound_gap: np.ndarray
    cause_idx: np.ndarray = field(init=False)   # index, -1 none, -2 missing
    bound_idx: np.ndarray = field(init=False)

    @staticmethod
    def of(trace: Trace) -> "Columns":
        """Columns for ``trace``, memoised on the trace instance.

        Sweeps, the validation matrix and iterative refinement all replay
        one capture under many configs, so the columnar view is a per-trace
        one-time cost.  A hit requires that the records the columns were
        built from are still the trace's records — ``==`` on the kept list
        is an identity check per record, so rebinding ``records``, growing
        it and replacing one record in place all miss.
        """
        cached = trace.__dict__.get("_columns_cache")
        if cached is not None and cached[0] == trace.records:
            return cached[1]
        cols = Columns.from_trace(trace)
        trace.__dict__["_columns_cache"] = (list(trace.records), cols)
        return cols

    @staticmethod
    def from_trace(trace: Trace) -> "Columns":
        rs = trace.records
        n = len(rs)
        # One python pass over the records; reshape beats nine fromiter
        # sweeps by ~3x on large traces.
        flat = np.fromiter(
            (v for r in rs
             for v in (r.msg_id, r.src, r.dst, r.size_bytes, r.t_inject,
                       r.cause_id, r.gap, r.bound_id, r.bound_gap)),
            dtype=np.int64, count=n * 9).reshape(n, 9)
        return Columns(n, *(flat[:, k].copy() for k in range(9)))

    def __post_init__(self) -> None:
        order = np.argsort(self.ids, kind="stable")
        ids_sorted = self.ids[order]
        self.cause_idx = _index_of(ids_sorted, order, self.cause_id)
        self.bound_idx = _index_of(ids_sorted, order, self.bound_id)


def _index_of(ids_sorted: np.ndarray, order: np.ndarray,
              query: np.ndarray) -> np.ndarray:
    """Map msg_ids to record indices: -1 for the -1 sentinel, -2 if absent."""
    out = np.full(query.shape, -2, dtype=np.int64)
    none = query == -1
    if len(ids_sorted):
        pos = np.searchsorted(ids_sorted, query)
        pos_c = np.minimum(pos, len(ids_sorted) - 1)
        hit = (ids_sorted[pos_c] == query) & ~none
        out[hit] = order[pos_c[hit]]
    out[none] = -1
    return out


# --------------------------------------------------------------------------
# Array-graph helpers
# --------------------------------------------------------------------------

def csr(parents: np.ndarray, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Group edge indices by parent: returns (indptr, edge_order)."""
    order = np.argsort(parents, kind="stable")
    counts = np.bincount(parents, minlength=n_nodes)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return indptr, order


def gather_ranges(indptr: np.ndarray, data: np.ndarray,
                  nodes: np.ndarray) -> np.ndarray:
    """Concatenate ``data[indptr[v]:indptr[v+1]]`` for every v in nodes."""
    counts = indptr[nodes + 1] - indptr[nodes]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=data.dtype)
    starts = indptr[nodes]
    cum = np.cumsum(counts)
    prev = cum - counts
    idx = (np.arange(total, dtype=np.int64)
           - np.repeat(prev, counts) + np.repeat(starts, counts))
    return data[idx]


def _distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of ``x``, sorted.  (``np.unique`` imports
    ``numpy.ma`` on first use — about a MiB of resident memory the event
    engine's process would otherwise never load.)"""
    x = np.sort(x)
    return x[np.concatenate(([True], x[1:] != x[:-1]))] if len(x) else x


def _cycle_members(nodes, out_edges) -> set:
    """Nodes of ``nodes`` on a dependency cycle (including self-loops).

    Iterative Tarjan SCC over ``out_edges(node)``; a node is on a cycle iff
    its strongly connected component has more than one member or it has a
    self-edge.
    """
    index: dict = {}
    lowlink: dict = {}
    on_stack: set = set()
    scc_stack: list = []
    members: set = set()
    counter = 0
    for start in nodes:
        if start in index:
            continue
        work = [(start, iter(out_edges(start)))]
        while work:
            node, it = work[-1]
            if node not in index:
                index[node] = lowlink[node] = counter
                counter += 1
                scc_stack.append(node)
                on_stack.add(node)
            advanced = False
            for succ in it:
                if succ == node:
                    members.add(node)          # self-loop
                elif succ not in index:
                    work.append((succ, iter(out_edges(succ))))
                    advanced = True
                    break
                elif succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                scc = []
                while True:
                    w = scc_stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == node:
                        break
                if len(scc) > 1:
                    members.update(scc)
    return members


# --------------------------------------------------------------------------
# The plan
# --------------------------------------------------------------------------

@dataclass
class Plan:
    """How every record of one trace is driven under one
    ``(keep_dep_fraction, dep_drop_seed, degraded_gap_policy)``.

    Each record is exactly one of ``root`` (timestamp-driven: true roots,
    ``captured``-policy ablations, degraded records with no predecessor,
    demoted cycle members), ``dependent`` (waits on its trigger edges) or
    ``anchored`` (degraded, rides its neighbour anchor).
    """

    cols: Columns
    policy: str
    root: np.ndarray            # bool masks over the records
    dependent: np.ndarray
    anchored: np.ndarray
    degraded: np.ndarray        # anchored, or a no-predecessor fallback root
    # The roots in the order the event queue is seeded with them (same-time
    # ties fire in it): classification roots in records order, then the
    # no-predecessor fallbacks in (t_inject, msg_id) order, then the demoted
    # cycle members by msg_id.
    root_order: np.ndarray
    root_time: np.ndarray       # schedule time of a root (per record)
    prereq: np.ndarray          # trigger edges a record waits on (0: roots)
    # Deliver edges (child fires ``gap`` after the parent's delivery), in
    # records order of the child, a record's cause edge before its bound
    # edge; and anchor edges (child fires ``delta`` after the parent's
    # *injection*).  Only edges into records that can ever fire.
    d_parent: np.ndarray
    d_child: np.ndarray
    d_gap: np.ndarray
    a_parent: np.ndarray
    a_child: np.ndarray
    a_delta: np.ndarray
    demoted: list[int]          # msg_ids of the demoted cycle members, sorted
    dropped_deps: int           # records whose edges the ablation discarded
    marked_degraded: int        # records flagged in the trace meta
    missing_triggers: int       # kept records naming an absent trigger
    fallback_captured: int      # degraded records with no predecessor


def _deliver_edges(cols: Columns, dependent: np.ndarray):
    """``(parent, child, gap)`` of the dependents' cause and bound edges
    whose trigger record is present in the trace, in records order of the
    child with each record's cause edge before its bound edge."""
    dep = np.flatnonzero(dependent)
    parent = np.stack((cols.cause_idx[dep], cols.bound_idx[dep]), 1).ravel()
    present = parent >= 0          # -1: no bound edge, -2: trigger absent
    return (parent[present], np.repeat(dep, 2)[present],
            np.stack((cols.gap[dep], cols.bound_gap[dep]), 1).ravel()[present])


def _fires(root: np.ndarray, prereq: np.ndarray, indptr: np.ndarray,
           child_csr: np.ndarray) -> np.ndarray:
    """Records that can ever fire: the roots, plus every record all
    ``prereq`` of whose trigger edges (parent-keyed CSR) lead back to one."""
    left = prereq.copy()
    fired = root.copy()
    frontier = np.flatnonzero(root)
    while len(frontier):
        children = gather_ranges(indptr, child_csr, frontier)
        if not len(children):
            break
        np.subtract.at(left, children, 1)
        cand = _distinct(children)
        frontier = cand[(left[cand] == 0) & ~fired[cand]]
        fired[frontier] = True
    return fired


def classify(trace: Trace, *, keep_dep_fraction: float, dep_drop_seed: int,
             degraded_gap_policy: str) -> Plan:
    """Classify every record of ``trace`` (see the module docstring).

    Under the ``captured`` policy nothing is anchored: ablated and flagged
    records replay their captured timestamp as roots, and a kept record
    whose trigger is missing stays a dependent and stalls, diagnosed.  The
    other policies differ only in how a scheduler prices an anchor edge,
    so they share one plan.
    """
    cols = Columns.of(trace)
    n = cols.n
    use_anchor = degraded_gap_policy != GAP_POLICY_CAPTURED
    has_cause = cols.cause_id != -1

    marked_ids = np.asarray(
        sorted(set(trace.meta.get(DEGRADED_RECORDS_META_KEY, ()))),
        dtype=np.int64)
    marked = (np.isin(cols.ids, marked_ids) if len(marked_ids)
              else np.zeros(n, dtype=bool))

    # ``default_rng(seed).random(k)`` equals k successive scalar draws.
    keep_mask = np.ones(n, dtype=bool)
    if keep_dep_fraction < 1.0:
        rng = np.random.default_rng(dep_drop_seed)
        draws = rng.random(int(has_cause.sum()))
        keep_mask[has_cause] = draws < keep_dep_fraction

    kept = has_cause & keep_mask
    dropped = has_cause & ~keep_mask
    missing = (cols.cause_idx == -2) | \
        ((cols.bound_id != -1) & (cols.bound_idx == -2))

    if use_anchor:
        degraded = dropped | (kept & (missing | marked)) | (~has_cause & marked)
        dependent = kept & ~(missing | marked)
        root = ~has_cause & ~marked
    else:
        degraded = np.zeros(n, dtype=bool)
        dependent = kept
        root = ~has_cause | dropped
    root_order = [np.flatnonzero(root)]

    # True roots re-fire at their captured offset; every other root falls
    # back to its absolute captured timestamp (the same value on a
    # validated trace, where a root's gap is its t_inject).
    root_time = np.where(has_cause, cols.t_inject, cols.gap)

    # ---- anchors: predecessor on the same source in (t_inject, id) order
    pred = np.full(n, -1, dtype=np.int64)
    if degraded.any():
        order = np.lexsort((cols.ids, cols.t_inject))
        g = np.argsort(cols.src[order], kind="stable")
        seq = order[g]
        same = cols.src[seq[1:]] == cols.src[seq[:-1]]
        deg_later = degraded[seq[1:]] & same
        pred[seq[1:][deg_later]] = seq[:-1][deg_later]
        no_pred = degraded & (pred == -1)
        root = root | no_pred          # captured-timestamp fallback roots
        root_order.append(order[no_pred[order]])
    anchored = degraded & (pred != -1)

    # ---- cycle demotion.  The fixpoint runs over roots and deliver edges
    # only — anchored records never fire in it — so what it leaves blocked
    # waits on a missing trigger, on a cycle, or behind an anchored record.
    d_parent, d_child, d_gap = _deliver_edges(cols, dependent)
    indptr, eorder = csr(d_parent, n)
    dc_csr = d_child[eorder]

    prereq = np.zeros(n, dtype=np.int64)
    prereq[dependent] = 1 + (cols.bound_id[dependent] != -1)
    prereq[anchored] = 1
    blocked = dependent & ~_fires(root, prereq, indptr, dc_csr)

    demoted: list[int] = []
    if blocked.any():
        # Blocked records tainted by a trigger missing from the trace stall
        # legitimately — a diagnosable data bug, reported via the
        # ``stalled_*`` fields; the taint spreads through their dependents.
        taint = np.zeros(n, dtype=bool)
        frontier = np.flatnonzero(blocked & missing)
        while len(frontier):
            taint[frontier] = True
            children = gather_ranges(indptr, dc_csr, frontier)
            cand = _distinct(children)
            frontier = cand[blocked[cand] & ~taint[cand]]
        # Of the rest, demote the actual cycle members: a cycle of
        # zero-latency records would wait on itself forever.  Their
        # descendants then fire normally off the demoted roots' deliveries.
        sub_idx = np.flatnonzero(blocked & ~taint)
        if len(sub_idx):
            sub_ids = set(cols.ids[sub_idx].tolist())
            trig = {
                int(cols.ids[i]): tuple(
                    t for t in (int(cols.cause_id[i]), int(cols.bound_id[i]))
                    if t in sub_ids)
                for i in sub_idx
            }
            demoted = sorted(_cycle_members(sorted(sub_ids), trig.__getitem__))
        if demoted:
            dem_mask = np.isin(cols.ids, np.asarray(demoted, dtype=np.int64))
            dependent = dependent & ~dem_mask
            root = root | dem_mask
            prereq[dem_mask] = 0
            d_parent, d_child, d_gap = _deliver_edges(cols, dependent)
            dem_idx = np.flatnonzero(dem_mask)
            root_order.append(
                dem_idx[np.argsort(cols.ids[dem_idx], kind="stable")])

    a_child = np.flatnonzero(anchored)
    a_parent = pred[a_child]
    a_delta = cols.t_inject[a_child] - cols.t_inject[a_parent]

    # ---- keep only edges whose child can ever fire: a dead edge must not
    # narrow its parent's horizon slack in the windowed solver.  With
    # nothing blocked and nothing anchored the first sweep fired every
    # dependent, so every edge is live and the second sweep is skipped.
    if blocked.any() or len(a_child):
        indptr, eorder = csr(np.concatenate([d_parent, a_parent]), n)
        fires = _fires(root, prereq, indptr,
                       np.concatenate([d_child, a_child])[eorder])
        live = fires[d_child]
        d_parent, d_child, d_gap = d_parent[live], d_child[live], d_gap[live]
        live = fires[a_child]
        a_parent, a_child, a_delta = a_parent[live], a_child[live], a_delta[live]

    return Plan(
        cols=cols, policy=degraded_gap_policy,
        root=root, dependent=dependent, anchored=anchored, degraded=degraded,
        root_order=np.concatenate(root_order), root_time=root_time,
        prereq=prereq,
        d_parent=d_parent, d_child=d_child, d_gap=d_gap,
        a_parent=a_parent, a_child=a_child, a_delta=a_delta,
        demoted=demoted,
        dropped_deps=int(dropped.sum()),
        marked_degraded=int(marked.sum()),
        missing_triggers=int((kept & missing).sum()),
        fallback_captured=int((degraded & ~anchored).sum()),
    )
