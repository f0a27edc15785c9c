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

:class:`Columns` is the solver's view of :attr:`Trace.chunk
<repro.core.trace.Trace.chunk>` plus the trigger indices, memoised on the
trace; every index in a :class:`Plan` is a position in records order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import GAP_POLICY_CAPTURED
from repro.core.trace import (
    DEGRADED_RECORDS_META_KEY,
    IdIndex,
    RecordChunk,
    Trace,
    _distinct,
    _fires,
    csr,
    gather_ranges,
)

__all__ = ["Columns", "Plan", "classify", "csr", "gather_ranges"]


# --------------------------------------------------------------------------
# Columnar trace view
# --------------------------------------------------------------------------

class Columns:
    """The solver's names for the trace's columns (records order), plus
    each record's trigger indices: -1 none, -2 not in the trace."""

    def __init__(self, chunk: RecordChunk) -> None:
        self.n = len(chunk)
        self.ids, self.src, self.dst = chunk.msg_id, chunk.src, chunk.dst
        self.size, self.t_inject = chunk.size_bytes, chunk.t_inject
        self.cause_id, self.gap = chunk.cause_id, chunk.gap
        self.bound_id, self.bound_gap = chunk.bound_id, chunk.bound_gap
        #: Record index of each msg_id (-1 for -1, -2 if absent).
        self.index_of = IdIndex(self.ids).of
        self.cause_idx = self.index_of(self.cause_id)
        self.bound_idx = self.index_of(self.bound_id)

    @staticmethod
    def of(trace: Trace) -> "Columns":
        """Columns for ``trace``, memoised on the trace instance: sweeps,
        the validation matrix and iterative refinement replay one capture
        under many configs, so a record-built trace's chunk and the trigger
        indices are a one-time cost.  A hit is :attr:`Trace.chunk`'s — the
        records the chunk was built from are still the trace's."""
        chunk = trace.chunk
        held = trace.__dict__.get("_columns_cache")
        if held is None or held[1] is not chunk or held[2] is None:
            records = trace.__dict__.get("records")
            held = trace.__dict__["_columns_cache"] = (
                None if records is None else list(records), chunk,
                Columns(chunk))
        return held[2]


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
