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
* **reachability** from the roots over the edges — a non-root has at most
  one: a deliver edge from its cause or an anchor edge — and the
  **demotion** of dependency-cycle members to captured-timestamp roots
  (hand-built traces only: a validated :class:`Trace` is acyclic).

Both schedulers read the resulting :class:`Plan`: the event-driven
:class:`~repro.core.replay.SelfCorrectingReplayer` builds its run-time
tables from it, the generational windowed solver sweeps its edge arrays, and
:func:`repro.core.replay._assemble_result` derives the stall / re-derivation
diagnostics from its masks.  So the two engines can only ever disagree about
*scheduling*.

:class:`Columns` is the solver's view of :attr:`Trace.chunk
<repro.core.trace.Trace.chunk>` plus the cause indices, memoised on the
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
    each record's cause index: -1 none, -2 not in the trace."""

    def __init__(self, chunk: RecordChunk) -> None:
        self.n = len(chunk)
        self.ids, self.src, self.dst = chunk.msg_id, chunk.src, chunk.dst
        self.size, self.t_inject = chunk.size_bytes, chunk.t_inject
        self.cause_id, self.gap = chunk.cause_id, chunk.gap
        #: Record index of each msg_id (-1 for -1, -2 if absent).
        self.index_of = IdIndex(self.ids).of
        self.cause_idx = self.index_of(self.cause_id)

    @staticmethod
    def of(trace: Trace) -> "Columns":
        """Columns for ``trace``, memoised on the trace instance: sweeps,
        the validation matrix and iterative refinement replay one capture
        under many configs, so a record-built trace's chunk and the cause
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


def _cycle_members(cause: dict) -> set:
    """The nodes on a dependency cycle (self-loops included) of a graph
    where each node has at most one out-edge, ``cause[node]`` (absent:
    none).  Each node's pointer path is walked until it leaves the graph,
    meets an earlier walk, or comes back to a node of its own: the path
    from there on is a cycle."""
    members: set = set()
    walked: set = set()
    for node in cause:
        path: dict = {}
        while node in cause and node not in walked:
            walked.add(node)
            path[node] = len(path)
            node = cause[node]
        if node in path:
            members.update(list(path)[path[node]:])
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
    demoted cycle members), ``dependent`` (waits on its cause's delivery)
    or ``anchored`` (degraded, rides its neighbour anchor).
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
    # Deliver edges (child fires ``gap`` after its cause's delivery), in
    # records order of the child; and anchor edges (child fires ``delta``
    # after the parent's *injection*).  A non-root has at most one edge, so
    # a record fires exactly when its parent does: an edge is dead only
    # under a parent that never fires, which no scheduler ever visits.
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
    """``(parent, child, gap)`` of the dependents' cause edges whose cause
    is present in the trace, in records order of the child."""
    dep = np.flatnonzero(dependent)
    dep = dep[cols.cause_idx[dep] >= 0]
    return cols.cause_idx[dep], dep, cols.gap[dep]


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
    missing = cols.cause_idx == -2

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

    # ---- cycle demotion.  Reachability runs over roots and deliver edges
    # only — anchored records are never reached — so what it leaves blocked
    # waits on a missing cause, on a cycle, or behind an anchored record.
    d_parent, d_child, d_gap = _deliver_edges(cols, dependent)
    indptr, eorder = csr(d_parent, n)
    dc_csr = d_child[eorder]
    blocked = dependent & ~_fires(root, indptr, dc_csr)

    # Of the blocked records, demote the cycle members: a cycle of
    # zero-latency records would wait on itself forever.  A cycle holds
    # each member's cause, so no member waits behind a missing cause —
    # those records stall legitimately, a diagnosable data bug reported
    # via the ``stalled_*`` fields.  The members' descendants then fire
    # normally off the demoted roots' deliveries.
    demoted: list[int] = []
    if blocked.any():
        demoted = sorted(_cycle_members(dict(zip(
            cols.ids[blocked].tolist(), cols.cause_id[blocked].tolist()))))
        if demoted:
            dem_mask = np.isin(cols.ids, np.asarray(demoted, dtype=np.int64))
            dependent = dependent & ~dem_mask
            root = root | dem_mask
            d_parent, d_child, d_gap = _deliver_edges(cols, dependent)
            dem_idx = np.flatnonzero(dem_mask)
            root_order.append(
                dem_idx[np.argsort(cols.ids[dem_idx], kind="stable")])

    a_child = np.flatnonzero(anchored)
    a_parent = pred[a_child]
    a_delta = cols.t_inject[a_child] - cols.t_inject[a_parent]

    return Plan(
        cols=cols, policy=degraded_gap_policy,
        root=root, dependent=dependent, anchored=anchored, degraded=degraded,
        root_order=np.concatenate(root_order), root_time=root_time,
        d_parent=d_parent, d_child=d_child, d_gap=d_gap,
        a_parent=a_parent, a_child=a_child, a_delta=a_delta,
        demoted=demoted,
        dropped_deps=int(dropped.sum()),
        marked_degraded=int(marked.sum()),
        missing_triggers=int((kept & missing).sum()),
        fallback_captured=int((degraded & ~anchored).sum()),
    )
