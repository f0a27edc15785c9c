"""Generational (Kahn-layer) vectorized replay engine.

The event-driven replayers in :mod:`repro.core.replay` pay per-message
Python dispatch: every injection, arbitration grant and delivery is a heap
event with a callback.  This module replays the same trace with NumPy
array-wide operations instead:

1. **Classify** records exactly as :class:`SelfCorrectingReplayer` does
   (roots / dependents / degraded-anchored, ablation draws from the same
   RNG stream, cycle demotion via the same Tarjan helper).
2. **Layer** the dependency DAG once with a vectorized Kahn sweep: every
   record's generation is ``1 + max(generation of its trigger edges)``.
3. **Solve** the coupled DAG/network timing.  For the ``captured`` and
   ``neighbor_gap`` policies (and naive mode) every edge weight is known
   up front, so a *windowed sweep* (:func:`_solve_windowed`) computes the
   event engine's schedule exactly in one pass: released messages advance
   through safe time horizons (min frontier inject + a per-backend lower
   bound on latency), each horizon batch is FIFO-served with the
   closed-form recurrence against per-resource carry state, and
   deliveries release dependent records — no fixed-point iteration at
   all.  The ``interp`` policy's warp heuristic couples anchor deltas to
   the replayed timeline node-globally, so it instead iterates a damped
   layered Gauss-Seidel fixed point (:func:`_solve_relaxation`): DAG pass
   (``inject = max over edges (deliver(trigger) + edge_gap)``, one
   generation at a time) alternating with a vectorized network scan until
   injections, latencies and deliveries are mutually consistent.

The network scans read every serialization, propagation, token-travel and
setup-walk number from the backend's :mod:`repro.onoc.timing` object — the
very tables the event entities index per message — so a generational
replay is *numerically* equivalent to the event path, not just
statistically close.  Remaining intentional deviations:

* same-cycle FIFO ties break by ``msg_id`` (the event engine breaks them
  by event-queue order);
* ``circuit_mesh`` uses the contention-free closed form of the setup walk
  (segment contention between overlapping circuits is not modelled);
* the ``interp`` gap policy estimates each node-local time warp from the
  previous relaxation pass's injection times rather than online, and may
  settle on a different — equally self-consistent — FIFO schedule.

The differential harness in :mod:`repro.validate.engines` bounds all three.

Out-of-core replay: :func:`stream_naive_summary` replays a *binary* trace
(:mod:`repro.core.tracebin`) chunk by chunk with per-resource carry state,
so peak memory is O(chunk + resources) regardless of trace length.
"""

from __future__ import annotations

import time as _walltime
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.config import (
    GAP_POLICY_CAPTURED,
    GAP_POLICY_INTERP,
    ONOC_CIRCUIT_MESH,
    ONOC_TOPOLOGIES,
    OnocConfig,
    TRACE_NAIVE,
    TRACE_SELF_CORRECTING,
    TraceConfig,
)
from repro.core.replay import (
    FaultExposure,
    ReplayResult,
    _cycle_members,
    _estimate_exec_time,
)
from repro.core.trace import DEGRADED_RECORDS_META_KEY, Trace
from repro.onoc.timing import timing_for

__all__ = ["replay_trace_generational", "stream_naive_summary"]

#: Sentinel for "not scheduled"; quarter of int64 min so sums stay negative.
_NEG = np.iinfo(np.int64).min // 4

#: Matches ``SelfCorrectingReplayer._STALL_DETAIL_CAP``.
_STALL_DETAIL_CAP = 50

#: Matches ``SelfCorrectingReplayer._WARP_CLAMP``.
_WARP_CLAMP = (0.25, 4.0)

#: Hard internal iteration cap.  The Gauss-Seidel sequence is monotone from
#: the uncontended lower bound over integer times, so it terminates; the cap
#: only bounds pathological contention chains.
# The damped relaxation contracts geometrically but can need low hundreds
# of passes on FIFO-heavy traces; passes are cheap array sweeps, so the
# engine always allows at least this many regardless of the (event-engine
# oriented) ``cfg.max_iterations``.
_MIN_ITERATION_CAP = 512


# --------------------------------------------------------------------------
# Columnar trace view
# --------------------------------------------------------------------------

@dataclass
class _Columns:
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
    keys: list
    cause_idx: np.ndarray = field(init=False)   # index, -1 none, -2 missing
    bound_idx: np.ndarray = field(init=False)

    @staticmethod
    def of(trace: Trace) -> "_Columns":
        """Columns for ``trace``, memoised on the trace instance.

        Sweeps, the validation matrix and iterative refinement all replay
        one capture under many configs; traces are treated as immutable
        everywhere (fault injection clones), so the columnar view is a
        per-trace one-time cost.  The cache key guards against the one
        mutation pattern that exists in tests (rebinding ``records``).
        """
        key = (len(trace.records), id(trace.records))
        cached = trace.__dict__.get("_columns_cache")
        if cached is not None and cached[0] == key:
            return cached[1]
        cols = _Columns.from_trace(trace)
        trace.__dict__["_columns_cache"] = (key, cols)
        return cols

    @staticmethod
    def from_trace(trace: Trace) -> "_Columns":
        rs = trace.records
        n = len(rs)
        # One python pass over the records; reshape beats nine fromiter
        # sweeps by ~3x on large traces.
        flat = np.fromiter(
            (v for r in rs
             for v in (r.msg_id, r.src, r.dst, r.size_bytes, r.t_inject,
                       r.cause_id, r.gap, r.bound_id, r.bound_gap)),
            dtype=np.int64, count=n * 9).reshape(n, 9)
        cols = _Columns(
            n=n,
            ids=flat[:, 0].copy(),
            src=flat[:, 1].copy(),
            dst=flat[:, 2].copy(),
            size=flat[:, 3].copy(),
            t_inject=flat[:, 4].copy(),
            cause_id=flat[:, 5].copy(),
            gap=flat[:, 6].copy(),
            bound_id=flat[:, 7].copy(),
            bound_gap=flat[:, 8].copy(),
            keys=[r.key for r in rs],
        )
        return cols

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

def _csr(parents: np.ndarray, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Group edge indices by parent: returns (indptr, edge_order)."""
    order = np.argsort(parents, kind="stable")
    counts = np.bincount(parents, minlength=n_nodes)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return indptr, order


def _gather_ranges(indptr: np.ndarray, data: np.ndarray,
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


def _segmented_cummax(x: np.ndarray, seg_start: np.ndarray) -> np.ndarray:
    """Per-segment running maximum (segments marked by ``seg_start``)."""
    m = len(x)
    if m == 0:
        return x.copy()
    seg_id = np.cumsum(seg_start) - 1
    nseg = int(seg_id[-1]) + 1
    lo = int(x.min())
    span = int(x.max()) - lo + 1
    if nseg <= 1:
        return np.maximum.accumulate(x)
    if span < (1 << 62) // nseg:
        # Offset each segment into a disjoint band: the previous segment's
        # running max is strictly below the next band's floor, so one global
        # accumulate resets at every boundary.
        shifted = (x - lo) + seg_id * span
        return np.maximum.accumulate(shifted) - seg_id * span + lo
    out = np.empty_like(x)
    bounds = np.flatnonzero(seg_start).tolist() + [m]
    for a, b in zip(bounds[:-1], bounds[1:]):
        out[a:b] = np.maximum.accumulate(x[a:b])
    return out


def _release_sorted(inj_s: np.ndarray, occ_s: np.ndarray,
                    seg_start: np.ndarray,
                    carry_s: Optional[np.ndarray] = None) -> np.ndarray:
    """Closed form of the FIFO channel recurrence, per segment:

        release[k] = max(inject[k], release[k-1]) + occ[k]

    (``release[-1]`` = ``carry`` when given, else effectively 0 — injections
    are non-negative, matching channels that start idle).  With C the
    segmented inclusive cumsum of occ, the recurrence telescopes to
    ``release[k] = max(carry, max_{j<=k}(inject[j] - C[j-1])) + C[k]``.
    """
    m = len(inj_s)
    if m == 0:
        return inj_s.copy()
    idx = np.arange(m, dtype=np.int64)
    start_idx = np.maximum.accumulate(np.where(seg_start, idx, 0))
    ctot = np.cumsum(occ_s)
    base = (ctot - occ_s)[start_idx]
    c_incl = ctot - base
    x = inj_s - (c_incl - occ_s)
    if carry_s is not None:
        x = np.maximum(x, carry_s)
    return _segmented_cummax(x, seg_start) + c_incl


# --------------------------------------------------------------------------
# Backend contention models (vectorized scans)
# --------------------------------------------------------------------------
#
# A model holds one message set's per-message vectors, gathered from the
# backend's timing object (:mod:`repro.onoc.timing` — the same tables the
# event entities read), plus the per-resource channel state.  The timing
# object itself is not kept: its pair table is n x n, so in-memory replays
# drop it before the solve, while the streaming replay holds it across
# chunks.

class _FifoModel:
    """The FIFO backends (crossbar / swmr / awgr): one carry-state segment
    scan, parameterised by the timing object."""

    #: Degradation overlay (repro.resilience); attached by
    #: ``replay_trace_generational`` when a fault timeseries is configured.
    #: Its adjustments are non-negative, so ``gain_lb`` stays a valid lower
    #: bound for the windowed solver with the overlay active.
    degrade = None

    def __init__(self, timing, ids: np.ndarray, src: np.ndarray,
                 dst: np.ndarray, size: np.ndarray) -> None:
        self.ids, self.src, self.dst = ids, src, dst
        self.num_nodes = timing.cfg.num_nodes
        self.res = timing.resource(src, dst)       # FIFO channel per message
        self.res_size = timing.num_resources
        # Serialization: the static part of the occupancy, and the count the
        # matching event backend feeds to ``DegradationOverlay.adjust``.
        self.ser = timing.serialization(size)
        self.extra = timing.tail(src, dst)         # deliver - release
        self.token_travel = timing.token_travel    # None: occupancy = ser

    @property
    def gain_lb(self) -> np.ndarray:
        """Uncontended latency.  Token travel is >= 0, so this also
        lower-bounds deliver - inject for the windowed solver's horizon."""
        return self.ser + self.extra

    def begin(self, state: Optional[tuple] = None) -> tuple:
        """Start serving from ``state`` — by default idle channels with
        every token parked at its channel's reader.  Returns the state
        (last release per resource, token parking node per channel), which
        ``serve_batch`` updates in place, so a streamed solve can hand it
        to the model of the next chunk."""
        if state is None:
            state = (np.zeros(self.res_size, dtype=np.int64),
                     np.arange(self.num_nodes, dtype=np.int64))
        self._carry, self._token_at = state
        return state

    def serve_batch(self, b: np.ndarray, inject: np.ndarray,
                    deliver: np.ndarray) -> None:
        """FIFO-serve one batch against the carried channel state.

        ``b`` must arrive sorted by (inject, msg_id) and every later batch
        must inject no earlier than this one — the windowed solver, the
        chunk order of canonical traces and a single full-trace batch all
        guarantee both, which is what lets the per-resource closed form run
        incrementally with just a carried last-release time.
        """
        inj = inject[b]
        res = self.res[b]
        order = np.argsort(res, kind="stable")
        bs, inj_s, res_s = b[order], inj[order], res[order]
        seg_start = np.empty(len(bs), dtype=bool)
        seg_start[0] = True
        seg_start[1:] = res_s[1:] != res_s[:-1]
        # One message per resource is the common small-batch case: every
        # element is both head and tail of its segment.
        single = bool(seg_start.all())
        tails = (slice(None) if single else np.flatnonzero(
            np.concatenate((seg_start[1:], [True]))))
        ser_s = self.ser[bs]
        occ_s = ser_s
        if self.token_travel is not None:
            # The token stays parked at the channel's last writer across
            # idle periods and batches.
            src_s = self.src[bs]
            prev = np.empty_like(src_s)
            prev[1:] = src_s[:-1]
            prev[seg_start] = self._token_at[res_s[seg_start]]
            self._token_at[res_s[tails]] = src_s[tails]
            occ_s = self.token_travel(prev, src_s) + ser_s
        lat_x = None
        if self.degrade is not None:
            occ_x, lat_x = self.degrade.adjust_vec(
                inj_s, self.src[bs], self.dst[bs], ser_s)
            occ_s = occ_s + occ_x      # degraded resource held longer
        if single:
            # The recurrence collapses to a single elementwise step.
            release_s = np.maximum(inj_s, self._carry[res_s]) + occ_s
        else:
            release_s = _release_sorted(inj_s, occ_s, seg_start,
                                        carry_s=self._carry[res_s])
        self._carry[res_s[tails]] = release_s[tails]
        deliver[bs] = release_s + self.extra[bs]
        if lat_x is not None:
            deliver[bs] += lat_x       # detour flight delays delivery only

    def scan(self, inject: np.ndarray, active_idx: np.ndarray) -> np.ndarray:
        """Deliver times of the active messages served from idle channels:
        the batch form over the whole (inject, msg_id)-sorted set."""
        deliver = np.full(len(self.ids), _NEG, dtype=np.int64)
        if len(active_idx):
            self.begin()
            order = np.lexsort((self.ids[active_idx], inject[active_idx]))
            self.serve_batch(active_idx[order], inject, deliver)
        return deliver


class _CircuitModel:
    """Circuit-switched mesh, contention-free closed form of the setup walk
    (:meth:`repro.onoc.timing.CircuitMeshTiming.latency`).

    The event model arbitrates directed link segments hop by hop; the
    uncontended latency of a circuit is exact and constant.  Segment
    contention between overlapping circuits is *not* modelled — the
    documented approximation for this backend (the event path remains the
    reference; see docs/TRACE_FORMAT.md).
    """

    #: Degradation overlay; see :class:`_FifoModel`.  Circuit-mesh
    #: degradation is latency-only by contract (the event model tears the
    #: circuit down on the stock schedule, so the unmodelled segment
    #: contention does not grow): deliver = inject + const + occ + lat.
    degrade = None

    def __init__(self, timing, ids: np.ndarray, src: np.ndarray,
                 dst: np.ndarray, size: np.ndarray) -> None:
        self.src, self.dst = src, dst
        self.ser = timing.serialization(size)
        self.const = timing.latency(src, dst, self.ser)
        self.gain_lb = self.const

    def begin(self, state=None) -> None:
        return None                # contention-free: no carry state

    def serve_batch(self, b: np.ndarray, inject: np.ndarray,
                    deliver: np.ndarray) -> None:
        deliver[b] = inject[b] + self.const[b]
        if self.degrade is not None:
            occ, lat = self.degrade.adjust_vec(
                inject[b], self.src[b], self.dst[b], self.ser[b])
            deliver[b] += occ + lat

    def scan(self, inject: np.ndarray, active_idx: np.ndarray) -> np.ndarray:
        deliver = np.full(len(self.const), _NEG, dtype=np.int64)
        self.serve_batch(active_idx, inject, deliver)
        return deliver


def _model_for(timing, ids: np.ndarray, src: np.ndarray, dst: np.ndarray,
               size: np.ndarray):
    cls = (_CircuitModel if timing.cfg.topology == ONOC_CIRCUIT_MESH
           else _FifoModel)
    return cls(timing, ids, src, dst, size)


# --------------------------------------------------------------------------
# Self-correction plan: classification, anchors, demotion, Kahn layering
# --------------------------------------------------------------------------

@dataclass
class _Plan:
    """Vectorized mirror of ``SelfCorrectingReplayer``'s preprocessing."""

    root: np.ndarray            # bool: timestamp-driven (incl. fallback/demoted)
    dependent: np.ndarray       # bool: in the trigger-edge machinery
    anchored: np.ndarray        # bool: degraded, riding a neighbor anchor
    degraded: np.ndarray        # bool: all degraded (anchored + fallback)
    root_time: np.ndarray       # schedule time for roots
    pred: np.ndarray            # anchor predecessor index (-1 none)
    layer: np.ndarray           # Kahn generation, -1 = never fires
    # Edges sorted by child layer: parallel arrays + per-layer slices.
    e_parent: np.ndarray
    e_child: np.ndarray
    e_gap: np.ndarray
    e_anchor: np.ndarray        # bool: anchor edge (fires at parent *inject*)
    e_delta: np.ndarray         # anchor edges: captured inter-send delta
    layer_bounds: list          # [(start, end)] per layer 1..L in order
    dropped_deps: int
    missing_triggers: int
    marked_degraded: int
    fallback_captured: int
    demoted: list               # demoted cycle members (msg_ids, sorted)


def _classify(trace: Trace, cols: _Columns, cfg: TraceConfig) -> _Plan:
    n = cols.n
    use_anchor = cfg.degraded_gap_policy != GAP_POLICY_CAPTURED
    has_cause = cols.cause_id != -1

    marked_ids = np.asarray(
        sorted(set(trace.meta.get(DEGRADED_RECORDS_META_KEY, ()))),
        dtype=np.int64)
    marked = (np.isin(cols.ids, marked_ids) if len(marked_ids)
              else np.zeros(n, dtype=bool))
    marked_degraded = int(marked.sum())

    # Ablation draws replicate the event engine: one RNG draw per
    # cause-bearing record in records order, only when the fraction < 1
    # (``default_rng(seed).random(k)`` equals k successive scalar draws).
    keep_mask = np.ones(n, dtype=bool)
    if cfg.keep_dep_fraction < 1.0:
        rng = np.random.default_rng(cfg.dep_drop_seed)
        draws = rng.random(int(has_cause.sum()))
        keep_mask[has_cause] = draws < cfg.keep_dep_fraction

    kept = has_cause & keep_mask
    dropped = has_cause & ~keep_mask
    missing = (cols.cause_idx == -2) | \
        ((cols.bound_id != -1) & (cols.bound_idx == -2))
    missing_triggers = int((kept & missing).sum())

    if use_anchor:
        degraded = dropped | (kept & (missing | marked)) | (~has_cause & marked)
        dependent = kept & ~(missing | marked)
        root = ~has_cause & ~marked
    else:
        degraded = np.zeros(n, dtype=bool)
        dependent = kept
        root = ~has_cause | dropped

    root_time = np.where(cols.cause_id == -1, cols.gap, cols.t_inject)

    # ---- anchors: predecessor on the same source in (t_inject, id) order
    pred = np.full(n, -1, dtype=np.int64)
    fallback = 0
    if degraded.any():
        order = np.lexsort((cols.ids, cols.t_inject))
        g = np.argsort(cols.src[order], kind="stable")
        seq = order[g]
        same = cols.src[seq[1:]] == cols.src[seq[:-1]]
        deg_later = degraded[seq[1:]] & same
        pred[seq[1:][deg_later]] = seq[:-1][deg_later]
        no_pred = degraded & (pred == -1)
        fallback = int(no_pred.sum())
        root = root | no_pred          # captured-timestamp fallback roots
    anchored = degraded & (pred != -1)

    # ---- cycle demotion (mirror of _demote_cycles: the fixpoint runs over
    # roots and deliver-edges only; anchored records never fire in it)
    dep_idx = np.flatnonzero(dependent)
    dp = np.concatenate([
        cols.cause_idx[dep_idx], cols.bound_idx[dep_idx]])
    dc = np.concatenate([dep_idx, dep_idx])
    has_bound = np.concatenate([
        np.ones(len(dep_idx), dtype=bool), cols.bound_id[dep_idx] != -1])
    present = (dp >= 0) & has_bound
    dp, dc = dp[present], dc[present]
    indptr, eorder = _csr(dp, n)
    dc_csr = dc[eorder]

    indeg = np.zeros(n, dtype=np.int64)
    indeg[dependent] = 1 + (cols.bound_id[dependent] != -1)
    fired = root.copy()
    frontier = np.flatnonzero(root)
    while len(frontier):
        children = _gather_ranges(indptr, dc_csr, frontier)
        if not len(children):
            break
        np.subtract.at(indeg, children, 1)
        cand = np.unique(children)
        newly = cand[(indeg[cand] == 0) & ~fired[cand]]
        fired[newly] = True
        frontier = newly
    blocked = dependent & ~fired

    demoted: list[int] = []
    if blocked.any():
        taint = np.zeros(n, dtype=bool)
        frontier = np.flatnonzero(blocked & missing)
        while len(frontier):
            taint[frontier] = True
            children = _gather_ranges(indptr, dc_csr, frontier)
            cand = np.unique(children) if len(children) else children
            frontier = cand[blocked[cand] & ~taint[cand]] if len(cand) \
                else cand
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
            dem_arr = np.asarray(demoted, dtype=np.int64)
            dem_mask = np.isin(cols.ids, dem_arr)
            dependent = dependent & ~dem_mask
            root = root | dem_mask

    # ---- final edges + Kahn layering
    dep_idx = np.flatnonzero(dependent)
    ce_ok = cols.cause_idx[dep_idx] >= 0
    be_ok = (cols.bound_id[dep_idx] != -1) & (cols.bound_idx[dep_idx] >= 0)
    anc_idx = np.flatnonzero(anchored)
    e_parent = np.concatenate([
        cols.cause_idx[dep_idx[ce_ok]],
        cols.bound_idx[dep_idx[be_ok]],
        pred[anc_idx],
    ])
    e_child = np.concatenate([dep_idx[ce_ok], dep_idx[be_ok], anc_idx])
    e_gap = np.concatenate([
        cols.gap[dep_idx[ce_ok]],
        cols.bound_gap[dep_idx[be_ok]],
        np.zeros(len(anc_idx), dtype=np.int64),
    ])
    e_anchor = np.concatenate([
        np.zeros(int(ce_ok.sum()) + int(be_ok.sum()), dtype=bool),
        np.ones(len(anc_idx), dtype=bool),
    ])
    e_delta = np.zeros(len(e_parent), dtype=np.int64)
    if len(anc_idx):
        e_delta[e_anchor] = cols.t_inject[anc_idx] - \
            cols.t_inject[pred[anc_idx]]

    layer = np.full(n, -1, dtype=np.int64)
    layer[root] = 0
    indeg = np.zeros(n, dtype=np.int64)
    indeg[dependent] = 1 + (cols.bound_id[dependent] != -1)
    indeg[anchored] = 1
    indptr, eorder = _csr(e_parent, n)
    child_csr = e_child[eorder]
    frontier = np.flatnonzero(root)
    level = 0
    while len(frontier):
        children = _gather_ranges(indptr, child_csr, frontier)
        if not len(children):
            break
        np.subtract.at(indeg, children, 1)
        cand = np.unique(children)
        newly = cand[(indeg[cand] == 0) & (layer[cand] == -1)]
        if not len(newly):
            break
        level += 1
        layer[newly] = level
        frontier = newly

    # Sort edges by child layer; drop edges into never-firing children.
    live = layer[e_child] >= 1
    e_parent, e_child = e_parent[live], e_child[live]
    e_gap, e_anchor, e_delta = e_gap[live], e_anchor[live], e_delta[live]
    esort = np.argsort(layer[e_child], kind="stable")
    e_parent, e_child = e_parent[esort], e_child[esort]
    e_gap, e_anchor, e_delta = e_gap[esort], e_anchor[esort], e_delta[esort]
    child_layers = layer[e_child]
    lvls = np.unique(child_layers)
    starts = np.searchsorted(child_layers, lvls, side="left")
    ends = np.searchsorted(child_layers, lvls, side="right")
    bounds = list(zip(starts.tolist(), ends.tolist()))

    return _Plan(
        root=root, dependent=dependent, anchored=anchored,
        degraded=degraded, root_time=root_time, pred=pred, layer=layer,
        e_parent=e_parent, e_child=e_child, e_gap=e_gap,
        e_anchor=e_anchor, e_delta=e_delta, layer_bounds=bounds,
        dropped_deps=int(dropped.sum()), missing_triggers=missing_triggers,
        marked_degraded=marked_degraded, fallback_captured=fallback,
        demoted=[int(m) for m in demoted],
    )


# --------------------------------------------------------------------------
# Layered DAG pass + interp warp estimation
# --------------------------------------------------------------------------

def _dag_pass(plan: _Plan, cols: _Columns, lat: np.ndarray,
              e_delta: np.ndarray) -> np.ndarray:
    """One generational sweep of the DAG earliest-start rule.

    ``inject[child] = max over edges (deliver(parent) + edge_gap)`` with
    ``deliver(parent) = inject[parent] + lat[parent]`` (latency from the
    previous network scan); anchor edges contribute
    ``inject[parent] + delta`` instead (anchored records fire off their
    anchor's *injection*, exactly like the event engine's ``_send`` hook).
    Parents always sit in earlier generations, so each generation is one
    vectorized ``maximum.at``.
    """
    inject = np.full(cols.n, _NEG, dtype=np.int64)
    inject[plan.root] = plan.root_time[plan.root]
    for a, b in plan.layer_bounds:
        p = plan.e_parent[a:b]
        contrib = np.where(
            plan.e_anchor[a:b],
            inject[p] + e_delta[a:b],
            inject[p] + lat[p] + plan.e_gap[a:b],
        )
        np.maximum.at(inject, plan.e_child[a:b], contrib)
    return inject


def _interp_deltas(plan: _Plan, cols: _Columns,
                   inj_prev: np.ndarray) -> np.ndarray:
    """Anchor deltas rescaled by the node-local time warp (interp policy).

    The event engine estimates each warp online from the two most recent
    dependency-intact injections on the node at the moment the anchor
    fires; here the estimate uses the previous iteration's injection times
    (converging to the same values as the fixed point stabilises).  On the
    first pass ``inj_prev`` is the captured timeline, so every warp is 1.
    """
    e_delta = plan.e_delta.copy()
    anc_pos = np.flatnonzero(plan.e_anchor)
    if not len(anc_pos):
        return e_delta
    intact = ~plan.degraded & (plan.layer >= 0)
    i_idx = np.flatnonzero(intact)
    if not len(i_idx):
        return e_delta
    # Intact entries sorted by (src, prev inject, msg_id).
    io = i_idx[np.lexsort((cols.ids[i_idx], inj_prev[i_idx],
                           cols.src[i_idx]))]
    counts = np.bincount(cols.src[io], minlength=int(cols.src.max()) + 2)
    grp_start = np.concatenate(([0], np.cumsum(counts)))

    # Rank each anchor parent among the intact entries of its node: a
    # merged sort where intact entries (tag 0) precede an equal-keyed query
    # (tag 1), so a parent that is itself intact counts inclusively — the
    # event engine appends the anchor's own history entry before releasing
    # its dependents.
    parents = plan.e_parent[anc_pos]
    q = len(parents)
    all_src = np.concatenate([cols.src[io], cols.src[parents]])
    all_inj = np.concatenate([inj_prev[io], inj_prev[parents]])
    all_id = np.concatenate([cols.ids[io], cols.ids[parents]])
    tag = np.concatenate([np.zeros(len(io), dtype=np.int64),
                          np.ones(q, dtype=np.int64)])
    morder = np.lexsort((tag, all_id, all_inj, all_src))
    cum_intact = np.cumsum(tag[morder] == 0)
    pos_of = np.empty(len(morder), dtype=np.int64)
    pos_of[morder] = np.arange(len(morder))
    rank = cum_intact[pos_of[len(io):]]            # inclusive global rank

    rel = rank - grp_start[cols.src[parents]]      # rank within the node
    ok = rel >= 2
    if not ok.any():
        return e_delta
    i2 = io[grp_start[cols.src[parents[ok]]] + rel[ok] - 1]
    i1 = io[grp_start[cols.src[parents[ok]]] + rel[ok] - 2]
    c1, c2 = cols.t_inject[i1], cols.t_inject[i2]
    t1, t2 = inj_prev[i1], inj_prev[i2]
    lo, hi = _WARP_CLAMP
    warp = np.ones(int(ok.sum()))
    pos_span = c2 > c1
    warp[pos_span] = np.clip(
        (t2[pos_span] - t1[pos_span]) / (c2[pos_span] - c1[pos_span]),
        lo, hi)
    scaled = np.maximum(
        0, np.round(plan.e_delta[anc_pos[ok]] * warp)).astype(np.int64)
    e_delta[anc_pos[ok]] = scaled
    return e_delta


# --------------------------------------------------------------------------
# Damped fixed-point solver (interp policy)
# --------------------------------------------------------------------------

def _solve_relaxation(
    cols: _Columns, model, plan: _Plan, cfg: TraceConfig,
    active_idx: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """Layered Gauss-Seidel fixed point for the ``interp`` gap policy.

    The interp warp couples anchor deltas to the *replayed* injection
    timeline of every intact record on the node, so the edge weights are
    not known up front and the one-pass windowed solver does not apply —
    the DAG pass / network scan pair iterates to a fixed point instead.
    Returns ``(inject, deliver, iterations, converged)``.
    """
    lat = model.gain_lb.copy()     # start from the uncontended latency
    prev_inject: Optional[np.ndarray] = None
    inject = np.full(cols.n, _NEG, dtype=np.int64)
    deliver = np.full(cols.n, _NEG, dtype=np.int64)
    inj_for_warp = cols.t_inject
    converged = False
    iterations = 0
    cap = max(cfg.max_iterations, _MIN_ITERATION_CAP)
    while iterations < cap:
        iterations += 1
        e_delta = _interp_deltas(plan, cols, inj_for_warp)
        inject = _dag_pass(plan, cols, lat, e_delta)
        if (prev_inject is not None
                and np.array_equal(inject[active_idx],
                                   prev_inject[active_idx])
                and np.array_equal(lat[active_idx],
                                   deliver[active_idx]
                                   - inject[active_idx])):
            # Fixed point: ``deliver`` came from scanning this very
            # injection vector, the latency estimate has settled onto
            # ``deliver - inject`` exactly, and ``inject`` is the DAG pass
            # of that latency — the three are mutually consistent.
            converged = True
            break
        deliver = model.scan(inject, active_idx)
        # Damped (midpoint) relaxation.  The undamped update rings: the
        # FIFO service order at each resource is re-derived from the
        # injection guesses every scan, so contending messages swap queue
        # positions between passes and the latency feedback oscillates
        # between two slowly-contracting bands instead of settling.
        # Averaging the latency estimate toward the scan's observation
        # kills the ring while preserving every true fixed point (the
        # midpoint of equal values is itself); ``np.round`` rather than
        # floor division so the estimate reaches the target exactly from
        # either side once the scan result is stable.
        target = deliver[active_idx] - inject[active_idx]
        lat[active_idx] = target + np.round(
            (lat[active_idx] - target) / 2.0).astype(np.int64)
        prev_inject = inject
        inj_for_warp = inject
    final = prev_inject if prev_inject is not None else inject
    return final, deliver, iterations, converged


# --------------------------------------------------------------------------
# Exact windowed solver (captured / neighbor_gap policies)
# --------------------------------------------------------------------------

def _solve_windowed(cols: _Columns, model,
                    plan: _Plan) -> tuple[np.ndarray, np.ndarray, int]:
    """One-pass exact solve of the self-correction timing, no iteration.

    The trace DAG and the FIFO channels are solved *together* by advancing
    a safe time horizon:

    * the frontier is every released-but-unserved message (an index
      array);
    * the horizon is ``H = min over frontier f of key(f)`` with
      ``key(f) = max(inject(f), carry[res(f)]) + gain(f) + min_gap(f)``:
      the earliest time any *released descendant* of ``f`` could inject —
      ``f``'s release cannot start before its channel's carried busy time,
      takes at least its occupancy + tail (``gain_lb``), and its cheapest
      outgoing deliver edge adds ``min_gap`` (non-negative, enforced by
      ``TraceRecord``).  Since every not-yet-released message descends
      from an unserved frontier member through deliver edges, everything
      injecting before ``H`` can be served now — the carry term is what
      keeps the window wide (and the round count near the DAG depth) once
      channels saturate and queueing pushes deliveries far past
      injections.  Frontier members with no deliver-edge children release
      nothing and never constrain ``H``;
    * the batch, sorted by ``(inject, msg_id)``, is FIFO-served with the
      closed-form recurrence against per-resource carry state
      (:meth:`serve_batch`); deliveries fire the deliver edges and newly
      released records join the frontier.

    Anchor edges fire at the parent's *injection*, which can precede ``H``
    — so anchored children are released eagerly (with cascading) the
    moment their anchor releases, before any service, keeping the horizon
    bound valid.

    Batches therefore leave in globally non-decreasing ``(inject, msg_id)``
    order — the exact service order of the event engine's fixed point (and
    of the full ``scan``'s lexsort) — so the result is the event-driven
    schedule itself, not an approximation.  Returns
    ``(inject, deliver, rounds)``; never-released records keep ``_NEG``.
    """
    n = cols.n
    inject = np.full(n, _NEG, dtype=np.int64)
    deliver = np.full(n, _NEG, dtype=np.int64)
    contrib = np.where(plan.root, plan.root_time, _NEG)
    prereq = np.zeros(n, dtype=np.int64)
    prereq[plan.dependent] = 1 + (cols.bound_id[plan.dependent] != -1)
    prereq[plan.anchored] = 1
    released = np.zeros(n, dtype=bool)

    # Parent-keyed CSRs over the live edges, split by firing time:
    # anchor edges fire at parent release, deliver edges at parent service.
    anc = plan.e_anchor
    has_anchors = bool(anc.any())
    aptr, aord = _csr(plan.e_parent[anc], n)
    a_child = plan.e_child[anc][aord]
    a_delta = plan.e_delta[anc][aord]
    d_parent, d_gap_raw = plan.e_parent[~anc], plan.e_gap[~anc]
    dptr, dord = _csr(d_parent, n)
    d_child = plan.e_child[~anc][dord]
    d_gap = d_gap_raw[dord]

    def _release(newly: np.ndarray) -> np.ndarray:
        if not has_anchors:
            released[newly] = True
            inject[newly] = contrib[newly]
            return newly
        out = []
        while len(newly):
            released[newly] = True
            inject[newly] = contrib[newly]
            out.append(newly)
            counts = aptr[newly + 1] - aptr[newly]
            ach = _gather_ranges(aptr, a_child, newly)
            if not len(ach):
                break
            adl = _gather_ranges(aptr, a_delta, newly)
            apar = np.repeat(newly, counts)
            np.maximum.at(contrib, ach, inject[apar] + adl)
            np.subtract.at(prereq, ach, 1)
            cand = np.unique(ach)
            newly = cand[(prereq[cand] == 0) & ~released[cand]]
        if not out:
            return np.empty(0, dtype=np.int64)
        return out[0] if len(out) == 1 else np.concatenate(out)

    model.begin()
    # Per-message slack: latency floor + cheapest outgoing deliver-edge
    # gap.  Members with no deliver-edge children release nothing and do
    # not constrain the horizon at all (the _BIG sentinel; anchor children
    # are released eagerly, never through the horizon machinery).  The
    # clamp to >= 1 keeps the minimum-inject member served every round, so
    # progress is guaranteed even against a (validation-bypassing)
    # negative gap.
    _BIG = np.int64(1) << 40
    min_out_gap = np.full(n, _BIG, dtype=np.int64)
    if len(d_parent):
        np.minimum.at(min_out_gap, d_parent, d_gap_raw)
    slack = np.maximum(1, model.gain_lb + min_out_gap)
    edge_idx = np.arange(len(d_child), dtype=np.int64)
    # Channel state for the dynamic horizon key (None for the
    # contention-free circuit model, whose key is static).
    carry = getattr(model, "_carry", None)
    res = model.res if carry is not None else None

    frontier = _release(np.flatnonzero(plan.root))
    rounds = 0
    while len(frontier):
        rounds += 1
        inj_f = inject[frontier]
        floor = (inj_f if carry is None
                 else np.maximum(inj_f, carry[res[frontier]]))
        horizon = (floor + slack[frontier]).min()
        take = inj_f < horizon
        batch = frontier[take]
        frontier = frontier[~take]
        b = batch[np.lexsort((cols.ids[batch], inject[batch]))]
        model.serve_batch(b, inject, deliver)
        counts = dptr[b + 1] - dptr[b]
        eidx = _gather_ranges(dptr, edge_idx, b)
        if not len(eidx):
            continue
        dch = d_child[eidx]
        dpar = np.repeat(b, counts)
        np.maximum.at(contrib, dch, deliver[dpar] + d_gap[eidx])
        np.subtract.at(prereq, dch, 1)
        cand = np.unique(dch)
        newly = _release(cand[(prereq[cand] == 0) & ~released[cand]])
        if len(newly):
            frontier = np.concatenate((frontier, newly))
    return inject, deliver, rounds


# --------------------------------------------------------------------------
# Engine entry point
# --------------------------------------------------------------------------

def _resilience_payload(overlay, cols: _Columns, inject: np.ndarray,
                        active_idx: np.ndarray) -> dict:
    """Penalty accounting + obs export over the final injection schedule
    of the replayed messages (same funnel as the event engine)."""
    from repro.resilience.overlay import resilience_extra

    return resilience_extra(
        overlay,
        inject[active_idx],
        cols.src[active_idx],
        cols.dst[active_idx],
        cols.size[active_idx],
    )


def _result_dicts(cols: _Columns, inject: np.ndarray, deliver: np.ndarray,
                  active_idx: np.ndarray):
    idx_list = active_idx.tolist()
    ids = cols.ids[active_idx].tolist()
    injections = dict(zip(ids, inject[active_idx].tolist()))
    deliveries = dict(zip(ids, deliver[active_idx].tolist()))
    lats = dict(zip(map(cols.keys.__getitem__, idx_list),
                    (deliver[active_idx] - inject[active_idx]).tolist()))
    return injections, deliveries, lats


def replay_trace_generational(
    trace: Trace,
    onoc: OnocConfig,
    cfg: Optional[TraceConfig] = None,
) -> ReplayResult:
    """Vectorized replay of ``trace`` on the optical network ``onoc``.

    Drop-in equivalent of :func:`repro.core.replay.replay_trace` for the
    optical backends (the event engine remains the path for electrical
    targets and network-in-the-loop experiments).  Honours ``cfg.mode``,
    ``keep_dep_fraction`` / ``dep_drop_seed`` (same RNG stream as the event
    engine) and ``degraded_gap_policy``.  ``extra`` reports
    ``{"engine": "generational", "iterations": k, "converged": bool}``.
    """
    cfg = cfg or TraceConfig()
    if onoc.topology not in ONOC_TOPOLOGIES:
        raise ValueError(
            f"generational replay has no model for topology "
            f"{onoc.topology!r} (expected one of {ONOC_TOPOLOGIES})")
    t0 = _walltime.perf_counter()
    cols = _Columns.of(trace)
    if cols.n and onoc.num_nodes <= int(max(cols.src.max(), cols.dst.max())):
        raise ValueError("target network too small for trace endpoints")
    model = _model_for(timing_for(onoc), cols.ids, cols.src, cols.dst,
                       cols.size)
    overlay = None
    if cfg.fault_events:
        from repro.resilience.overlay import DegradationOverlay

        overlay = DegradationOverlay.build(
            cfg.fault_events, onoc, cfg.mitigation)
        model.degrade = overlay       # None when the timeseries is empty
    full_idx = np.arange(cols.n, dtype=np.int64)

    if cfg.mode == TRACE_NAIVE:
        inject = cols.t_inject.copy()
        deliver = model.scan(inject, full_idx)
        injections, deliveries, lats = _result_dicts(
            cols, inject, deliver, full_idx)
        extra = {"engine": "generational", "iterations": 1,
                 "converged": True}
        if overlay is not None:
            extra["resilience"] = _resilience_payload(
                overlay, cols, inject, full_idx)
        return ReplayResult(
            mode=TRACE_NAIVE,
            exec_time_estimate=_estimate_exec_time(trace, deliveries),
            latencies_by_key=lats,
            deliveries=deliveries,
            injections=injections,
            messages_replayed=cols.n,
            messages_unreplayed=0,
            wall_clock_s=_walltime.perf_counter() - t0,
            sim_events=0,
            extra=extra,
        )

    plan = _classify(trace, cols, cfg)
    active_idx = np.flatnonzero(plan.layer >= 0)
    interp = cfg.degraded_gap_policy == GAP_POLICY_INTERP

    if not interp:
        # captured / neighbor_gap: every edge weight is known up front, so
        # the windowed solver computes the event engine's schedule exactly
        # in one pass.  ``iterations`` reports the horizon-batch count.
        final_inject, deliver, iterations = _solve_windowed(cols, model, plan)
        converged = True
    else:
        final_inject, deliver, iterations, converged = _solve_relaxation(
            cols, model, plan, cfg, active_idx)

    injections, deliveries, lats = _result_dicts(
        cols, final_inject, deliver, active_idx)

    stalled_mask = plan.dependent & (plan.layer == -1)
    stalled_all = np.sort(cols.ids[stalled_mask]).tolist()
    stalled_on: dict[int, list[int]] = {}
    for mid in stalled_all[:_STALL_DETAIL_CAP]:
        i = int(np.flatnonzero(cols.ids == mid)[0])
        stalled_on[mid] = [
            int(t) for t in (cols.cause_id[i], cols.bound_id[i])
            if t != -1 and int(t) not in deliveries
        ]
    rederived_ids = tuple(sorted(
        cols.ids[plan.anchored & (plan.layer >= 0)].tolist()))

    exposure = FaultExposure(
        policy=cfg.degraded_gap_policy,
        ablated=plan.dropped_deps,
        marked_degraded=plan.marked_degraded,
        missing_triggers=plan.missing_triggers,
        rederived=len(rederived_ids),
        fallback_captured=plan.fallback_captured,
        rederived_msg_ids=rederived_ids,
    )
    rederive = cfg.degraded_gap_policy != GAP_POLICY_CAPTURED
    extra = {"engine": "generational", "iterations": iterations,
             "converged": converged}
    if overlay is not None:
        extra["resilience"] = _resilience_payload(
            overlay, cols, final_inject, active_idx)
    return ReplayResult(
        mode=TRACE_SELF_CORRECTING,
        exec_time_estimate=_estimate_exec_time(
            trace, deliveries, rederive_markers=rederive),
        latencies_by_key=lats,
        deliveries=deliveries,
        injections=injections,
        messages_replayed=len(active_idx),
        messages_unreplayed=cols.n - len(active_idx),
        wall_clock_s=_walltime.perf_counter() - t0,
        sim_events=0,
        dropped_deps=plan.dropped_deps,
        demoted_cyclic=len(plan.demoted),
        stalled_count=len(stalled_all),
        stalled_msg_ids=stalled_all[:_STALL_DETAIL_CAP],
        stalled_on=stalled_on,
        rederived_records=len(rederived_ids),
        fault_exposure=exposure,
        extra=extra,
    )


# --------------------------------------------------------------------------
# Out-of-core streaming replay (binary traces)
# --------------------------------------------------------------------------

def stream_naive_summary(path, onoc: OnocConfig) -> dict:
    """Naive-replay a *binary* trace file chunk by chunk, out of core.

    Returns aggregate results (exec-time estimate, message count, mean
    latency) computed by the generational engine's own models: each chunk
    is one more batch served against the channel state the previous chunk
    left behind (last release per resource and, on the crossbar, the
    token's parking node).  Only one record chunk, the backend's timing
    tables and that O(resources) state are resident — the RSS that
    ``benchmarks/pipeline`` workload ``synth_stream_300k`` measures against
    the in-memory replay.  Assumes records arrive sorted by
    ``(t_inject, msg_id)``, which canonical captures are.
    """
    from repro.core import tracebin

    if onoc.topology not in ONOC_TOPOLOGIES:
        raise ValueError(
            f"streaming replay has no model for topology {onoc.topology!r}")
    t0 = _walltime.perf_counter()
    summary = tracebin.read_summary(path)
    markers = summary["markers"]
    marker_causes = np.asarray(
        sorted({m.cause_id for m in markers if m.cause_id != -1}),
        dtype=np.int64)
    cause_deliveries: dict[int, int] = {}

    timing = timing_for(onoc)      # held across chunks, pair table and all
    state = None
    messages = 0
    total_bytes = 0
    latency_sum = 0
    max_deliver = 0
    max_endpoint = -1
    for chunk in tracebin.iter_chunks(path):
        mid, src, dst = chunk.msg_id, chunk.src, chunk.dst
        size, inj = chunk.size_bytes, chunk.t_inject
        hi = int(max(src.max(), dst.max()))
        max_endpoint = max(max_endpoint, hi)
        if onoc.num_nodes <= hi:
            raise ValueError("target network too small for trace endpoints")
        model = _model_for(timing, mid, src, dst, size)
        state = model.begin(state)
        deliver = np.empty(len(mid), dtype=np.int64)
        model.serve_batch(np.lexsort((mid, inj)), inj, deliver)
        messages += len(mid)
        total_bytes += int(size.sum())
        latency_sum += int((deliver - inj).sum())
        if len(deliver):
            max_deliver = max(max_deliver, int(deliver.max()))
        if len(marker_causes):
            hit = np.isin(mid, marker_causes)
            for m, d in zip(mid[hit].tolist(), deliver[hit].tolist()):
                cause_deliveries[m] = d

    best = 0
    for m in markers:
        if m.cause_id == -1:
            t = m.t_finish
        else:
            d = cause_deliveries.get(m.cause_id)
            t = d + m.gap if d is not None else m.t_finish
        best = max(best, t)
    if not markers and messages:
        best = max_deliver
    return {
        "mode": TRACE_NAIVE,
        "engine": "generational-streaming",
        "messages": messages,
        "bytes": total_bytes,
        "exec_time_estimate": best,
        "mean_latency": (latency_sum / messages) if messages else 0.0,
        "max_deliver": max_deliver,
        "captured_exec_time": summary["exec_time"],
        "chunks": summary["chunks"],
        "wall_clock_s": _walltime.perf_counter() - t0,
    }
