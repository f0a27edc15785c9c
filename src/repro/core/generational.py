"""Generational (vectorized) replay engine: one exact solver.

The event-driven replayers in :mod:`repro.core.replay` pay per-message
Python dispatch: every injection, arbitration grant and delivery is a heap
event with a callback.  This module schedules the same dependency plan with
NumPy array-wide operations instead:

1. **Classify** — not here: :func:`repro.core.plan.classify` decides which
   records are roots, dependents or anchored, once, and the event replayer
   reads the very same :class:`~repro.core.plan.Plan`.
2. **Solve** the coupled DAG/network timing with the paper's single-pass
   earliest-start rule in batch form.  Every edge weight is known up
   front, so a *windowed sweep* (:func:`_solve_windowed`) computes the
   event engine's schedule exactly in one pass: released messages advance
   through safe time horizons (min frontier inject + a per-backend lower
   bound on latency), each horizon batch is FIFO-served in one pass of
   the closed-form recurrence against per-resource carry state, and
   deliveries release dependent records — no fixed-point iteration.
3. **Assemble** the :class:`ReplayResult` through the same function the
   event replayers use (:func:`repro.core.replay._assemble_result`), which
   reads the stall / re-derivation diagnostics off the plan.

This module is therefore the backend models, the windowed solver and the
entry points — scheduling, and nothing a scheduler does not decide.

The network scans read every serialization, propagation, token-travel and
setup-walk number — and, on a degraded fabric, the ``penalty`` rule — from
the backend's :mod:`repro.onoc.timing` object, the very rules the event
entities call per message, so a generational replay is *numerically*
equivalent to the event path, not just statistically close.  Two
intentional deviations remain:

* same-cycle FIFO ties break by ``msg_id`` (the event engine breaks them
  by event-queue order);
* ``circuit_mesh`` uses the contention-free closed form of the setup walk
  (segment contention between overlapping circuits is not modelled).

The differential harness in :mod:`repro.validate.engines` bounds both.
On an optical target every ``TraceConfig`` the event engine accepts is
solved here too: each gap policy's anchor deltas are captured constants.

Out-of-core replay: :func:`stream_naive_summary` replays a *binary* trace
(:mod:`repro.core.tracebin`) chunk by chunk with per-resource carry state,
so peak memory is O(chunk + resources) regardless of trace length.
"""

from __future__ import annotations

import time as _walltime
from typing import Optional

import numpy as np

from repro.config import (
    ONOC_CIRCUIT_MESH,
    ONOC_TOPOLOGIES,
    OnocConfig,
    TRACE_NAIVE,
    TraceConfig,
)
from repro.core.plan import Columns, Plan, classify, csr, gather_ranges
from repro.core.replay import (
    ReplayResult,
    _assemble_result,
    _finish_from_markers,
)
from repro.core.trace import Trace
from repro.onoc.timing import timing_for

__all__ = ["replay_trace_generational", "stream_naive_summary"]

_INT64_MIN = int(np.iinfo(np.int64).min)
#: Sentinel for "not scheduled"; quarter of int64 min so sums stay negative.
_NEG = _INT64_MIN // 4


# --------------------------------------------------------------------------
# FIFO recurrence, closed form
# --------------------------------------------------------------------------

def _segmented_cummax(x: np.ndarray, seg_start: np.ndarray) -> np.ndarray:
    """Per-segment running maximum (segments marked by ``seg_start``),
    computed in place over ``x``, which is returned."""
    m = len(x)
    if m == 0:
        return x
    band = np.cumsum(seg_start, dtype=np.int64)
    nseg = int(band[-1])
    lo = int(x.min())
    span = int(x.max()) - lo + 1
    if nseg <= 1:
        return np.maximum.accumulate(x, out=x)
    if span < (1 << 62) // nseg:
        # Offset each segment into a disjoint band: the previous segment's
        # running max is strictly below the next band's floor, so one global
        # accumulate resets at every boundary.
        band *= span
        x -= lo
        x += band
        np.maximum.accumulate(x, out=x)
        x -= band
        x += lo
        return x
    bounds = np.flatnonzero(seg_start).tolist() + [m]
    for a, b in zip(bounds[:-1], bounds[1:]):
        np.maximum.accumulate(x[a:b], out=x[a:b])
    return x


def _stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for ``0 <= keys < bound``, as
    stable sorts of 16-bit digits, least significant first — NumPy's radix
    path, one pass per digit."""
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    for shift in range(16, max(bound - 1, 1).bit_length(), 16):
        digit = (keys[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
    return order


# --------------------------------------------------------------------------
# Backend contention models (vectorized scans)
# --------------------------------------------------------------------------
#
# A model holds one message set's per-message vectors, gathered from the
# backend's timing object (:mod:`repro.onoc.timing` — the same rules the
# event entities call), plus the per-resource channel state.  The timing
# object itself is not kept: a model needs nothing of it after the gather.
# It is O(nodes), so the streaming replay builds one and holds it across
# chunks.

class _FifoModel:
    """The FIFO backends (crossbar / swmr / awgr): one carry-state segment
    scan, parameterised by the timing object."""

    def __init__(self, timing, ids: np.ndarray, src: np.ndarray,
                 dst: np.ndarray, size: np.ndarray) -> None:
        self.ids, self.src, self.dst = ids, src, dst
        self.num_nodes = timing.cfg.num_nodes
        self.res = timing.resource(src, dst)       # FIFO channel per message
        self.res_size = timing.num_resources
        self.ser = timing.serialization(size)      # static part of occupancy
        self.extra = timing.tail(src, dst)         # deliver - release
        self.token_travel = timing.token_travel    # None: occupancy = ser
        # None: pristine fabric.  Penalties are non-negative, so ``gain_lb``
        # stays a valid lower bound for the windowed solver under one.
        self.penalty = timing.penalty

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
        """FIFO-serve one batch against the carried channel state: one
        cumsum of occupancy and one segmented running maximum over the
        batch in channel order, the carry entering at each channel's head.

        ``b`` must arrive sorted by (inject, msg_id) and every later batch
        must inject no earlier than this one — the windowed solver, the
        chunk order of canonical traces and a single full-trace batch all
        guarantee both, which is what lets the per-resource closed form run
        incrementally with just a carried last-release time.
        """
        res = self.res[b]
        order = _stable_order(res, self.res_size)
        bs, res_s = b[order], res[order]
        inj_s = inject[bs]
        seg_start = np.empty(len(bs), dtype=bool)
        seg_start[0] = True
        np.not_equal(res_s[1:], res_s[:-1], out=seg_start[1:])
        # One message per resource is the common small-batch case: every
        # element is both head and tail of its segment.
        single = bool(seg_start.all())
        if single:
            heads = tails = slice(None)
        else:
            heads = np.flatnonzero(seg_start)
            tails = np.append(heads[1:] - 1, len(bs) - 1)
        ser_s = self.ser[bs]
        occ_s = ser_s
        if self.token_travel is not None:
            # The token stays parked at the channel's last writer across
            # idle periods and batches.
            src_s = self.src[bs]
            prev = np.empty_like(src_s)
            prev[1:] = src_s[:-1]
            prev[heads] = self._token_at[res_s[heads]]
            self._token_at[res_s[tails]] = src_s[tails]
            occ_s = self.token_travel(prev, src_s) + ser_s
        lat_x = None
        if self.penalty is not None:
            occ_x, lat_x = self.penalty(
                inj_s, self.src[bs], self.dst[bs], ser_s)
            occ_s = occ_s + occ_x      # degraded resource held longer
        if single:
            # The recurrence collapses to a single elementwise step.
            release_s = np.maximum(inj_s, self._carry[res_s]) + occ_s
        else:
            # release[k] = max(inject[k], release[k-1]) + occ[k] per segment
            # (release[-1] = carry) telescopes, with G the cumsum of occ, to
            # segmented cummax(inject - G + occ, lifted at heads) + G.
            g = np.cumsum(occ_s)
            lift = self._carry[res_s[heads]] - inj_s[heads]
            x = np.subtract(inj_s, g, out=inj_s)   # inj_s is not read again
            x += occ_s
            x[heads] += np.maximum(lift, 0)
            release_s = _segmented_cummax(x, seg_start)
            release_s += g
        self._carry[res_s[tails]] = release_s[tails]
        release_s += self.extra[bs]
        if lat_x is not None:
            release_s += lat_x         # detour flight delays delivery only
        deliver[bs] = release_s

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

    def __init__(self, timing, ids: np.ndarray, src: np.ndarray,
                 dst: np.ndarray, size: np.ndarray) -> None:
        self.src, self.dst = src, dst
        self.ser = timing.serialization(size)
        self.const = timing.latency(src, dst, self.ser)
        self.gain_lb = self.const
        self.penalty = timing.penalty              # see _FifoModel

    def begin(self, state=None) -> None:
        return None                # contention-free: no carry state

    def serve_batch(self, b: np.ndarray, inject: np.ndarray,
                    deliver: np.ndarray) -> None:
        deliver[b] = inject[b] + self.const[b]
        if self.penalty is not None:
            # ``const`` counts the stock stream; a degraded payload streams
            # ``ser_x`` cycles longer and lands ``lat_x`` after that.
            ser_x, lat_x = self.penalty(
                inject[b], self.src[b], self.dst[b], self.ser[b])
            deliver[b] += ser_x + lat_x

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
# Exact windowed solver
# --------------------------------------------------------------------------

def _solve_windowed(
    cols: Columns, model, plan: Plan,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
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
    ``(inject, deliver, released, rounds)``; records the ``released`` mask
    leaves out never fired and keep ``_NEG``.
    """
    n = cols.n
    inject = np.full(n, _NEG, dtype=np.int64)
    deliver = np.full(n, _NEG, dtype=np.int64)
    contrib = np.where(plan.root, plan.root_time, _NEG)
    released = np.zeros(n, dtype=bool)

    # Parent-keyed CSRs over the two edge sets: anchor edges fire at parent
    # release, deliver edges at parent service.
    has_anchors = bool(len(plan.a_parent))
    aptr, aord = csr(plan.a_parent, n)
    a_child = plan.a_child[aord]
    a_delta = plan.a_delta[aord]
    dptr, dord = csr(plan.d_parent, n)
    d_child = plan.d_child[dord]
    d_gap = plan.d_gap[dord]

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
            # An anchored record's one edge: its anchor's release is its own.
            counts = aptr[newly + 1] - aptr[newly]
            children = gather_ranges(aptr, a_child, newly)
            contrib[children] = (np.repeat(inject[newly], counts)
                                 + gather_ranges(aptr, a_delta, newly))
            newly = children
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
    np.minimum.at(min_out_gap, plan.d_parent, plan.d_gap)
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
        eidx = gather_ranges(dptr, edge_idx, b)
        if not len(eidx):
            continue
        # A dependent's one edge: its cause's service releases it.
        dch = d_child[eidx]
        contrib[dch] = deliver[np.repeat(b, counts)] + d_gap[eidx]
        newly = _release(dch)
        if len(newly):
            frontier = np.concatenate((frontier, newly))
    return inject, deliver, released, rounds


# --------------------------------------------------------------------------
# Engine entry point
# --------------------------------------------------------------------------

def replay_trace_generational(
    trace: Trace,
    onoc: OnocConfig,
    cfg: Optional[TraceConfig] = None,
    timing=None,
) -> ReplayResult:
    """Vectorized replay of ``trace`` on the optical network ``onoc``.

    Drop-in equivalent of :func:`repro.core.replay.replay_trace` for the
    optical backends (the event engine remains the path for electrical
    targets and network-in-the-loop experiments).  Honours ``cfg.mode``,
    ``keep_dep_fraction`` / ``dep_drop_seed`` (same RNG stream as the event
    engine) and both degraded-gap policies.  ``extra`` reports
    ``{"engine": "generational", "iterations": horizon batches,
    "converged": True}``.

    ``timing`` is ``onoc``'s timing object when the caller already holds
    one — :func:`~repro.core.replay.replay_trace` does, having priced it
    for ``cfg.fault_events``; a fault timeseries with no such timing is
    refused rather than replayed pristine.
    """
    cfg = cfg or TraceConfig()
    if cfg.fault_events and timing is None:
        raise ValueError(
            "a fault timeseries is priced by replay_trace, on the timing "
            "object it hands this engine: call replay_trace(..., "
            "TraceConfig(engine='generational', fault_events=...))")
    if onoc.topology not in ONOC_TOPOLOGIES:
        raise ValueError(
            f"generational replay has no model for topology "
            f"{onoc.topology!r} (expected one of {ONOC_TOPOLOGIES})")
    t0 = _walltime.perf_counter()
    cols = Columns.of(trace)
    if cols.n and onoc.num_nodes <= int(max(cols.src.max(), cols.dst.max())):
        raise ValueError("target network too small for trace endpoints")
    model = _model_for(timing or timing_for(onoc), cols.ids, cols.src,
                       cols.dst, cols.size)

    if cfg.mode == TRACE_NAIVE:
        active = np.arange(cols.n, dtype=np.int64)
        inject = cols.t_inject
        deliver = model.scan(inject, active)
        iterations = 1
        plan = None
    else:
        # Every edge weight is known up front, so the windowed solver
        # computes the event engine's schedule exactly in one pass;
        # ``iterations`` reports its horizon-batch count.
        plan = classify(trace, keep_dep_fraction=cfg.keep_dep_fraction,
                        dep_drop_seed=cfg.dep_drop_seed,
                        degraded_gap_policy=cfg.degraded_gap_policy)
        inject, deliver, released, iterations = _solve_windowed(
            cols, model, plan)
        active = np.flatnonzero(released)
    return _assemble_result(
        trace, cfg.mode, (active, inject[active]), (active, deliver[active]),
        t0,
        extra={"engine": "generational", "iterations": iterations,
               "converged": True},
        plan=plan,
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
    token's parking node).  Only one record chunk, the backend's O(nodes)
    timing object and that O(resources) state are resident — the RSS that
    ``benchmarks/pipeline`` workload ``synth_stream_300k`` measures against
    the in-memory replay.  The loader's own walk reads the container: once
    seeking over RECORDS for the markers and footer, then over MARKERS for
    the chunks, one decode per payload; so
    what :func:`~repro.core.tracebin.load_trace` refuses block by block — a
    bad record, a doctored END footer — is refused with the loader's type
    and text; only ``Trace.validate``'s cross-record checks are out of reach.
    A chunk's rows are looked up only against the end markers' causes
    inside its msg_id range, so a chunk that holds none searches nothing.
    Chunks must also follow each other in inject-time order, which
    canonical captures do; a container whose chunks go back in time is
    refused with a ``ValueError`` naming the chunk.
    """
    from repro.core import tracebin

    if onoc.topology not in ONOC_TOPOLOGIES:
        raise ValueError(
            f"streaming replay has no model for topology {onoc.topology!r}")
    t0 = _walltime.perf_counter()
    last, _ = tracebin._fold(tracebin._walk(
        path, seek=frozenset({tracebin._BLOCK_RECORDS})))
    markers, footer = last[tracebin._BLOCK_MARKERS], last[tracebin._BLOCK_END]
    marker_causes = np.asarray(
        sorted({m.cause_id for m in markers if m.cause_id != -1}),
        dtype=np.int64)
    cause_deliveries: dict[int, int] = {}

    timing = timing_for(onoc)      # O(nodes); one for every chunk
    state = None
    messages = 0
    total_bytes = 0
    latency_sum = 0
    max_deliver = 0
    last = (0, _INT64_MIN)          # (t_inject, msg_id) of the last served
    walk = tracebin._walk(path, seek=frozenset({tracebin._BLOCK_MARKERS}))
    for k, chunk in enumerate(
            b for t, _, b in walk if t == tracebin._BLOCK_RECORDS):
        if not len(chunk):
            continue            # an empty RECORDS block: nothing to serve
        mid, src, dst = chunk.msg_id, chunk.src, chunk.dst
        size, inj = chunk.size_bytes, chunk.t_inject
        if onoc.num_nodes <= int(max(src.max(), dst.max())):
            raise ValueError("target network too small for trace endpoints")
        # The carried channel state is only valid going forward in the
        # service order (see ``serve_batch``): a chunk's first message in
        # (inject, msg_id) order must follow the previous chunk's last.
        order = np.lexsort((mid, inj))
        head, tail = order[0], order[-1]
        if (int(inj[head]), int(mid[head])) < last:
            raise ValueError(
                f"chunk {k} injects at {int(inj[head])}, before the previous "
                f"chunk's last injection at {last[0]}: streaming replay "
                f"needs chunks in inject-time order (load the trace and "
                f"replay it in memory instead)")
        last = (int(inj[tail]), int(mid[tail]))
        model = _model_for(timing, mid, src, dst, size)
        state = model.begin(state)
        deliver = np.empty(len(mid), dtype=np.int64)
        model.serve_batch(order, inj, deliver)
        del order       # not resident while the next chunk decodes
        messages += len(mid)
        total_bytes += int(size.sum())
        latency_sum += int((deliver - inj).sum())
        max_deliver = max(max_deliver, int(deliver.max()))
        # The causes inside the chunk's msg_id range, by two searches.
        near = marker_causes[
            np.searchsorted(marker_causes, mid.min()):
            np.searchsorted(marker_causes, mid.max(), side="right")]
        if len(near):
            hit = near[np.minimum(np.searchsorted(near, mid),
                                  len(near) - 1)] == mid
            for m, d in zip(mid[hit].tolist(), deliver[hit].tolist()):
                cause_deliveries[m] = d

    best = (_finish_from_markers(markers, cause_deliveries, {}) if markers
            else max_deliver)
    return {
        "mode": TRACE_NAIVE,
        "engine": "generational-streaming",
        "messages": messages,
        "bytes": total_bytes,
        "exec_time_estimate": best,
        "mean_latency": (latency_sum / messages) if messages else 0.0,
        "max_deliver": max_deliver,
        "captured_exec_time": footer["exec_time"],
        "chunks": footer["chunks"],
        "wall_clock_s": _walltime.perf_counter() - t0,
    }
