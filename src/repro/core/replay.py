"""Trace replayers: naive (timestamped) and self-correcting (the paper's).

Both drive a trace into any :class:`repro.net.NetworkAdapter`:

* **Naive** replays the captured absolute injection times.  On a network
  different from the capture network this embeds the *capture* network's
  timing into the workload — the inaccuracy the paper identifies.
* **Self-correcting** re-derives each injection time online: a message is
  injected at ``deliver(cause) + gap``, its cause's delivery evaluated in
  **the current simulation**.  The timeline thus continuously corrects
  itself to the target network.  Roots (no cause) keep their captured
  offsets.

Which records are roots, which keep their trigger edges and which ride a
neighbour anchor is not decided here: :func:`repro.core.plan.classify`
computes that plan once, from the trace and the ablation / gap-policy
scalars, and :class:`SelfCorrectingReplayer` only schedules it — as does
the vectorized engine in :mod:`repro.core.generational`, from the same
plan.  Both hand their schedule to :func:`_assemble_result`.

The execution-time estimate in both cases applies the per-core end markers
to the *observed* deliveries: ``finish(core) = deliver(last_cause) + gap``.
"""

from __future__ import annotations

import time as _walltime
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np

from repro.config import (
    ENGINE_GENERATIONAL,
    GAP_POLICIES,
    GAP_POLICY_CAPTURED,
    GAP_POLICY_NEIGHBOR,
    TRACE_NAIVE,
    TRACE_SELF_CORRECTING,
    TraceConfig,
)
from repro.engine import Simulator
from repro.net import Message, NetworkAdapter
from repro.obs.probes import replay_scope, timeline_or_none
from repro.onoc.timing import timing_for
from repro.core.plan import Columns, Plan, classify
from repro.core.trace import SemanticKey, Trace, TraceRecord

# A factory producing a fresh (simulator, network) pair per replay pass.
NetworkFactory = Callable[[], tuple[Simulator, NetworkAdapter]]


@dataclass(frozen=True)
class FaultExposure:
    """How much trace damage a self-correcting replay was exposed to, and
    what the replayer did about it.

    * ``policy`` — the ``degraded_gap_policy`` in effect (see
      :class:`repro.config.TraceConfig`);
    * ``ablated`` — dependency edges discarded by ``keep_dep_fraction``;
    * ``marked_degraded`` — records flagged in the trace meta under
      ``DEGRADED_RECORDS_META_KEY`` by the fault-injection layer;
    * ``missing_triggers`` — kept records whose cause msg_id is absent
      from the trace (record loss upstream);
    * ``rederived`` / ``rederived_msg_ids`` — degraded records whose
      injection time was re-derived from a surviving neighbor anchor
      (empty under the ``captured`` policy);
    * ``fallback_captured`` — degraded records with no usable anchor (first
      record on their node) that fell back to the captured timestamp.
    """

    policy: str
    ablated: int = 0
    marked_degraded: int = 0
    missing_triggers: int = 0
    rederived: int = 0
    fallback_captured: int = 0
    rederived_msg_ids: tuple[int, ...] = ()


@dataclass
class ReplayResult:
    """Outcome of one replay pass.

    The self-correction diagnostics are first-class typed fields (they were
    ad-hoc ``extra`` keys before the validation subsystem landed and started
    asserting them — see :mod:`repro.validate.invariants`):

    * ``dropped_deps`` — dependency edges discarded by ``keep_dep_fraction``
      ablation (those records fall back to timestamp-driven roots);
    * ``demoted_cyclic`` — records demoted to timestamp-driven roots because
      their dependency edges formed a cycle (degenerate, unvalidated traces
      only; a validated :class:`Trace` is guaranteed acyclic);
    * ``stalled_count`` / ``stalled_msg_ids`` / ``stalled_on`` — records whose
      trigger messages never delivered (msg-id lists are capped at
      ``_STALL_DETAIL_CAP`` entries; the count is not).

    ``extra`` remains for experiment-level annotations (e.g. the iterative
    refiner's convergence history).

    ``injections``, ``deliveries`` and ``latencies_by_key`` are built on
    first read from the arrays the engine solved (the semantic keys only
    for the last); a pickled result carries the dicts, not the arrays or
    the trace.
    """

    mode: str
    exec_time_estimate: int
    latencies_by_key: dict[SemanticKey, int]
    deliveries: dict[int, int]              # msg_id -> deliver time
    injections: dict[int, int]              # msg_id -> inject time
    messages_replayed: int
    messages_unreplayed: int
    wall_clock_s: float
    sim_events: int
    dropped_deps: int = 0
    demoted_cyclic: int = 0
    stalled_count: int = 0
    stalled_msg_ids: list[int] = field(default_factory=list)
    stalled_on: dict[int, list[int]] = field(default_factory=dict)
    rederived_records: int = 0
    fault_exposure: Optional[FaultExposure] = None
    extra: dict = field(default_factory=dict)

    def __getattr__(self, name: str):
        # Reached for the first read of a dict left to ``_schedule``.
        build = self.__dict__.get("_schedule", {}).get(name)
        if build is None:
            raise AttributeError(
                f"'ReplayResult' object has no attribute {name!r}")
        value = self.__dict__[name] = build()
        return value

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _finish_from_markers(end_markers, deliveries: dict[int, int],
                         node_last: dict[int, tuple[int, int]]) -> int:
    """Latest per-core finish: ``deliver(marker cause) + gap``.

    A marker whose cause is not in ``deliveries`` falls back to the
    captured finish time — unless ``node_last`` names a surviving delivery
    to that core, as ``(captured t_deliver, replayed t_deliver)``: then the
    finish is re-derived from it, keeping the captured tail offset
    (``t_finish - captured deliver``).
    """
    best = 0
    for m in end_markers:
        if m.cause_id == -1:
            t = m.t_finish
        else:
            d = deliveries.get(m.cause_id)
            if d is not None:
                t = d + m.gap
            elif m.node in node_last:
                captured, replayed = node_last[m.node]
                t = max(0, replayed + (m.t_finish - captured))
            else:
                t = m.t_finish
        best = max(best, t)
    return best


def _estimate_exec_time(trace: Trace, cols: Columns, delivered: np.ndarray,
                        at: np.ndarray, rederive_markers: bool = False) -> int:
    """Apply end markers to the deliveries (per record: ``delivered``, ``at``).

    With ``rederive_markers`` a marker whose cause never delivered (trace
    damage, record loss) is re-derived from the latest surviving delivery
    to that core, mirroring the neighbor-anchor policy the degraded
    replayer applies to injections; otherwise it keeps the captured finish.
    """
    markers = trace.end_markers
    if not markers:
        return int(at[delivered].max()) if delivered.any() else 0
    cause = cols.index_of(np.array([m.cause_id for m in markers],
                                   dtype=np.int64)).tolist()
    causes = {m.cause_id: int(at[i]) for m, i in zip(markers, cause)
              if i >= 0 and delivered[i]}
    node_last: dict[int, tuple[int, int]] = {}
    if rederive_markers and any(m.cause_id != -1 and m.cause_id not in causes
                                for m in markers):
        # Per node, the delivered record latest by (t_deliver, msg_id).
        d = np.flatnonzero(delivered)
        captured = trace.chunk.t_deliver[d]
        dst = cols.dst[d]
        order = np.lexsort((cols.ids[d], captured, dst))
        last = order[np.r_[dst[order][1:] != dst[order][:-1], True]]
        node_last = dict(zip(dst[last].tolist(), zip(
            captured[last].tolist(), at[d[last]].tolist())))
    return _finish_from_markers(markers, causes, node_last)


#: Cap on per-message stall detail so a badly broken dependency graph
#: cannot blow up the result object.
_STALL_DETAIL_CAP = 50


def _assemble_result(
    trace: Trace,
    mode: str,
    injections: tuple[np.ndarray, np.ndarray],
    deliveries: tuple[np.ndarray, np.ndarray],
    t0: float,
    *,
    sim_events: int = 0,
    extra: Optional[dict] = None,
    plan: Optional[Plan] = None,
) -> ReplayResult:
    """The one place a :class:`ReplayResult` is built: both engines hand in
    the schedule they solved (``(record positions, times)`` arrays of the
    injections and of the deliveries) and, for a self-correcting run, the
    :class:`~repro.core.plan.Plan` they scheduled; everything derived from
    the two — latencies, the exec-time estimate, stall post-mortem, fault
    exposure — is computed here.  (:func:`replay_trace` adds the resilience
    payload of a degraded replay: neither engine knows about that.)

    *Stalled* records are dependents the schedule never injected: their
    cause never delivered, because the dependency graph references msg_ids
    missing from the trace or because they wait transitively behind such a
    record; ``stalled_on`` names each one's undelivered cause.  *Re-derived*
    records are the anchored ones it did inject.
    """
    cols = Columns.of(trace)
    ids = cols.ids
    (inj_pos, inj_t), (del_pos, del_t) = injections, deliveries
    delivered = np.zeros(cols.n, dtype=bool)
    delivered[del_pos] = True
    at = np.zeros(cols.n, dtype=np.int64)
    at[del_pos] = del_t
    diagnostics: dict = {}
    if plan is not None:
        injected = np.zeros(cols.n, dtype=bool)
        injected[inj_pos] = True
        stalled = np.flatnonzero(plan.dependent & ~injected)
        shown = stalled[np.argsort(ids[stalled])[:_STALL_DETAIL_CAP]]
        # Per shown record, whether its cause never landed: absent (-2) or
        # present but undelivered.
        idx = cols.cause_idx[shown]
        waits = (idx != -1) & ~((idx >= 0) & delivered[np.maximum(idx, 0)])
        rederived = tuple(np.sort(ids[plan.anchored & injected]).tolist())
        diagnostics = dict(
            dropped_deps=plan.dropped_deps,
            demoted_cyclic=len(plan.demoted),
            stalled_count=len(stalled),
            stalled_msg_ids=ids[shown].tolist(),
            stalled_on={
                mid: [cause] if wait else []
                for mid, cause, wait in zip(
                    ids[shown].tolist(), cols.cause_id[shown].tolist(),
                    waits.tolist())},
            rederived_records=len(rederived),
            fault_exposure=FaultExposure(
                policy=plan.policy,
                ablated=plan.dropped_deps,
                marked_degraded=plan.marked_degraded,
                missing_triggers=plan.missing_triggers,
                rederived=len(rederived),
                fallback_captured=plan.fallback_captured,
                rederived_msg_ids=rederived,
            ),
        )
    result = ReplayResult(
        mode=mode,
        exec_time_estimate=_estimate_exec_time(
            trace, cols, delivered, at,
            # Non-captured policies also re-derive end markers whose cause
            # never delivered.
            rederive_markers=(plan is not None
                              and plan.policy != GAP_POLICY_CAPTURED)),
        latencies_by_key=None, deliveries=None, injections=None,
        messages_replayed=len(inj_pos),
        messages_unreplayed=cols.n - len(inj_pos),
        wall_clock_s=_walltime.perf_counter() - t0,
        sim_events=sim_events,
        extra=dict(extra or {}),
        **diagnostics,
    )
    # The schedule dicts, in the order each pair of arrays came in, are
    # built on first read (``ReplayResult.__getattr__``).
    inject_at = np.zeros(cols.n, dtype=np.int64)
    inject_at[inj_pos] = inj_t
    result.__dict__["_schedule"] = {
        "injections": lambda: dict(zip(ids[inj_pos].tolist(), inj_t.tolist())),
        "deliveries": lambda: dict(zip(ids[del_pos].tolist(), del_t.tolist())),
        "latencies_by_key": lambda: dict(zip(
            map(trace.semantic_keys().__getitem__, del_pos.tolist()),
            (del_t - inject_at[del_pos]).tolist())),
    }
    for name in result._schedule:
        del result.__dict__[name]
    return result


class _ReplayerBase:
    """Shared delivery bookkeeping."""

    mode = "base"

    def __init__(self, trace: Trace, sim: Simulator, net: NetworkAdapter) -> None:
        cols = Columns.of(trace)
        if cols.n and net.num_nodes <= int(max(cols.src.max(), cols.dst.max())):
            raise ValueError("target network too small for trace endpoints")
        self.trace = trace
        self.sim = sim
        self.net = net
        self.deliveries: dict[int, int] = {}
        self.injections: dict[int, int] = {}
        # repro.obs scope (None while instrumentation is disabled).
        self._obs = replay_scope(self.mode)
        net.set_delivery_handler(self._on_deliver)

    def _send(self, r: TraceRecord) -> None:
        # The wire message keeps the record's id, for matching.
        self.injections[r.msg_id] = self.sim.now
        self.net.send(Message(r.src, r.dst, r.size_bytes, r.kind,
                              payload=r.key, msg_id=r.msg_id))

    def _on_deliver(self, msg: Message) -> None:
        self.deliveries[msg.id] = msg.deliver_time

    def _result(self, t0: float, **kwargs) -> ReplayResult:
        index_of = Columns.of(self.trace).index_of
        result = _assemble_result(
            self.trace, self.mode,
            *((index_of(np.fromiter(times, np.int64, len(times))),
               np.fromiter(times.values(), np.int64, len(times)))
              for times in (self.injections, self.deliveries)),
            t0, sim_events=self.sim.event_count, **kwargs)
        if self._obs is not None:
            self._publish_metrics(result)
        return result

    def _publish_metrics(self, result: ReplayResult) -> None:
        """Promote replay counters into the ``replay.<mode>`` obs scope."""
        scope = self._obs
        scope.counter("messages_replayed").inc(result.messages_replayed)
        scope.counter("messages_unreplayed").inc(result.messages_unreplayed)
        scope.counter("sim_events").inc(result.sim_events)
        scope.distribution("wall_clock_s").observe(result.wall_clock_s)


class FixedScheduleReplayer(_ReplayerBase):
    """Replay a fixed per-message schedule, by default the captured
    absolute timestamps — the baseline trace methodology, ``mode="naive"``.
    The offline iterative refinement loop passes each rebuilt schedule
    under its own ``mode``."""

    def __init__(self, trace: Trace, sim: Simulator, net: NetworkAdapter,
                 schedule: Optional[dict[int, int]] = None,
                 mode: str = TRACE_NAIVE) -> None:
        self.mode = mode
        super().__init__(trace, sim, net)
        if schedule is not None:
            missing = [r.msg_id for r in trace.records
                       if r.msg_id not in schedule]
            if missing:
                raise ValueError(f"schedule missing msg_ids {missing[:5]}...")
        self.schedule = schedule

    def run(self) -> ReplayResult:
        t0 = _walltime.perf_counter()
        sched = self.schedule
        self.sim.schedule_many(
            (r.t_inject if sched is None else sched[r.msg_id], self._send, (r,))
            for r in self.trace.records)
        self.sim.run()
        return self._result(t0)


#: Replaying the captured timestamps is the fixed-schedule replay's default.
NaiveReplayer = FixedScheduleReplayer


class SelfCorrectingReplayer(_ReplayerBase):
    """The paper's model: online dependency-driven injection.

    ``keep_dep_fraction < 1`` ablates the model by demoting a random subset
    of records to timestamp-driven roots (Fig. 7's sensitivity axis).

    **Degraded records** — ablated records, records flagged by the
    fault-injection layer (``DEGRADED_RECORDS_META_KEY`` in the trace meta),
    and records whose trigger msg_ids are missing from the trace — are
    handled per ``degraded_gap_policy``:

    * ``captured`` — the historical behaviour: ablated/flagged records
      replay their captured absolute timestamp (re-anchoring the schedule to
      the *capture* network — the PR-4 cliff), missing-trigger records stall
      with diagnostics.
    * ``neighbor_gap`` (default) — a degraded record anchors to its
      predecessor on the same source node in captured order and injects at
      ``replayed_inject(anchor) + captured inter-send delta``.  The delta is
      network-independent local behaviour, so the record rides the corrected
      schedule instead of dragging it back to capture time.  With *every*
      record degraded this telescopes to exactly naive replay — the graceful
      endpoint of the severity curve.

    Degraded records with no predecessor on their node fall back to the
    captured timestamp (counted in ``FaultExposure.fallback_captured``).
    Dependency-cycle members (hand-built traces only) are demoted to
    captured-timestamp roots under every policy and reported in
    ``ReplayResult.demoted_cyclic``.

    The classification itself — ablation draw, anchors, cycle demotion — is
    :func:`repro.core.plan.classify`'s; this class turns the plan into
    event-queue callbacks.  A replayer runs once.
    """

    mode = TRACE_SELF_CORRECTING

    def __init__(
        self,
        trace: Trace,
        sim: Simulator,
        net: NetworkAdapter,
        keep_dep_fraction: float = 1.0,
        dep_drop_seed: int = 12345,
        degraded_gap_policy: str = GAP_POLICY_NEIGHBOR,
    ) -> None:
        super().__init__(trace, sim, net)
        if not 0.0 <= keep_dep_fraction <= 1.0:
            raise ValueError(f"keep_dep_fraction out of range: {keep_dep_fraction}")
        if degraded_gap_policy not in GAP_POLICIES:
            raise ValueError(
                f"unknown degraded_gap_policy {degraded_gap_policy!r} "
                f"(expected one of {GAP_POLICIES})")
        # What drives each record is decided once, by ``classify``; the
        # tables below only index its plan by msg_id for the callbacks.
        plan = classify(trace, keep_dep_fraction=keep_dep_fraction,
                        dep_drop_seed=dep_drop_seed,
                        degraded_gap_policy=degraded_gap_policy)
        self._plan = plan
        self.dropped_deps = plan.dropped_deps
        self.demoted_cyclic = plan.demoted
        records = trace.records
        # Cause msg_id -> the records waiting on its delivery, in plan
        # order (same-time releases are scheduled in it); per released
        # record, its re-derived injection time.  Keys are the records' own
        # msg_id objects, not fresh ints off the arrays (peak RSS again, see
        # ``run``).
        self._dependents: dict[int, list[TraceRecord]] = {}
        self._start_time: dict[int, int] = {}
        for p, c in zip(plan.d_parent.tolist(), plan.d_child.tolist()):
            self._dependents.setdefault(records[p].msg_id, []).append(
                records[c])
        # Degraded-record machinery: anchor msg_id -> [(record, captured
        # inter-send delta)].
        self._anchored: dict[int, list[tuple[TraceRecord, int]]] = {}
        for p, c, delta in zip(plan.a_parent.tolist(), plan.a_child.tolist(),
                               plan.a_delta.tolist()):
            self._anchored.setdefault(records[p].msg_id, []).append(
                (records[c], delta))
        # Bound once: per-correction timeline tracing (opt-in, None normally).
        self._tl = timeline_or_none()

    def run(self) -> ReplayResult:
        t0 = _walltime.perf_counter()
        # The plan goes with the one run a replayer makes: the replayer sits
        # in a reference cycle with its network until a full GC, so whatever
        # it kept would count against the process's peak RSS.
        plan, self._plan = self._plan, None
        records = self.trace.records
        self.sim.schedule_many(
            (t, self._send, (records[i],))
            for i, t in zip(plan.root_order.tolist(),
                            plan.root_time[plan.root_order].tolist()))
        self.sim.run()
        return self._result(t0, plan=plan)

    # ``_send`` and ``_on_deliver`` run once per replayed message: each is
    # one level deep and reads the clock once.
    def _send(self, r: TraceRecord) -> None:
        mid = r.msg_id
        now = self.injections[mid] = self.sim.now
        self.net.send(Message(r.src, r.dst, r.size_bytes, r.kind,
                              payload=r.key, msg_id=mid))
        # Release degraded records anchored to this injection: they re-fire
        # the captured inter-send delta after the anchor's *replayed* time.
        for dep, delta in self._anchored.get(mid, ()):
            if self._tl is not None:
                self._tl.record(now + delta, f"node{dep.src}",
                                "replay.rederive")
            self.sim.schedule(now + delta, self._send, (dep,))

    def _publish_metrics(self, result: ReplayResult) -> None:
        """Base counters plus the self-correction diagnostics the paper's
        accuracy argument rests on: how many injection times were re-derived
        online, by how much they moved vs the captured timestamps, and how
        many dependents stalled waiting on undelivered triggers."""
        super()._publish_metrics(result)
        scope = self._obs
        exposure = result.fault_exposure
        # ``_start_time`` holds exactly the dependents that fired.
        scope.counter("corrections_applied").inc(len(self._start_time))
        scope.counter("stalled").inc(result.stalled_count)
        scope.counter("dropped_deps").inc(result.dropped_deps)
        scope.counter("demoted_cyclic").inc(result.demoted_cyclic)
        scope.counter("rederived").inc(result.rederived_records)
        scope.counter("fallback_captured").inc(exposure.fallback_captured)
        scope.counter("missing_triggers").inc(exposure.missing_triggers)
        scope.counter("marked_degraded").inc(exposure.marked_degraded)
        shift = scope.distribution("correction_shift_cycles")
        captured = {r.msg_id: r.t_inject for r in self.trace.records}
        for mid, start in self._start_time.items():
            shift.observe(start - captured[mid])

    def _on_deliver(self, msg: Message) -> None:
        mid, delivered = msg.id, msg.deliver_time
        self.deliveries[mid] = delivered
        start_time = self._start_time
        for dep in self._dependents.get(mid, ()):
            # The cause landed: the send follows its capture-measured gap.
            start = start_time[dep.msg_id] = delivered + dep.gap
            if self._tl is not None:
                self._tl.record(start, f"node{dep.src}", "replay.correction")
            self.sim.schedule(start, self._send, (dep,))


def replay_trace(
    trace: Trace,
    network_factory: NetworkFactory,
    cfg: Optional[TraceConfig] = None,
) -> ReplayResult:
    """One-call replay using the mode and engine selected in ``cfg``.

    With the default ``event`` engine a fresh network is built from
    ``network_factory`` and the discrete-event replayers run on it.  With
    ``engine="generational"`` the vectorized engine takes over; it needs the
    target's :class:`~repro.config.OnocConfig` rather than a live network,
    which the harness factories expose as a ``.onoc`` attribute
    (``None`` on electrical factories — the generational engine only models
    the optical backends).

    A fault timeseries (``cfg.fault_events``) is priced here, once, for
    whichever engine runs: the target's timing object is degraded before
    the engine sees it, and the penalties it charged are accounted in
    ``extra["resilience"]`` afterwards.  An empty timeseries touches
    nothing, preserving the byte-identical stock replay path.
    """
    cfg = cfg or TraceConfig()
    generational = cfg.engine == ENGINE_GENERATIONAL
    if generational:
        onoc = getattr(network_factory, "onoc", None)
        if onoc is None:
            raise ValueError(
                "generational engine needs an optical target: the network "
                "factory does not expose an OnocConfig via '.onoc' (use "
                "repro.harness.builders.optical_factory, or pass "
                "engine='event' for electrical targets)")
        from repro.core.generational import replay_trace_generational
    else:
        sim, net = network_factory()
    timing = overlay = None
    if cfg.fault_events:
        from repro.resilience.overlay import (
            DegradationOverlay,
            resilience_extra,
        )
        # A hybrid degrades its optical sublayer; the electrical layer has
        # no photonic drift to model.
        timing = (timing_for(onoc) if generational else
                  getattr(getattr(net, "optical", net), "timing", None))
        if timing is None:
            raise ValueError(
                "degradation timeseries need an optical (or hybrid) target; "
                f"{type(net).__name__} has no optical timing to degrade")
        overlay = DegradationOverlay.build(
            cfg.fault_events, timing, cfg.mitigation)
    if generational:
        result = replay_trace_generational(trace, onoc, cfg, timing)
    elif cfg.mode == TRACE_NAIVE:
        result = NaiveReplayer(trace, sim, net).run()
    else:
        result = SelfCorrectingReplayer(
            trace, sim, net,
            keep_dep_fraction=cfg.keep_dep_fraction,
            dep_drop_seed=cfg.dep_drop_seed,
            degraded_gap_policy=cfg.degraded_gap_policy,
        ).run()
    if overlay is not None:
        result.extra["resilience"] = resilience_extra(overlay)
    return result
