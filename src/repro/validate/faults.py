"""Trace fault injection: seeded, composable damage models for replay testing.

Production trace pipelines do not hand the replayer pristine artifacts: probes
drop dependency annotations, capture buffers wrap and lose the tail, whole
nodes go dark, clocks jitter, and post-processing occasionally mis-threads
causality.  This module makes each of those failure modes an explicit, seeded
:class:`FaultModel` applied to a captured :class:`~repro.core.trace.Trace`,
returning the damaged trace *plus* a typed :class:`FaultReport` listing
exactly what was damaged — so tests can assert on the injected damage and the
replayer's degradation accounting against it.

Fault catalogue
---------------
``drop_deps``   :class:`DropDepEdges` — strip the cause annotation from
                a fraction of dependent records (the trace-side generalization
                of the replayer's ``keep_dep_fraction`` ablation).  Stripped
                records are flagged in ``Trace.meta`` under
                ``DEGRADED_RECORDS_META_KEY`` — a real repair pipeline knows
                which records failed annotation checks — so the replayer can
                apply its degraded-gap policy instead of trusting them.
``jitter``      :class:`TimestampJitter` — Gaussian noise (plus optional
                multiplicative skew) on every edge gap and network latency,
                rebuilt in causal order so the damaged trace stays internally
                consistent: the classic "capture clock is not the reference
                clock" fault.
``truncate``    :class:`TruncateTail` — capture stopped early: every record
                injected after a cutoff time is lost.  Surviving records (and
                end markers) may now reference missing msg_ids.
``node_loss``   :class:`NodeRecordLoss` — per-node record loss: a subset of
                source nodes loses a fraction of its records (a dead probe or
                a dropped per-node buffer).
``rewire``      :class:`RewireDeps` — mis-threaded causality: a fraction of
                dependent records have their cause edge rewired to a different
                plausible (earlier-delivered) record, with the gap recomputed
                so the damage is arithmetically silent.

Determinism and composition
---------------------------
Every per-record decision is a pure function of ``(seed, msg_id)`` via a
splitmix64 hash — no sequential RNG state.  Consequently the three *selection*
faults (``drop_deps``, ``truncate``, ``node_loss``) commute pairwise: they
decide record-by-record from immutable fields, so application order cannot
change the outcome.  ``jitter`` and ``rewire`` rewrite timing/edges that other
faults read, so sequences involving them are order-sensitive (documented, not
checked).  :func:`apply_faults` applies a sequence left-to-right, deriving an
independent sub-seed per step.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, fields
from typing import Callable, ClassVar, Sequence

from repro.core.trace import (
    DEGRADED_RECORDS_META_KEY,
    EndMarker,
    Trace,
    TraceRecord,
    blocked_msg_ids,
)
from repro.engine.rng import mix64, unit


def _gauss(*parts) -> float:
    """Standard-normal draw derived from :func:`mix64` (Box–Muller)."""
    u1 = max(unit(*parts, 1), 1e-12)
    u2 = unit(*parts, 2)
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaultReport:
    """What one fault model actually damaged, with exact msg_id lists.

    Only the fields relevant to the fault kind are populated; the rest keep
    their empty defaults, so tests can assert both on what *was* injected and
    on what was not.
    """

    fault: str
    severity: float
    seed: int
    records_before: int
    records_after: int
    dropped_edges: tuple[int, ...] = ()    # records whose cause was stripped
    removed_records: tuple[int, ...] = ()  # records deleted from the trace
    shifted_records: tuple[int, ...] = ()  # records whose timestamps moved
    rewired_records: tuple[int, ...] = ()  # records whose cause was rewired
    lost_nodes: tuple[int, ...] = ()       # source nodes hit by node_loss
    max_abs_shift: int = 0                 # largest |t_inject change| (jitter)

    @property
    def damaged_count(self) -> int:
        """Total records this fault touched (any damage category)."""
        return len(set(self.dropped_edges) | set(self.removed_records)
                   | set(self.shifted_records) | set(self.rewired_records))


def _clone(r: TraceRecord, **changes) -> TraceRecord:
    kwargs = {f.name: getattr(r, f.name) for f in fields(TraceRecord)}
    kwargs.update(changes)
    return TraceRecord(**kwargs)


def _with_degraded_meta(trace: Trace, records: list[TraceRecord],
                        newly_degraded: Sequence[int],
                        end_markers=None, exec_time=None) -> Trace:
    """Rebuild a trace, merging ``newly_degraded`` into the degraded-ids meta
    and dropping ids that no longer resolve to a surviving record."""
    present = {r.msg_id for r in records}
    degraded = (set(trace.meta.get(DEGRADED_RECORDS_META_KEY, ()))
                | set(newly_degraded)) & present
    meta = dict(trace.meta)
    if degraded:
        meta[DEGRADED_RECORDS_META_KEY] = sorted(degraded)
    else:
        meta.pop(DEGRADED_RECORDS_META_KEY, None)
    return Trace(
        records=records,
        end_markers=(trace.end_markers if end_markers is None
                     else end_markers),
        exec_time=trace.exec_time if exec_time is None else exec_time,
        meta=meta,
    )


# ---------------------------------------------------------------------------
# Fault models
# ---------------------------------------------------------------------------

class FaultModel:
    """Base class: a seeded, deterministic trace transformation."""

    name: ClassVar[str] = "fault"

    @property
    def severity(self) -> float:  # pragma: no cover - overridden
        raise NotImplementedError

    def apply(self, trace: Trace, seed: int) -> tuple[Trace, FaultReport]:
        raise NotImplementedError


@dataclass(frozen=True)
class DropDepEdges(FaultModel):
    """Strip the dependency annotation from ``fraction`` of dependent records.

    Damaged records become structural roots (``cause_id = -1``, ``gap =
    t_inject``) and are flagged in the trace meta so the
    replayer knows they are degraded rather than genuine program-start sends.
    """

    name: ClassVar[str] = "drop_deps"
    fraction: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {self.fraction}")

    @property
    def severity(self) -> float:
        return self.fraction

    def apply(self, trace: Trace, seed: int) -> tuple[Trace, FaultReport]:
        dropped: list[int] = []
        records: list[TraceRecord] = []
        for r in trace.records:
            if r.cause_id != -1 and unit(seed, r.msg_id) < self.fraction:
                dropped.append(r.msg_id)
                records.append(_clone(r, cause_id=-1, gap=r.t_inject))
            else:
                records.append(r)
        report = FaultReport(
            fault=self.name, severity=self.fraction, seed=seed,
            records_before=len(trace), records_after=len(records),
            dropped_edges=tuple(dropped))
        return _with_degraded_meta(trace, records, dropped), report


@dataclass(frozen=True)
class TimestampJitter(FaultModel):
    """Gaussian noise (σ = ``sigma_cycles``) plus multiplicative ``skew`` on
    every edge gap and latency, rebuilt in causal order.

    The damaged trace remains internally consistent (it still validates):
    this models a capture clock that disagrees with the reference clock, not
    a corrupted file.  End-marker gaps are perturbed the same way and
    ``exec_time`` re-derived, so the artifact lies coherently.
    """

    name: ClassVar[str] = "jitter"
    sigma_cycles: float
    skew: float = 0.0

    def __post_init__(self) -> None:
        if self.sigma_cycles < 0:
            raise ValueError(
                f"sigma_cycles must be >= 0, got {self.sigma_cycles}")
        if self.skew <= -1.0:
            raise ValueError(f"skew must be > -1, got {self.skew}")

    @property
    def severity(self) -> float:
        return self.sigma_cycles

    def _stretch(self, value: int, noise: float) -> int:
        return max(0, round(value * (1.0 + self.skew)
                            + noise * self.sigma_cycles))

    def apply(self, trace: Trace, seed: int) -> tuple[Trace, FaultReport]:
        new_deliver: dict[int, int] = {}
        new_records: dict[int, TraceRecord] = {}
        for r in trace.causal_order():
            latency = max(1, round(max(1, r.latency) * (1.0 + self.skew)
                                   + _gauss(seed, r.msg_id, "lat")
                                   * self.sigma_cycles))
            noise = _gauss(seed, r.msg_id, "gap")
            cause_at = new_deliver.get(r.cause_id)
            if r.cause_id == -1:
                inject = gap = self._stretch(r.gap, noise)
            elif cause_at is None:
                # Cause already missing (composed after a record-loss fault):
                # keep the stale annotation, jitter the absolute stamp.
                inject, gap = self._stretch(r.t_inject, noise), r.gap
            else:
                gap = self._stretch(r.gap, noise)
                inject = cause_at + gap
            new_deliver[r.msg_id] = inject + latency
            new_records[r.msg_id] = _clone(
                r, t_inject=inject, t_deliver=inject + latency, gap=gap)

        markers: list[EndMarker] = []
        for m in trace.end_markers:
            noise = _gauss(seed, "marker", m.node)
            if m.cause_id == -1 or m.cause_id not in new_deliver:
                finish = self._stretch(m.t_finish, noise)
                markers.append(EndMarker(m.node, finish, m.cause_id,
                                         finish if m.cause_id == -1
                                         else m.gap))
            else:
                gap = self._stretch(m.gap, noise)
                markers.append(EndMarker(
                    m.node, new_deliver[m.cause_id] + gap, m.cause_id, gap))
        exec_time = max((m.t_finish for m in markers),
                        default=max(new_deliver.values(), default=0))

        order = sorted(trace.records, key=lambda r: (r.t_inject, r.msg_id))
        records = [new_records[r.msg_id] for r in order]
        shifted = tuple(r.msg_id for r in order
                        if new_records[r.msg_id].t_inject != r.t_inject)
        max_shift = max(
            (abs(new_records[r.msg_id].t_inject - r.t_inject)
             for r in order), default=0)
        report = FaultReport(
            fault=self.name, severity=self.sigma_cycles, seed=seed,
            records_before=len(trace), records_after=len(records),
            shifted_records=shifted, max_abs_shift=max_shift)
        return _with_degraded_meta(trace, records, (), end_markers=markers,
                                   exec_time=exec_time), report


@dataclass(frozen=True)
class TruncateTail(FaultModel):
    """Capture stopped early: drop every record injected in the last
    ``fraction`` of the captured execution window.

    The cutoff is a pure function of the record's own ``t_inject`` and the
    trace's ``exec_time``, so truncation commutes with the other selection
    faults.  End markers and ``exec_time`` are deliberately left untouched —
    that *is* the damage: the artifact claims a full run it no longer
    contains.
    """

    name: ClassVar[str] = "truncate"
    fraction: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {self.fraction}")

    @property
    def severity(self) -> float:
        return self.fraction

    def apply(self, trace: Trace, seed: int) -> tuple[Trace, FaultReport]:
        horizon = trace.exec_time or max(
            (r.t_inject for r in trace.records), default=0)
        cutoff = math.floor(horizon * (1.0 - self.fraction))
        kept = [r for r in trace.records if r.t_inject <= cutoff]
        removed = tuple(r.msg_id for r in trace.records
                        if r.t_inject > cutoff)
        report = FaultReport(
            fault=self.name, severity=self.fraction, seed=seed,
            records_before=len(trace), records_after=len(kept),
            removed_records=removed)
        return _with_degraded_meta(trace, kept, ()), report


@dataclass(frozen=True)
class NodeRecordLoss(FaultModel):
    """A subset of source nodes loses ``fraction`` of its records.

    Node selection and per-record loss are both hashed decisions, so this
    commutes with ``drop_deps`` and ``truncate``.  Models a dead or flaky
    per-node capture probe.
    """

    name: ClassVar[str] = "node_loss"
    fraction: float
    node_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {self.fraction}")
        if not 0.0 < self.node_fraction <= 1.0:
            raise ValueError(
                f"node_fraction must be in (0, 1], got {self.node_fraction}")

    @property
    def severity(self) -> float:
        return self.fraction

    def apply(self, trace: Trace, seed: int) -> tuple[Trace, FaultReport]:
        nodes = sorted({r.src for r in trace.records})
        lost_nodes = tuple(n for n in nodes
                           if unit(seed, "node", n) < self.node_fraction)
        lost_set = set(lost_nodes)
        kept: list[TraceRecord] = []
        removed: list[int] = []
        for r in trace.records:
            if r.src in lost_set and unit(seed, r.msg_id) < self.fraction:
                removed.append(r.msg_id)
            else:
                kept.append(r)
        report = FaultReport(
            fault=self.name, severity=self.fraction, seed=seed,
            records_before=len(trace), records_after=len(kept),
            removed_records=tuple(removed), lost_nodes=lost_nodes)
        return _with_degraded_meta(trace, kept, ()), report


@dataclass(frozen=True)
class RewireDeps(FaultModel):
    """Mis-thread causality: rewire the cause edge of ``fraction`` of
    dependent records to a different earlier-delivered record.

    The gap is recomputed against the new cause's delivery so every per-edge
    arithmetic check still balances — the damage is only visible as wrong
    *structure*.  Rewires that would create a dependency cycle (possible only
    in degenerate zero-latency traces) are reverted, keeping the fault's
    output schedulable.
    """

    name: ClassVar[str] = "rewire"
    fraction: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {self.fraction}")

    @property
    def severity(self) -> float:
        return self.fraction

    def apply(self, trace: Trace, seed: int) -> tuple[Trace, FaultReport]:
        originals = {r.msg_id: r for r in trace.records}
        deliveries = sorted((r.t_deliver, r.msg_id) for r in trace.records)
        deliver_times = [t for t, _ in deliveries]
        records: list[TraceRecord] = []
        rewired: set[int] = set()
        for r in trace.records:
            if r.cause_id == -1 or unit(seed, r.msg_id) >= self.fraction:
                records.append(r)
                continue
            hi = bisect_right(deliver_times, r.t_inject)
            candidates = [mid for _, mid in deliveries[:hi]
                          if mid not in (r.msg_id, r.cause_id)]
            if not candidates:
                records.append(r)
                continue
            new_cause = candidates[mix64(seed, r.msg_id, "pick")
                                   % len(candidates)]
            rewired.add(r.msg_id)
            records.append(_clone(
                r, cause_id=new_cause,
                gap=r.t_inject - originals[new_cause].t_deliver))
        # Revert any rewire that manufactured a cycle (pre-existing damage,
        # e.g. from composed record-loss faults, is left alone).
        pre_existing = blocked_msg_ids(trace.records)
        while True:
            bad = (blocked_msg_ids(records) - pre_existing) & rewired
            if not bad:
                break
            records = [originals[r.msg_id] if r.msg_id in bad else r
                       for r in records]
            rewired -= bad
        report = FaultReport(
            fault=self.name, severity=self.fraction, seed=seed,
            records_before=len(trace), records_after=len(records),
            rewired_records=tuple(sorted(rewired)))
        return _with_degraded_meta(trace, records, ()), report


# ---------------------------------------------------------------------------
# Composition, severity families, spec parsing
# ---------------------------------------------------------------------------

def apply_faults(
    trace: Trace,
    faults: Sequence[FaultModel],
    seed: int,
) -> tuple[Trace, tuple[FaultReport, ...]]:
    """Apply ``faults`` left-to-right, each with an independent derived seed.

    Deterministic in ``(trace, faults, seed)``.  Sub-seeds are keyed on the
    fault *name* (plus an occurrence counter for repeated kinds), not the
    sequence position — so reordering a sequence of distinct selection
    faults leaves every per-record decision unchanged, which is what makes
    them commute.  Returns the damaged trace and one :class:`FaultReport`
    per fault, in application order.
    """
    reports: list[FaultReport] = []
    occurrence: dict[str, int] = {}
    for i, fault in enumerate(faults):
        if not isinstance(fault, FaultModel):
            raise TypeError(f"faults[{i}] is not a FaultModel: {fault!r}")
        nth = occurrence.get(fault.name, 0)
        occurrence[fault.name] = nth + 1
        trace, report = fault.apply(trace, mix64(seed, fault.name, nth))
        reports.append(report)
    return trace, tuple(reports)


#: Severity-parameterized constructors (severity in [0, 1]) for fault-matrix
#: sweeps: error-vs-severity curves use one family at a time.
_JITTER_SEVERITY_CYCLES = 40.0

FAULT_FAMILIES: dict[str, Callable[[float], FaultModel]] = {
    "drop_deps": lambda s: DropDepEdges(s),
    "truncate": lambda s: TruncateTail(s),
    "node_loss": lambda s: NodeRecordLoss(s),
    "rewire": lambda s: RewireDeps(s),
    "jitter": lambda s: TimestampJitter(s * _JITTER_SEVERITY_CYCLES),
}

_FAULT_KINDS: dict[str, type[FaultModel]] = {
    cls.name: cls
    for cls in (DropDepEdges, TimestampJitter, TruncateTail,
                NodeRecordLoss, RewireDeps)
}


def parse_fault_specs(spec: str) -> tuple[FaultModel, ...]:
    """Parse a CLI fault list: ``"drop_deps:0.3,jitter:8,truncate:0.1"``.

    Each element is ``name:param[:param2]`` — the params are the fault's
    positional dataclass fields (``jitter:8:0.05`` sets sigma and skew,
    ``node_loss:0.3:0.5`` sets fraction and node_fraction).
    """
    out: list[FaultModel] = []
    for part in (p.strip() for p in spec.split(",") if p.strip()):
        pieces = part.split(":")
        kind = _FAULT_KINDS.get(pieces[0])
        if kind is None:
            raise ValueError(
                f"unknown fault {pieces[0]!r}; "
                f"expected one of {sorted(_FAULT_KINDS)}")
        try:
            params = [float(p) for p in pieces[1:]]
        except ValueError as exc:
            raise ValueError(f"bad fault parameter in {part!r}") from exc
        if not params:
            raise ValueError(f"fault {part!r} needs at least one parameter")
        out.append(kind(*params))
    if not out:
        raise ValueError(f"no faults in spec {spec!r}")
    return tuple(out)


def fault_to_dict(fault: FaultModel) -> dict:
    """JSON-friendly form (round-trips via :func:`fault_from_dict`)."""
    return {"kind": fault.name,
            **{f.name: getattr(fault, f.name) for f in fields(fault)}}


def fault_from_dict(blob: dict) -> FaultModel:
    blob = dict(blob)
    kind = _FAULT_KINDS.get(blob.pop("kind", None))
    if kind is None:
        raise ValueError(f"unknown fault kind in {blob!r}")
    return kind(**blob)
