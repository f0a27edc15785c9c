"""Trace artifact: dependency-annotated message records.

A record stores, besides the usual (src, dst, size, kind, timestamp) tuple
of a classic network trace, the two fields the self-correction model needs:

* ``cause_id`` — the message whose *arrival* triggered this send (-1 for
  spontaneous sends at program start),
* ``gap`` — the network-independent time between that arrival and this send
  (core compute, cache hits, directory occupancy...), and
* ``bound_id`` / ``bound_gap`` — optional secondary trigger edge: when a
  send was released by the *later* of two arrivals (a queued directory
  request: its own arrival vs the previous transaction's completion), both
  edges are recorded with their own capture-measured delays and replay uses
  the classic DAG earliest-start rule
  ``inject = max(deliver(cause) + gap, deliver(bound) + bound_gap)``.
  On the capture network both sums equal the captured injection time (the
  non-binding arm's delay simply absorbs its slack), so the max re-evaluates
  correctly under any target network's timing.

``key`` is a semantic identity ``(src, dst, kind, line, occurrence)`` that is
stable across runs of the same workload on different networks, used to match
per-message latencies between a replay and an execution-driven reference.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

SemanticKey = tuple[int, int, str, int, int]

#: ``Trace.meta`` key listing msg_ids whose dependency annotations were
#: stripped by the fault-injection layer (see :mod:`repro.validate.faults`).
#: Such records look like roots structurally; the self-correcting replayer
#: treats them as *degraded* and applies its ``degraded_gap_policy`` instead
#: of trusting the captured timestamp.
DEGRADED_RECORDS_META_KEY = "degraded_records"


@dataclass(frozen=True)
class TraceRecord:
    """One captured network message."""

    msg_id: int
    key: SemanticKey
    src: int
    dst: int
    size_bytes: int
    kind: str
    t_inject: int
    t_deliver: int
    cause_id: int          # msg_id of the trigger, or -1
    gap: int               # t_inject - deliver(cause); t_inject if no cause
    bound_id: int = -1     # msg_id of the secondary trigger, or -1
    bound_gap: int = 0     # t_inject - deliver(bound) when bound_id != -1

    def __post_init__(self) -> None:
        if self.src < 0 or self.dst < 0 or self.src == self.dst:
            raise ValueError(f"bad endpoints in record {self.msg_id}")
        if self.size_bytes < 1:
            raise ValueError(f"bad size in record {self.msg_id}")
        if self.t_deliver < self.t_inject:
            raise ValueError(f"record {self.msg_id} delivered before injected")
        if self.gap < 0:
            raise ValueError(f"record {self.msg_id} has negative gap {self.gap}")
        if self.bound_id != -1:
            if self.cause_id == -1:
                raise ValueError(
                    f"record {self.msg_id} has a bound but no cause")
            if self.bound_gap < 0:
                raise ValueError(
                    f"record {self.msg_id} has negative bound_gap")

    @property
    def latency(self) -> int:
        return self.t_deliver - self.t_inject


@dataclass(frozen=True)
class EndMarker:
    """Per-core completion: finish time relative to the core's last arrival."""

    node: int
    t_finish: int
    cause_id: int          # last message whose arrival unblocked the core
    gap: int               # t_finish - deliver(cause); t_finish if no cause

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValueError(f"negative node {self.node}")
        if self.gap < 0:
            raise ValueError(f"end marker for node {self.node}: negative gap")


def blocked_msg_ids(records: list[TraceRecord]) -> set[int]:
    """The msg_ids that can never fire: the can-fire fixpoint.

    Propagate "can fire" from the roots over cause and bound edges; a record
    left unfired sits on a dependency cycle or downstream of one.  A trigger
    that names no record in ``records`` is ignored, not waited for —
    reporting absent triggers is the caller's business.
    """
    present = {r.msg_id for r in records}
    prereqs: dict[int, int] = {}
    dependents: dict[int, list[int]] = {}
    for r in records:
        n = 0
        for trig in (r.cause_id, r.bound_id):
            if trig != -1 and trig in present:
                n += 1
                dependents.setdefault(trig, []).append(r.msg_id)
        prereqs[r.msg_id] = n
    frontier = [mid for mid, n in prereqs.items() if n == 0]
    while frontier:
        mid = frontier.pop()
        for dep in dependents.get(mid, ()):
            prereqs[dep] -= 1
            if prereqs[dep] == 0:
                frontier.append(dep)
    return {mid for mid, n in prereqs.items() if n > 0}


@dataclass
class Trace:
    """A complete captured trace plus provenance metadata."""

    records: list[TraceRecord]
    end_markers: list[EndMarker]
    exec_time: int
    meta: dict = field(default_factory=dict)

    # ---------------------------------------------------------- validation
    def validate(self) -> None:
        """Check referential integrity and causality; raises ValueError."""
        by_id = {r.msg_id: r for r in self.records}
        if len(by_id) != len(self.records):
            raise ValueError("duplicate msg_ids in trace")
        keys = {r.key for r in self.records}
        if len(keys) != len(self.records):
            raise ValueError("duplicate semantic keys in trace")
        for r in self.records:
            if r.cause_id != -1:
                cause = by_id.get(r.cause_id)
                if cause is None:
                    raise ValueError(
                        f"record {r.msg_id}: cause {r.cause_id} not in trace"
                    )
                if cause.t_deliver > r.t_inject:
                    raise ValueError(
                        f"record {r.msg_id}: injected at {r.t_inject} before "
                        f"cause {cause.msg_id} delivered at {cause.t_deliver}"
                    )
                if cause.t_deliver + r.gap != r.t_inject:
                    raise ValueError(
                        f"record {r.msg_id}: gap {r.gap} inconsistent"
                    )
            elif r.gap != r.t_inject:
                raise ValueError(f"root record {r.msg_id}: gap != t_inject")
            if r.bound_id != -1:
                bound = by_id.get(r.bound_id)
                if bound is None:
                    raise ValueError(
                        f"record {r.msg_id}: bound {r.bound_id} not in trace")
                if bound.t_deliver + r.bound_gap != r.t_inject:
                    raise ValueError(
                        f"record {r.msg_id}: bound_gap {r.bound_gap} "
                        "inconsistent")
        # The per-edge causality checks above admit cycles made entirely of
        # zero-latency, equal-timestamp records (every edge gap 0) — a shape
        # no real network can capture but one that would stall the
        # self-correcting replayer forever.
        cyclic = sorted(blocked_msg_ids(self.records))
        if cyclic:
            raise ValueError(
                f"dependency cycle among msg_ids {cyclic[:10]}"
                f"{'...' if len(cyclic) > 10 else ''}"
            )
        for m in self.end_markers:
            if m.cause_id != -1 and m.cause_id not in by_id:
                raise ValueError(
                    f"end marker node {m.node}: cause {m.cause_id} missing"
                )
        if self.end_markers:
            latest = max(m.t_finish for m in self.end_markers)
            if latest != self.exec_time:
                raise ValueError(
                    f"exec_time {self.exec_time} != max end marker {latest}"
                )

    # ------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self.records)

    def dependency_depth(self) -> int:
        """Longest cause chain (records processed in causal order)."""
        depth: dict[int, int] = {}
        best = 0
        for r in sorted(self.records, key=lambda r: (r.t_deliver, r.msg_id)):
            d = depth.get(r.cause_id, 0) + 1 if r.cause_id != -1 else 1
            depth[r.msg_id] = d
            best = max(best, d)
        return best

    def roots(self) -> list[TraceRecord]:
        return [r for r in self.records if r.cause_id == -1]

    def bytes_total(self) -> int:
        return sum(r.size_bytes for r in self.records)

    # -------------------------------------------------------- serialization
    def to_json(self) -> str:
        """Portable JSON form (keys become lists; tuples restored on load)."""
        return json.dumps({
            "meta": self.meta,
            "exec_time": self.exec_time,
            "records": [
                [r.msg_id, list(r.key), r.src, r.dst, r.size_bytes, r.kind,
                 r.t_inject, r.t_deliver, r.cause_id, r.gap, r.bound_id,
                 r.bound_gap]
                for r in self.records
            ],
            "end_markers": [
                [m.node, m.t_finish, m.cause_id, m.gap]
                for m in self.end_markers
            ],
        })

    @staticmethod
    def from_json(text: str) -> "Trace":
        obj = json.loads(text)
        records = [
            TraceRecord(
                msg_id=row[0],
                key=(row[1][0], row[1][1], row[1][2], row[1][3], row[1][4]),
                src=row[2], dst=row[3], size_bytes=row[4], kind=row[5],
                t_inject=row[6], t_deliver=row[7], cause_id=row[8], gap=row[9],
                # Older trace files lack the bound columns.
                bound_id=row[10] if len(row) > 10 else -1,
                bound_gap=row[11] if len(row) > 11 else 0,
            )
            for row in obj["records"]
        ]
        markers = [
            EndMarker(node=row[0], t_finish=row[1], cause_id=row[2], gap=row[3])
            for row in obj["end_markers"]
        ]
        trace = Trace(records=records, end_markers=markers,
                      exec_time=obj["exec_time"], meta=obj.get("meta", {}))
        trace.validate()
        return trace

    def to_binary(self) -> bytes:
        """Chunked binary form (see :mod:`repro.core.tracebin`)."""
        from repro.core import tracebin
        return tracebin.dumps(self)

    @staticmethod
    def from_binary(data: bytes) -> "Trace":
        from repro.core import tracebin
        return tracebin.loads(data)


def latencies_by_key(records: Iterable[TraceRecord]) -> dict[SemanticKey, int]:
    """Semantic key -> end-to-end latency map (reference-building helper)."""
    return {r.key: r.latency for r in records}
