"""Trace compaction (extension): shrink traces without losing the timeline.

Dependency-annotated traces are bigger than timestamp-only traces (the paper
trades space for accuracy).  Two sound compactions claw much of that back by
exploiting the dependency graph itself:

* :func:`filter_leaf_control` — drop *leaf* control messages: records that
  nothing depends on (no dependent record, no end marker).  Acks and
  crossing writebacks dominate this class.  Dropping them cannot break any
  replayed dependency; the cost is slightly lower modelled contention.
* :func:`coalesce_leaves` — merge bursts of leaf records on the same
  (src, dst, kind) flow sharing the same cause within a time window into one
  larger message (classic trace coalescing, e.g. cache-line-granularity
  write bursts).

Both return a *valid* :class:`~repro.core.trace.Trace` (``validate()`` is
re-run), so compacted traces flow through every replayer unchanged.  The
accuracy cost vs compression ratio is the catalogue's ``compaction``
experiment (Fig. 11, ``benchmarks/experiments/fig11_compaction.yaml``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

from repro.core.trace import Trace, TraceRecord
from repro.system.protocol import CTRL_KINDS


@dataclass(frozen=True)
class CompactionStats:
    """What a compaction pass did."""

    records_before: int
    records_after: int
    bytes_before: int
    bytes_after: int

    @property
    def record_ratio(self) -> float:
        """records_after / records_before (1.0 = no compaction)."""
        return (self.records_after / self.records_before
                if self.records_before else 1.0)

    @property
    def byte_ratio(self) -> float:
        return (self.bytes_after / self.bytes_before
                if self.bytes_before else 1.0)


def _referenced_ids(trace: Trace) -> set[int]:
    """msg_ids something depends on (records or end markers)."""
    refs = {r.cause_id for r in trace.records if r.cause_id != -1}
    refs |= {m.cause_id for m in trace.end_markers if m.cause_id != -1}
    return refs


def leaf_records(trace: Trace) -> list[TraceRecord]:
    """Records with no dependents anywhere."""
    refs = _referenced_ids(trace)
    return [r for r in trace.records if r.msg_id not in refs]


def filter_leaf_control(trace: Trace) -> tuple[Trace, CompactionStats]:
    """Drop leaf *control* messages (acks, stale writebacks, ...).

    Data-bearing leaves are kept: they model real bandwidth; control leaves
    are a few bytes each and only add arbitration noise.
    """
    refs = _referenced_ids(trace)
    kept = [
        r for r in trace.records
        if r.msg_id in refs or r.kind not in CTRL_KINDS
    ]
    out = Trace(records=kept, end_markers=list(trace.end_markers),
                exec_time=trace.exec_time,
                meta={**trace.meta, "compaction": "filter_leaf_control"})
    out.validate()
    return out, CompactionStats(
        records_before=len(trace.records),
        records_after=len(kept),
        bytes_before=trace.bytes_total(),
        bytes_after=out.bytes_total(),
    )


def coalesce_leaves(trace: Trace, window: int = 32) -> tuple[Trace, CompactionStats]:
    """Merge leaf-record bursts per (src, dst, kind, cause) within ``window``.

    The merged record keeps the first member's identity (msg_id, key,
    injection time, cause, gap) and accumulates sizes; its delivery time is
    the latest member's.  Because members are leaves, no other record's
    dependency needs rewriting, and validity is preserved by construction.
    """
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    refs = _referenced_ids(trace)
    out_records: list[TraceRecord] = []
    # Open group per flow: (src, dst, kind, cause_id) -> merged-in-progress.
    open_groups: dict[tuple[int, int, str, int], TraceRecord] = {}

    def flush(key: tuple[int, int, str, int]) -> None:
        rec = open_groups.pop(key, None)
        if rec is not None:
            out_records.append(rec)

    for r in sorted(trace.records, key=lambda r: (r.t_inject, r.msg_id)):
        if r.msg_id in refs:
            out_records.append(r)
            continue
        key = (r.src, r.dst, r.kind, r.cause_id)
        group = open_groups.get(key)
        if group is not None and r.t_inject - group.t_inject <= window:
            open_groups[key] = dc_replace(
                group,
                size_bytes=group.size_bytes + r.size_bytes,
                t_deliver=max(group.t_deliver, r.t_deliver),
            )
        else:
            flush(key)
            open_groups[key] = r
    for key in list(open_groups):
        flush(key)

    out_records.sort(key=lambda r: (r.t_inject, r.msg_id))
    out = Trace(records=out_records, end_markers=list(trace.end_markers),
                exec_time=trace.exec_time,
                meta={**trace.meta, "compaction": f"coalesce_leaves(w={window})"})
    out.validate()
    return out, CompactionStats(
        records_before=len(trace.records),
        records_after=len(out_records),
        bytes_before=trace.bytes_total(),
        bytes_after=out.bytes_total(),
    )
