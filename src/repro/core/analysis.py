"""Trace characterisation: workload structure from the trace alone.

A downstream user of a trace toolchain needs to *understand* a trace before
trusting replays of it: how bursty is injection, how concentrated are
destinations, how deep and wide is the dependency structure, where does the
critical chain run.  :func:`profile_trace` computes all of it in one pass
over the records; ``examples/trace_inspection.py`` prints it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.core.trace import Trace
from repro.stats import OnlineStats


@dataclass
class TraceProfile:
    """Computed characterisation of one trace."""

    messages: int
    bytes_total: int
    exec_time: int
    kind_mix: dict[str, int]
    roots: int
    dependency_depth: int
    max_fanout: int
    mean_fanout: float
    dest_entropy_bits: float
    dest_entropy_max_bits: float
    injection_cv: float          # coefficient of variation of per-window rate
    gap_stats: dict[str, float]
    critical_gap_sum: int        # total compute gap along the deepest chain
    extra: dict = field(default_factory=dict)

    def as_rows(self) -> list[dict]:
        """Table rows for pretty-printing."""
        rows = [
            {"property": "messages", "value": self.messages},
            {"property": "bytes", "value": self.bytes_total},
            {"property": "exec time (cycles)", "value": self.exec_time},
            {"property": "roots", "value": self.roots},
            {"property": "dependency depth", "value": self.dependency_depth},
            {"property": "fanout max / mean",
             "value": f"{self.max_fanout} / {self.mean_fanout:.2f}"},
            {"property": "destination entropy",
             "value": f"{self.dest_entropy_bits:.2f} / "
                      f"{self.dest_entropy_max_bits:.2f} bits"},
            {"property": "injection burstiness (CV)",
             "value": f"{self.injection_cv:.2f}"},
            {"property": "compute gap mean/max",
             "value": f"{self.gap_stats['mean']:.1f} / "
                      f"{self.gap_stats['max']:.0f}"},
            {"property": "critical-chain gap sum",
             "value": self.critical_gap_sum},
        ]
        return rows


def destination_entropy(trace: Trace) -> tuple[float, float]:
    """Shannon entropy of the destination distribution (and its maximum,
    ``log2(distinct destinations possible)``); low entropy = hotspot."""
    counts = Counter(r.dst for r in trace.records)
    total = sum(counts.values())
    if total == 0:
        return 0.0, 0.0
    ent = -sum((c / total) * math.log2(c / total) for c in counts.values())
    nodes = max((max(r.src, r.dst) for r in trace.records), default=0) + 1
    return ent, math.log2(nodes) if nodes > 1 else 0.0


def injection_burstiness(trace: Trace, window: int = 256) -> float:
    """Coefficient of variation of the per-window injection count.

    ~0 for smooth open-loop traffic; >1 for barrier-phased bursts.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if not trace.records:
        return 0.0
    horizon = max(trace.exec_time, max(r.t_inject for r in trace.records) + 1)
    nbins = max(1, -(-horizon // window))
    counts = np.zeros(nbins, dtype=np.int64)
    for r in trace.records:
        counts[r.t_inject // window] += 1
    mean = counts.mean()
    return float(counts.std() / mean) if mean > 0 else 0.0


def dependency_fanout(trace: Trace) -> Counter:
    """children-count -> number of records with that many dependents."""
    children = Counter(r.cause_id for r in trace.records if r.cause_id != -1)
    fanout = Counter(children[r.msg_id] for r in trace.records)
    return fanout


def critical_chain(trace: Trace) -> tuple[int, int]:
    """(depth, gap_sum) of the deepest dependency chain.

    ``gap_sum`` is the total *compute* time along it — the part of the
    critical path no network can remove (the Amdahl floor of any
    interconnect upgrade, directly readable from the trace).
    """
    depth: dict[int, int] = {}
    gaps: dict[int, int] = {}
    best_depth, best_gaps = 0, 0
    for r in trace.causal_order():
        if r.cause_id == -1:
            d, g = 1, r.gap
        else:
            d = depth.get(r.cause_id, 0) + 1
            g = gaps.get(r.cause_id, 0) + r.gap
        depth[r.msg_id] = d
        gaps[r.msg_id] = g
        if d > best_depth:
            best_depth, best_gaps = d, g
    return best_depth, best_gaps


def profile_trace(trace: Trace, window: int = 256) -> TraceProfile:
    """Full characterisation (one pass each over records)."""
    kind_mix = Counter(r.kind for r in trace.records)
    gap_acc = OnlineStats()
    for r in trace.records:
        if r.cause_id != -1:
            gap_acc.add(r.gap)
    fanout = dependency_fanout(trace)
    total_children = sum(k * v for k, v in fanout.items())
    ent, ent_max = destination_entropy(trace)
    depth, gap_sum = critical_chain(trace)
    return TraceProfile(
        messages=len(trace),
        bytes_total=trace.bytes_total(),
        exec_time=trace.exec_time,
        kind_mix=dict(kind_mix),
        roots=len(trace.roots()),
        dependency_depth=depth,
        max_fanout=max(fanout, default=0),
        mean_fanout=total_children / len(trace) if len(trace) else 0.0,
        dest_entropy_bits=ent,
        dest_entropy_max_bits=ent_max,
        injection_cv=injection_burstiness(trace, window),
        gap_stats=gap_acc.as_dict(),
        critical_gap_sum=gap_sum,
    )
