"""The self-correction trace model — the paper's contribution.

Pipeline (mirrors the paper's methodology):

1. :class:`~repro.core.capture.TraceCapture` rides along an execution-driven
   full-system run and records every network message **with its causal
   dependency** (which earlier message's arrival triggered it, and the
   network-independent compute gap in between).
2. :class:`~repro.core.trace.Trace` is the portable artifact: records, per
   core end markers, and metadata; JSON round-trippable and validated.
3. Replayers drive the trace into any target network:

   * :class:`~repro.core.replay.NaiveReplayer` — timestamps only (the
     baseline trace-driven methodology the paper improves on);
   * :class:`~repro.core.replay.SelfCorrectingReplayer` — the paper's model:
     injection times are re-derived *online* from simulated dependency
     completion times, self-correcting the trace to the target network;
   * :class:`~repro.core.iterate.IterativeRefiner` — offline fixed-point
     variant: replay a fixed schedule, re-time it from observed deliveries,
     repeat until the predicted execution time converges.

4. :mod:`~repro.core.accuracy` quantifies each replay against an
   execution-driven reference on the same target network.

Two performance-oriented paths sit beside the event-driven replayers:
:mod:`repro.core.generational` solves the dependency DAG in one exact
windowed sweep of array batches (``TraceConfig(engine="generational")``), and
:mod:`repro.core.tracebin` is the chunked binary trace format whose
streaming readers keep million-message traces out of memory (see
``docs/TRACE_FORMAT.md``).
"""

from repro.core.accuracy import compare_to_reference, reference_latencies
from repro.core.analysis import (
    TraceProfile,
    critical_chain,
    dependency_fanout,
    destination_entropy,
    injection_burstiness,
    profile_trace,
)
from repro.core.capture import TraceCapture
from repro.core.sharing import (
    LineSharing,
    SharingClass,
    classify_lines,
    sharing_summary,
)
from repro.core.compact import (
    CompactionStats,
    coalesce_leaves,
    filter_leaf_control,
    leaf_records,
)
from repro.core.generational import (
    replay_trace_generational,
    stream_naive_summary,
)
from repro.core.iterate import IterationInfo, IterativeRefiner
from repro.core.replay import NaiveReplayer, ReplayResult, SelfCorrectingReplayer, replay_trace
from repro.core.trace import EndMarker, Trace, TraceRecord
from repro.core.tracebin import (
    BinaryTraceWriter,
    TraceBinError,
    is_binary_trace,
    load_trace,
    scan_blocks,
    trace_info,
)

__all__ = [
    "CompactionStats",
    "EndMarker",
    "LineSharing",
    "SharingClass",
    "classify_lines",
    "sharing_summary",
    "TraceProfile",
    "critical_chain",
    "dependency_fanout",
    "destination_entropy",
    "injection_burstiness",
    "profile_trace",
    "coalesce_leaves",
    "filter_leaf_control",
    "leaf_records",
    "IterationInfo",
    "IterativeRefiner",
    "NaiveReplayer",
    "ReplayResult",
    "SelfCorrectingReplayer",
    "Trace",
    "TraceCapture",
    "TraceRecord",
    "BinaryTraceWriter",
    "TraceBinError",
    "compare_to_reference",
    "is_binary_trace",
    "load_trace",
    "reference_latencies",
    "replay_trace",
    "replay_trace_generational",
    "scan_blocks",
    "stream_naive_summary",
    "trace_info",
]
