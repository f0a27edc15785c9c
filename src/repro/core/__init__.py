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

from repro import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "compare_to_reference": "repro.core.accuracy",
    "reference_latencies": "repro.core.accuracy",
    "TraceProfile": "repro.core.analysis",
    "critical_chain": "repro.core.analysis",
    "dependency_fanout": "repro.core.analysis",
    "destination_entropy": "repro.core.analysis",
    "injection_burstiness": "repro.core.analysis",
    "profile_trace": "repro.core.analysis",
    "TraceCapture": "repro.core.capture",
    "LineSharing": "repro.core.sharing",
    "SharingClass": "repro.core.sharing",
    "classify_lines": "repro.core.sharing",
    "sharing_summary": "repro.core.sharing",
    "CompactionStats": "repro.core.compact",
    "coalesce_leaves": "repro.core.compact",
    "filter_leaf_control": "repro.core.compact",
    "leaf_records": "repro.core.compact",
    "replay_trace_generational": "repro.core.generational",
    "stream_naive_summary": "repro.core.generational",
    "IterationInfo": "repro.core.iterate",
    "IterativeRefiner": "repro.core.iterate",
    "NaiveReplayer": "repro.core.replay",
    "ReplayResult": "repro.core.replay",
    "SelfCorrectingReplayer": "repro.core.replay",
    "replay_trace": "repro.core.replay",
    "EndMarker": "repro.core.trace",
    "Trace": "repro.core.trace",
    "TraceRecord": "repro.core.trace",
    "TraceBinError": "repro.core.trace",
    "BinaryTraceWriter": "repro.core.tracebin",
    "is_binary_trace": "repro.core.tracebin",
    "load_trace": "repro.core.tracebin",
    "scan_blocks": "repro.core.tracebin",
    "trace_info": "repro.core.tracebin",
})

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
