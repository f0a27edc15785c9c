"""Synthetic full-system workload generator (ROADMAP item 5).

The captured kernel catalogue tops out at 64 cores and ~120k messages;
this package generates *statistically faithful* dependency-annotated
traces at any scale — splitmix64-seeded dependency-graph families with
tunable fan-out, compute-gap distributions, and sharing patterns (reusing
:data:`repro.traffic.PATTERNS`), fitted to a captured corpus trace via
:func:`fit_profile` and emitted either in memory (:func:`generate`) or
straight into the chunked binary container (:func:`generate_to_file`) so
million-message traces never fully materialize.  The generator computes
chains' records in NumPy blocks, a merge ranks each block's final ones at
once, and it writes column chunks, not records: resident state is O(chains
x the step spread between the slowest and the fastest chain + one chunk), and
:func:`iter_records` decodes those chunks for callers that want records.

Quality gates: ``tests/test_synth_properties.py`` (byte-determinism, the
full invariant catalogue, profile fidelity under
:data:`FIDELITY_TOLERANCES`), ``tests/test_synth_generator.py`` (every
record equal to the per-record reference generator, container bytes and
the benchmark spine's digests), ``tests/test_synth_engines.py`` (event vs
generational agreement at 64 and 1024 nodes), and
``benchmarks/bench_scale.py`` (generation and replay peak RSS vs trace
size, generational-vs-event speedup).  See the "Synthetic traces" section
of ``docs/TRACE_FORMAT.md``.
"""

from repro import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "generate": "repro.synth.generator",
    "generate_to_file": "repro.synth.generator",
    "iter_records": "repro.synth.generator",
    "FIDELITY_TOLERANCES": "repro.synth.profile",
    "SynthProfile": "repro.synth.profile",
    "default_profile": "repro.synth.profile",
    "fit_profile": "repro.synth.profile",
    "trace_stats": "repro.synth.profile",
    "SCALE_NODE_COUNTS": "repro.synth.topologies",
    "scale_configs": "repro.synth.topologies",
    "synth_onoc": "repro.synth.topologies",
})

__all__ = [
    "FIDELITY_TOLERANCES",
    "SCALE_NODE_COUNTS",
    "SynthProfile",
    "default_profile",
    "fit_profile",
    "generate",
    "generate_to_file",
    "iter_records",
    "scale_configs",
    "synth_onoc",
    "trace_stats",
]
