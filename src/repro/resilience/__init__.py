"""``repro.resilience`` — time-varying network degradation during replay.

The paper replays traces against a *pristine, static* photonic network;
real optical fabrics drift in time: microring resonances walk off with
temperature, laser output droops as devices age, and individual links see
transient corruption bursts.  This package makes that drift an explicit,
replayable input:

* :mod:`repro.resilience.timeseries` — the ``(time, target, severity)``
  fault-timeseries schema with CSV/JSON round-tripping;
* :mod:`repro.resilience.generators` — seeded (splitmix64) generators for
  three degradation families: thermal drift ramps, laser power droop, and
  transient link corruption bursts;
* :mod:`repro.resilience.policies` — the mitigation-policy registry
  (``none`` / ``disable`` / ``reallocate``) and typed penalty accounting;
* :mod:`repro.resilience.overlay` — :class:`DegradationOverlay`, the
  epoch-indexed integer penalty tables both replay engines consult, plus
  the post-hoc penalty/path-diversity summaries.

The engine contract (pinned by ``tests/test_resilience.py``): an **empty**
timeseries is byte-identical to stock replay on every backend and both
engines, and the event-driven and generational engines apply **identical**
integer adjustments — every penalty is a pure function of
``(epoch(inject_time), src, dst, ser)``, looked up scalar-wise by the
event backends and vectorized by the generational models.
"""

from repro import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "GENERATOR_FAMILIES": "repro.resilience.generators",
    "generate_timeseries": "repro.resilience.generators",
    "timeseries_for_trace": "repro.resilience.generators",
    "DegradationOverlay": "repro.resilience.overlay",
    "penalty_summary": "repro.resilience.overlay",
    "DISABLE_THRESHOLD_PM": "repro.resilience.policies",
    "MITIGATION_DISABLE": "repro.resilience.policies",
    "MITIGATION_NONE": "repro.resilience.policies",
    "MITIGATION_REALLOCATE": "repro.resilience.policies",
    "MITIGATIONS": "repro.resilience.policies",
    "PenaltyBreakdown": "repro.resilience.policies",
    "FaultEvent": "repro.resilience.timeseries",
    "FaultTimeseries": "repro.resilience.timeseries",
    "TimeseriesError": "repro.resilience.timeseries",
})

__all__ = [
    "DISABLE_THRESHOLD_PM",
    "DegradationOverlay",
    "FaultEvent",
    "FaultTimeseries",
    "GENERATOR_FAMILIES",
    "MITIGATIONS",
    "MITIGATION_DISABLE",
    "MITIGATION_NONE",
    "MITIGATION_REALLOCATE",
    "PenaltyBreakdown",
    "TimeseriesError",
    "generate_timeseries",
    "penalty_summary",
    "timeseries_for_trace",
]
