"""repro.validate — differential & property-based validation subsystem.

Three layers, each usable on its own:

* :mod:`repro.validate.invariants` — structural invariant catalogue over
  ``Trace`` / ``ReplayResult`` pairs plus metamorphic checks,
* :mod:`repro.validate.faults` — seeded, composable trace fault models
  (dependency drop, jitter, truncation, node loss, rewiring) with typed
  damage reports,
* :mod:`repro.validate.differential` — seeded randomized scenario fan-out
  (via ``SweepRunner``), fault-severity matrices, failure shrinking and
  repro-JSON serialization,
* :mod:`repro.validate.golden` — checked-in golden corpus with pinned
  accuracy numbers (``tests/golden/``),
* :mod:`repro.validate.engines` — generational-vs-event replay engine
  differential over the golden corpus (``repro validate --engines``).

CLI entry point: ``repro validate`` (see ``docs/VALIDATION.md``).
"""

from repro import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "EngineCell": "repro.validate.engines",
    "EngineReport": "repro.validate.engines",
    "check_engines": "repro.validate.engines",
    "compare_engines": "repro.validate.engines",
    "DifferentialReport": "repro.validate.differential",
    "check_fault_matrix_smooth": "repro.validate.differential",
    "fault_matrix_scenarios": "repro.validate.differential",
    "fault_matrix_verdict": "repro.validate.differential",
    "generate_scenarios": "repro.validate.differential",
    "load_repro_scenario": "repro.validate.differential",
    "run_differential": "repro.validate.differential",
    "shrink": "repro.validate.differential",
    "smoke_scenarios": "repro.validate.differential",
    "write_repro": "repro.validate.differential",
    "FAULT_FAMILIES": "repro.validate.faults",
    "DropDepEdges": "repro.validate.faults",
    "FaultModel": "repro.validate.faults",
    "FaultReport": "repro.validate.faults",
    "NodeRecordLoss": "repro.validate.faults",
    "RewireDeps": "repro.validate.faults",
    "TimestampJitter": "repro.validate.faults",
    "TruncateTail": "repro.validate.faults",
    "apply_faults": "repro.validate.faults",
    "parse_fault_specs": "repro.validate.faults",
    "GOLDEN_SCENARIOS": "repro.validate.golden",
    "check_golden": "repro.validate.golden",
    "regen_golden": "repro.validate.golden",
    "ALL_INVARIANTS": "repro.validate.invariants",
    "Violation": "repro.validate.invariants",
    "check_gap_scaling": "repro.validate.invariants",
    "check_replay": "repro.validate.invariants",
    "check_self_consistency": "repro.validate.invariants",
    "check_trace": "repro.validate.invariants",
    "scale_trace_gaps": "repro.validate.invariants",
    "SCENARIO_WORKLOADS": "repro.validate.scenario",
    "ErrorEnvelope": "repro.validate.scenario",
    "Scenario": "repro.validate.scenario",
    "ScenarioOutcome": "repro.validate.scenario",
    "run_scenario": "repro.validate.scenario",
})

__all__ = [
    "ALL_INVARIANTS",
    "EngineCell",
    "EngineReport",
    "check_engines",
    "compare_engines",
    "DifferentialReport",
    "DropDepEdges",
    "ErrorEnvelope",
    "FAULT_FAMILIES",
    "FaultModel",
    "FaultReport",
    "GOLDEN_SCENARIOS",
    "NodeRecordLoss",
    "RewireDeps",
    "SCENARIO_WORKLOADS",
    "Scenario",
    "ScenarioOutcome",
    "TimestampJitter",
    "TruncateTail",
    "Violation",
    "apply_faults",
    "check_fault_matrix_smooth",
    "check_gap_scaling",
    "check_golden",
    "check_replay",
    "check_self_consistency",
    "check_trace",
    "fault_matrix_scenarios",
    "fault_matrix_verdict",
    "generate_scenarios",
    "load_repro_scenario",
    "parse_fault_specs",
    "regen_golden",
    "run_differential",
    "run_scenario",
    "scale_trace_gaps",
    "shrink",
    "smoke_scenarios",
    "write_repro",
]
