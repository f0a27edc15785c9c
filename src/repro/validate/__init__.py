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

from repro.validate.engines import (
    EngineCell,
    EngineReport,
    check_engines,
    compare_engines,
)
from repro.validate.differential import (
    DifferentialReport,
    check_fault_matrix_smooth,
    fault_matrix_scenarios,
    fault_matrix_verdict,
    generate_scenarios,
    load_repro_scenario,
    run_differential,
    shrink,
    smoke_scenarios,
    write_repro,
)
from repro.validate.faults import (
    FAULT_FAMILIES,
    DropDepEdges,
    FaultModel,
    FaultReport,
    NodeRecordLoss,
    RewireDeps,
    TimestampJitter,
    TruncateTail,
    apply_faults,
    parse_fault_specs,
)
from repro.validate.golden import (
    GOLDEN_SCENARIOS,
    check_golden,
    regen_golden,
)
from repro.validate.invariants import (
    ALL_INVARIANTS,
    Violation,
    check_gap_scaling,
    check_replay,
    check_self_consistency,
    check_trace,
    scale_trace_gaps,
)
from repro.validate.scenario import (
    SCENARIO_WORKLOADS,
    ErrorEnvelope,
    Scenario,
    ScenarioOutcome,
    run_scenario,
)

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
