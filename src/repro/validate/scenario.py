"""Scenario space for the differential harness.

A :class:`Scenario` is one point in the (capture network x target backend x
workload x core count x scale) space: everything needed to reproduce a
differential run is in its fields, so a failing scenario serializes to a
small JSON blob anyone can replay with ``repro validate --repro <file>``.

:func:`run_scenario` is deliberately a *module-level* function of codec-
friendly arguments so :class:`repro.harness.SweepRunner` can ship it to
worker processes and content-hash it into the on-disk result cache.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional

from repro.config import (
    ExperimentConfig,
    GAP_POLICIES,
    GAP_POLICY_CAPTURED,
    GAP_POLICY_NEIGHBOR,
    MITIGATION_NONE,
    MITIGATIONS,
    ONOC_TOPOLOGIES,
    TRACE_NAIVE,
    TRACE_SELF_CORRECTING,
    TraceConfig,
)
from repro.core import compare_to_reference, replay_trace
from repro.resilience import GENERATOR_FAMILIES, timeseries_for_trace
from repro.validate.faults import FaultModel, apply_faults
from repro.harness.builders import (
    backend_in_order_channels,
    electrical_factory,
    experiment_from_params,
    optical_factory,
    run_execution_driven,
)
from repro.validate import invariants as inv

#: Capture-side network names: the electrical baseline plus every backend.
CAPTURE_NETWORKS = ("electrical",) + ONOC_TOPOLOGIES

#: Workloads cheap enough for randomized fan-out (the full catalogue is in
#: repro.system; these five cover the traffic-shape space).
SCENARIO_WORKLOADS = ("fft", "radix", "prodcons", "barnes", "stencil")


@dataclass(frozen=True)
class Scenario:
    """One differential-test configuration (fully reproducible from fields)."""

    workload: str
    cores: int
    seed: int
    scale: float
    capture: str                    # "electrical" or an ONOC topology
    target: str                     # ONOC topology replayed/validated against
    wavelengths: int = 32
    keep_dep_fraction: float = 1.0  # < 1 ablates dependency edges
    faults: tuple = ()              # FaultModel sequence applied to the trace
    fault_seed: int = 777
    gap_policy: str = GAP_POLICY_NEIGHBOR
    degrade: str = ""               # generator families ("+"-joined), "" off
    degrade_intensity: float = 0.5
    mitigation: str = MITIGATION_NONE

    def __post_init__(self) -> None:
        side = math.isqrt(self.cores)
        if side * side != self.cores or self.cores < 4:
            raise ValueError(f"cores must be a square >= 4, got {self.cores}")
        if self.capture not in CAPTURE_NETWORKS:
            raise ValueError(f"unknown capture network {self.capture!r}")
        if self.target not in ONOC_TOPOLOGIES:
            raise ValueError(f"unknown target backend {self.target!r}")
        if not 0.0 < self.scale <= 1.0:
            raise ValueError(f"scale must be in (0, 1], got {self.scale}")
        if not 0.0 <= self.keep_dep_fraction <= 1.0:
            raise ValueError("keep_dep_fraction must be in [0, 1]")
        if self.gap_policy not in GAP_POLICIES:
            raise ValueError(f"unknown gap_policy {self.gap_policy!r}")
        if self.degrade:
            unknown = set(self.degrade.split("+")) - set(GENERATOR_FAMILIES)
            if unknown:
                raise ValueError(
                    f"unknown degradation families {sorted(unknown)} "
                    f"(available: {sorted(GENERATOR_FAMILIES)})")
        if not 0.0 <= self.degrade_intensity <= 1.0:
            raise ValueError("degrade_intensity must be in [0, 1]")
        if self.mitigation not in MITIGATIONS:
            raise ValueError(f"unknown mitigation {self.mitigation!r}")
        # Normalize (frozen dataclass: assign via object.__setattr__) so the
        # scenario content-hashes identically however the faults were given.
        object.__setattr__(self, "faults", tuple(self.faults))
        for f in self.faults:
            if not isinstance(f, FaultModel):
                raise ValueError(f"faults entries must be FaultModel, got "
                                 f"{f!r}")
        # AWGR routes each (src, dst) pair on its own wavelength, so the
        # backend itself requires num_wavelengths >= num_nodes - 1.
        if "awgr" in (self.capture, self.target) \
                and self.wavelengths < self.cores - 1:
            raise ValueError(
                f"awgr needs >= {self.cores - 1} wavelengths for "
                f"{self.cores} cores, got {self.wavelengths}")

    @property
    def name(self) -> str:
        frac = ("" if self.keep_dep_fraction == 1.0
                else f"-keep{self.keep_dep_fraction:g}")
        # Default-valued new fields leave golden/smoke names untouched.
        faults = "".join(
            f"-{f.name}{f.severity:g}" for f in self.faults)
        policy = ("" if self.gap_policy == GAP_POLICY_NEIGHBOR
                  else f"-{self.gap_policy}")
        degrade = ("" if not self.degrade
                   else f"-dg.{self.degrade}"
                        f".i{self.degrade_intensity:g}.{self.mitigation}")
        return (f"{self.workload}-c{self.cores}-s{self.seed}"
                f"-x{self.scale:g}-w{self.wavelengths}"
                f"-{self.capture}-to-{self.target}{frac}{faults}{policy}"
                f"{degrade}")

    def experiment(self) -> ExperimentConfig:
        return experiment_from_params(self.cores, self.seed, self.wavelengths,
                                      topology=self.target)


@dataclass(frozen=True)
class ErrorEnvelope:
    """Acceptable divergence between the trace model and ground truth.

    The defaults are deliberately loose structural bounds — the differential
    harness hunts for *model breakage* (stalls, invariant violations, wild
    error blow-ups), not for the paper's headline precision, which the golden
    corpus pins per-configuration.  Naive replay error is *unbounded by
    design* (it embeds the capture network's timing, so a slow capture
    network replayed onto a fast target can be off by any factor); its bound
    only exists to catch a harness returning garbage.
    """

    max_sc_exec_error_pct: float = 25.0
    max_sc_mean_latency_error_pct: float = 60.0
    max_naive_exec_error_pct: float = 100_000.0
    max_unreplayed: int = 0
    self_consistency_pct: float = 5.0

    def check(self, outcome: "ScenarioOutcome") -> list[str]:
        """Envelope breaches for ``outcome`` (empty list = within bounds).

        Ablated scenarios (``keep_dep_fraction < 1``) intentionally degrade
        the model toward naive replay, so their self-correcting error is held
        to the naive bound instead of the precision bound.
        """
        bad: list[str] = []
        # Faulted scenarios intentionally degrade toward naive replay, the
        # same way keep_dep_fraction ablation does: naive bound applies.
        # Degraded-fabric scenarios diverge from the *pristine* execution-
        # driven reference by design, so they get the same loose bound.
        ablated = (outcome.scenario.keep_dep_fraction < 1.0
                   or bool(outcome.scenario.faults)
                   or bool(outcome.scenario.degrade))
        sc_bound = (self.max_naive_exec_error_pct if ablated
                    else self.max_sc_exec_error_pct)
        if outcome.sc_exec_error_pct > sc_bound:
            bad.append(
                f"self-correcting exec error {outcome.sc_exec_error_pct:.2f}%"
                f" > {sc_bound}%")
        if (not ablated and outcome.sc_mean_latency_error_pct
                > self.max_sc_mean_latency_error_pct):
            bad.append(
                f"self-correcting latency error "
                f"{outcome.sc_mean_latency_error_pct:.2f}%"
                f" > {self.max_sc_mean_latency_error_pct}%")
        if outcome.naive_exec_error_pct > self.max_naive_exec_error_pct:
            bad.append(
                f"naive exec error {outcome.naive_exec_error_pct:.2f}%"
                f" > {self.max_naive_exec_error_pct}%")
        # The captured policy stalls on fault-severed triggers by design;
        # every other policy must replay everything even under faults.
        stalls_expected = (bool(outcome.scenario.faults)
                           and outcome.scenario.gap_policy
                           == GAP_POLICY_CAPTURED)
        if not stalls_expected and outcome.sc_unreplayed > self.max_unreplayed:
            bad.append(
                f"{outcome.sc_unreplayed} messages unreplayed"
                f" (allowed {self.max_unreplayed})")
        return bad


@dataclass
class ScenarioOutcome:
    """Everything :func:`run_scenario` measured for one scenario."""

    scenario: Scenario
    trace_messages: int
    ref_exec_time: int
    sc_exec_estimate: int
    naive_exec_estimate: int
    sc_exec_error_pct: float
    sc_mean_latency_error_pct: float
    naive_exec_error_pct: float
    sc_unreplayed: int
    sc_demoted_cyclic: int
    sc_rederived: int = 0           # degraded records re-derived from anchors
    fault_damaged: int = 0          # records the fault layer touched
    violations: list[str] = field(default_factory=list)
    envelope_breaches: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations and not self.envelope_breaches

    def failure_summary(self) -> str:
        parts = self.violations + self.envelope_breaches
        return "; ".join(parts[:6]) + ("..." if len(parts) > 6 else "")


def run_scenario(
    scenario: Scenario,
    envelope: Optional[ErrorEnvelope] = None,
    deep: bool = False,
) -> ScenarioOutcome:
    """Run the full differential check for one scenario.

    Capture an execution-driven trace on ``scenario.capture``, run the
    execution-driven ground truth on ``scenario.target``, replay the
    captured trace there with both replayers, then apply the invariant
    catalogue and the error envelope.  ``scenario.faults`` are applied to
    the captured trace (after the pristine-trace checks, seeded by
    ``scenario.fault_seed``), and the self-correcting replay runs under
    ``scenario.gap_policy``.  ``deep=True`` adds the two metamorphic checks
    (self-consistency and gap-scaling), roughly quadrupling the replay cost.
    """
    envelope = envelope or ErrorEnvelope()
    exp = scenario.experiment()
    if scenario.capture == "electrical":
        cap_exp = exp
        cap_factory = electrical_factory(exp.noc, exp.seed)
        _, trace, _ = run_execution_driven(
            cap_exp, scenario.workload, "electrical", scale=scenario.scale)
    else:
        cap_onoc = dataclasses.replace(exp.onoc, topology=scenario.capture)
        cap_exp = dataclasses.replace(exp, onoc=cap_onoc)
        cap_factory = optical_factory(cap_onoc, exp.seed)
        _, trace, _ = run_execution_driven(
            cap_exp, scenario.workload, "optical", scale=scenario.scale)
    assert trace is not None

    # Backends whose in_order_channels capability flag is set are held to
    # the strict per-channel FIFO form of the monotonicity invariant.  The
    # pristine trace is checked *before* fault injection — faults then damage
    # a known-good artifact.
    violations = [str(v) for v in inv.check_trace(
        trace, strict_fifo=backend_in_order_channels(scenario.capture))]

    fault_reports = ()
    if scenario.faults:
        trace, fault_reports = apply_faults(
            trace, scenario.faults, scenario.fault_seed)

    # Degradation timeseries: deterministic in (families, seed, cores) over
    # the (possibly fault-damaged) trace's injection span.
    fault_events: tuple = ()
    if scenario.degrade:
        fault_events = timeseries_for_trace(
            scenario.degrade, trace, scenario.seed, scenario.cores,
            scenario.degrade_intensity).as_tuples()

    ref_res, ref_trace, _ = run_execution_driven(
        exp, scenario.workload, "optical", scale=scenario.scale)
    assert ref_trace is not None
    factory = optical_factory(exp.onoc, exp.seed)
    naive = replay_trace(trace, factory,
                         TraceConfig(mode=TRACE_NAIVE,
                                     fault_events=fault_events,
                                     mitigation=scenario.mitigation))
    sc = replay_trace(
        trace, factory,
        TraceConfig(mode=TRACE_SELF_CORRECTING,
                    keep_dep_fraction=scenario.keep_dep_fraction,
                    degraded_gap_policy=scenario.gap_policy,
                    fault_events=fault_events,
                    mitigation=scenario.mitigation))
    # The disable mitigation's detour latency legitimately reorders
    # overlapping same-channel flights, so degraded replays skip the strict
    # FIFO form of the channel invariant.
    strict_target = (backend_in_order_channels(scenario.target)
                     and not fault_events)
    violations += [str(v) for v in inv.check_replay(
        trace, naive, strict_fifo=strict_target)]
    violations += [str(v) for v in inv.check_replay(
        trace, sc, strict_fifo=strict_target)]

    if deep:
        violations += [str(v) for v in inv.check_self_consistency(
            trace, cap_factory, tolerance_pct=envelope.self_consistency_pct)]
        violations += [str(v) for v in inv.check_gap_scaling(trace, factory)]

    sc_report = compare_to_reference(sc, ref_trace)
    naive_report = compare_to_reference(naive, ref_trace)
    outcome = ScenarioOutcome(
        scenario=scenario,
        trace_messages=len(trace),
        ref_exec_time=ref_res.exec_time_cycles,
        sc_exec_estimate=sc.exec_time_estimate,
        naive_exec_estimate=naive.exec_time_estimate,
        sc_exec_error_pct=sc_report.exec_time_error_pct,
        sc_mean_latency_error_pct=sc_report.mean_latency_error_pct,
        naive_exec_error_pct=naive_report.exec_time_error_pct,
        sc_unreplayed=sc.messages_unreplayed,
        sc_demoted_cyclic=sc.demoted_cyclic,
        sc_rederived=sc.rederived_records,
        fault_damaged=sum(r.damaged_count for r in fault_reports),
        violations=violations,
    )
    outcome.envelope_breaches = envelope.check(outcome)
    return outcome
