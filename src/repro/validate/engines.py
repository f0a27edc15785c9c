"""Engine differential: generational (vectorized) vs event-driven replay.

The generational engine (:mod:`repro.core.generational`) promises
*envelope-level* equivalence with the reference event engine, not
per-message equality: both engines resolve the same dependency DAG against
the same closed-form backend timing, but they may settle on different —
equally self-consistent — FIFO schedules when contending messages tie (see
``docs/TRACE_FORMAT.md`` for the contract and its two documented
deviations).  On an optical target both engines accept the same
``TraceConfig`` domain.  This module pins the contract over the golden
corpus:

* **counts and identities must match exactly** — both engines schedule one
  :class:`repro.core.plan.Plan`, so they must agree on *which* records, not
  only how many.  Of ``COUNT_FIELDS``, ``dropped_deps`` and
  ``demoted_cyclic`` are read off that plan and equal by construction;
  ``messages_replayed`` / ``messages_unreplayed`` / ``stalled_count`` /
  ``rederived_records`` still test the two schedulers (did each one inject
  exactly the records that can fire?), and so do the id-level checks: the
  replayed-id set, ``stalled_msg_ids``, ``stalled_on`` and the whole
  ``fault_exposure`` (``rederived_msg_ids`` included);
* **exec-time estimates must agree within one relative tolerance**
  (``EXEC_TOL_PCT``, 3%);
* **the generational result must satisfy the invariant catalogue**
  (:func:`repro.validate.invariants.check_replay`) including strict
  per-channel FIFO where the backend guarantees it;
* **binary-format replay must be result-identical to JSON-format replay** —
  same trace bytes in, same ``ReplayResult`` out, regardless of container.

The matrix is all four golden scenarios (one per optical backend) x replay
modes x both gap policies x dependency ablation
x a representative slice of the fault families.  ``repro validate
--engines`` runs it from the CLI.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

from repro.config import (
    ENGINE_EVENT,
    ENGINE_GENERATIONAL,
    GAP_POLICY_CAPTURED,
    GAP_POLICY_NEIGHBOR,
    MITIGATIONS,
    OnocConfig,
    TRACE_NAIVE,
    TRACE_SELF_CORRECTING,
    TraceConfig,
)
from repro.core.replay import ReplayResult, replay_trace
from repro.core.trace import Trace
from repro.harness.builders import backend_in_order_channels, optical_factory
from repro.resilience import timeseries_for_trace
from repro.validate import invariants as inv
from repro.validate.faults import apply_faults, parse_fault_specs
from repro.validate.golden import GOLDEN_SCENARIOS, _trace_path

#: Relative exec-estimate tolerance (percent) between the engines.
EXEC_TOL_PCT = 3.0

#: Fault slice for the matrix: one selection fault, one timing fault, one
#: structural fault, at the moderate severities the fault-matrix gate uses.
ENGINE_FAULT_SPECS = ("drop_deps:0.3", "jitter:8", "truncate:0.1")

#: Degraded slice: one seeded fault *timeseries* per backend cell, replayed
#: through both engines under identical events (the resilience subsystem's
#: engine-equivalence pin).  Intensity stays moderate on purpose: extreme
#: degradation (>= 0.9) multiplies FIFO occupancies up to ~20x, which
#: widens the engines' documented same-cycle scheduling freedom beyond the
#: exec tolerance without indicating a semantic divergence.
ENGINE_DEGRADE_FAMILY = "thermal_drift+corruption_bursts"
ENGINE_DEGRADE_INTENSITY = 0.7

#: Count fields of :class:`ReplayResult` that must match *exactly*.
COUNT_FIELDS = (
    "messages_replayed",
    "messages_unreplayed",
    "dropped_deps",
    "demoted_cyclic",
    "stalled_count",
    "rederived_records",
)

#: ... and the fields naming *which* records, compared whole.
ID_FIELDS = ("stalled_msg_ids", "stalled_on", "fault_exposure")


@dataclass(frozen=True)
class EngineCell:
    """One point of the engine differential matrix."""

    scenario: str
    topology: str
    mode: str
    policy: str
    keep: float
    faults: str
    event_exec: int
    gen_exec: int
    count_mismatches: tuple[str, ...]
    violations: tuple[str, ...]
    converged: bool

    @property
    def rel_err_pct(self) -> float:
        base = max(1, abs(self.event_exec))
        return abs(self.gen_exec - self.event_exec) / base * 100.0

    @property
    def passed(self) -> bool:
        return (not self.count_mismatches and not self.violations
                and self.converged and self.rel_err_pct <= EXEC_TOL_PCT)

    def describe(self) -> str:
        flags = []
        if self.count_mismatches:
            flags.append(f"counts differ: {', '.join(self.count_mismatches)}")
        if self.violations:
            flags.append(f"{len(self.violations)} invariant violations")
        if not self.converged:
            flags.append("did not converge")
        if self.rel_err_pct > EXEC_TOL_PCT:
            flags.append(f"exec err {self.rel_err_pct:.2f}% > "
                         f"{EXEC_TOL_PCT:.1f}%")
        tag = "ok" if self.passed else "FAIL (" + "; ".join(flags) + ")"
        fault_tag = f" faults={self.faults}" if self.faults else ""
        return (f"{self.scenario:>9s}->{self.topology:<13s} {self.mode:>15s} "
                f"{self.policy:<12s} keep={self.keep:<4g}{fault_tag} "
                f"ev={self.event_exec} gen={self.gen_exec} "
                f"({self.rel_err_pct:+.2f}%) {tag}")


@dataclass
class EngineReport:
    """Full engine-differential outcome (cells + format-identity checks)."""

    cells: list[EngineCell] = field(default_factory=list)
    format_failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (not self.format_failures
                and all(c.passed for c in self.cells))

    def summary_lines(self) -> list[str]:
        lines = [f"engine differential: {len(self.cells)} cells, "
                 f"{sum(1 for c in self.cells if not c.passed)} failed, "
                 f"binary/JSON identity "
                 f"{'ok' if not self.format_failures else 'FAILED'}"]
        lines += [c.describe() for c in self.cells]
        lines += [f"  format: {f}" for f in self.format_failures]
        lines.append(f"engine differential {'PASS' if self.passed else 'FAIL'}")
        return lines


def _counts_diff(ev: ReplayResult, gen: ReplayResult) -> tuple[str, ...]:
    out = []
    for name in COUNT_FIELDS:
        a, b = getattr(ev, name), getattr(gen, name)
        if a != b:
            out.append(f"{name} {a}!={b}")
    out += [name for name in ID_FIELDS
            if getattr(ev, name) != getattr(gen, name)]
    if ev.injections.keys() != gen.injections.keys():
        out.append("replayed ids")
    return tuple(out)


def compare_engines(
    trace: Trace,
    onoc: OnocConfig,
    cfg: TraceConfig,
    seed: int,
    scenario: str = "?",
    faults: str = "",
) -> EngineCell:
    """Run both engines on one (trace, target, config) point and score it."""
    ev = replay_trace(trace, optical_factory(onoc, seed),
                      dataclasses.replace(cfg, engine=ENGINE_EVENT))
    gen = replay_trace(trace, optical_factory(onoc, seed),
                       dataclasses.replace(cfg, engine=ENGINE_GENERATIONAL))
    # The ``disable`` mitigation's detour latency can legitimately deliver
    # an earlier-injected message after a later one on the same channel
    # (the detour rides a different physical path), so degraded replays are
    # exempt from the strict per-channel FIFO form.
    strict = (backend_in_order_channels(onoc.topology)
              and not cfg.fault_events)
    violations = tuple(
        str(v) for v in inv.check_replay(trace, gen, strict_fifo=strict))
    return EngineCell(
        scenario=scenario,
        topology=onoc.topology,
        mode=cfg.mode,
        policy=cfg.degraded_gap_policy,
        keep=cfg.keep_dep_fraction,
        faults=faults,
        event_exec=ev.exec_time_estimate,
        gen_exec=gen.exec_time_estimate,
        count_mismatches=_counts_diff(ev, gen),
        violations=violations,
        converged=bool(gen.extra.get("converged", False)),
    )


def _format_identity(trace: Trace, onoc: OnocConfig, seed: int,
                     scenario: str) -> list[str]:
    """Binary-container replay must equal JSON-container replay exactly."""
    failures: list[str] = []
    rt = Trace.from_binary(trace.to_binary())
    json_rt = Trace.from_json(trace.to_json())
    for engine in (ENGINE_EVENT, ENGINE_GENERATIONAL):
        cfg = TraceConfig(mode=TRACE_SELF_CORRECTING, engine=engine)
        a = replay_trace(json_rt, optical_factory(onoc, seed), cfg)
        b = replay_trace(rt, optical_factory(onoc, seed), cfg)
        if (a.exec_time_estimate != b.exec_time_estimate
                or a.injections != b.injections
                or a.deliveries != b.deliveries):
            failures.append(
                f"{scenario}->{onoc.topology} [{engine}]: binary-loaded "
                f"trace replays differently from JSON-loaded "
                f"(exec {a.exec_time_estimate} vs {b.exec_time_estimate})")
    return failures


def check_engines(golden_dir: Path,
                  fast: bool = False) -> EngineReport:
    """Run the engine differential over the golden corpus.

    ``fast=True`` trims the matrix to one gap policy and no fault slice —
    the per-commit test-suite subset; the full matrix backs
    ``repro validate --engines`` and the CI perf/validation legs.
    """
    golden_dir = Path(golden_dir)
    report = EngineReport()
    policies = ((GAP_POLICY_CAPTURED,) if fast
                else (GAP_POLICY_CAPTURED, GAP_POLICY_NEIGHBOR))
    keeps = (1.0, 0.9)
    for cell_idx, scenario in enumerate(GOLDEN_SCENARIOS):
        trace = Trace.from_json(_trace_path(golden_dir, scenario).read_text())
        onoc = OnocConfig(num_nodes=scenario.cores,
                          num_wavelengths=scenario.wavelengths,
                          topology=scenario.target)
        name = scenario.workload
        report.cells.append(compare_engines(
            trace, onoc, TraceConfig(mode=TRACE_NAIVE), scenario.seed,
            scenario=name))
        for policy in policies:
            for keep in keeps:
                cfg = TraceConfig(mode=TRACE_SELF_CORRECTING,
                                  degraded_gap_policy=policy,
                                  keep_dep_fraction=keep,
                                  dep_drop_seed=7)
                report.cells.append(compare_engines(
                    trace, onoc, cfg, scenario.seed, scenario=name))
        if not fast:
            for spec in ENGINE_FAULT_SPECS:
                damaged, _ = apply_faults(
                    trace, parse_fault_specs(spec), seed=777)
                cfg = TraceConfig(mode=TRACE_SELF_CORRECTING)
                report.cells.append(compare_engines(
                    damaged, onoc, cfg, scenario.seed,
                    scenario=name, faults=spec))
        # Degraded cell: one per backend, identical fault timeseries through
        # both engines (cycling the mitigation policy across the corpus so
        # each one is engine-pinned somewhere).
        series = timeseries_for_trace(
            ENGINE_DEGRADE_FAMILY, trace, scenario.seed, scenario.cores,
            ENGINE_DEGRADE_INTENSITY)
        mitigation = MITIGATIONS[cell_idx % len(MITIGATIONS)]
        cfg = TraceConfig(mode=TRACE_SELF_CORRECTING,
                          fault_events=series.as_tuples(),
                          mitigation=mitigation)
        report.cells.append(compare_engines(
            trace, onoc, cfg, scenario.seed, scenario=name,
            faults=f"degrade:{ENGINE_DEGRADE_FAMILY}/{mitigation}"))
        report.format_failures += _format_identity(
            trace, onoc, scenario.seed, name)
    return report
