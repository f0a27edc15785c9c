"""Differential harness: randomized scenario fan-out, shrinking, repro files.

The harness samples seeded scenarios from the (capture x target x workload x
cores x scale) space, runs each through :func:`repro.validate.scenario.run_scenario`
— fanning out over worker processes via :class:`repro.harness.SweepRunner` —
and reduces every failure to a *minimal* scenario by greedily simplifying one
dimension at a time while the failure reproduces.  Shrunk failures serialize
to small repro JSONs (see :func:`write_repro`) that ``repro validate --repro``
replays directly.

Determinism: scenario generation uses only ``random.Random(seed)``, the
simulator is deterministic in (config, seed), and SweepRunner returns results
in submission order — so the full report is identical for any ``--jobs``
value and across runs.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional

from repro.config import ONOC_TOPOLOGIES
from repro.validate.faults import (
    FAULT_FAMILIES,
    fault_from_dict,
    fault_to_dict,
)
from repro.validate.scenario import (
    CAPTURE_NETWORKS,
    ErrorEnvelope,
    SCENARIO_WORKLOADS,
    Scenario,
    ScenarioOutcome,
    run_scenario,
)

#: Module-path reference SweepRunner workers resolve (must stay importable).
RUN_SCENARIO_REF = "repro.validate.scenario:run_scenario"


def generate_scenarios(
    n: int,
    seed: int,
    workloads: tuple[str, ...] = SCENARIO_WORKLOADS,
) -> list[Scenario]:
    """``n`` seeded random scenarios (deterministic in ``(n, seed,
    workloads)``).

    The first ``len(CAPTURE_NETWORKS) x len(ONOC_TOPOLOGIES)`` draws sweep
    every capture->target pair once before free sampling, so even small
    batches exercise every backend combination.  ``workloads`` widens (or
    narrows) the sampled workload pool — the nightly CI tier passes the
    heavyweight kernels (lu, cholesky, randshare) that are too slow for the
    per-push smoke gate.
    """
    if not workloads:
        raise ValueError("workloads must be non-empty")
    from repro.system import WORKLOADS as _ALL
    unknown = [w for w in workloads if w not in _ALL]
    if unknown:
        raise ValueError(f"unknown workloads: {', '.join(unknown)} "
                         f"(known: {', '.join(sorted(_ALL))})")
    rng = random.Random(seed)
    pairs = [(c, t) for c in CAPTURE_NETWORKS for t in ONOC_TOPOLOGIES
             if c != t]
    rng.shuffle(pairs)
    out: list[Scenario] = []
    for i in range(n):
        if i < len(pairs):
            capture, target = pairs[i]
        else:
            capture = rng.choice(CAPTURE_NETWORKS)
            target = rng.choice([t for t in ONOC_TOPOLOGIES if t != capture])
        cores = rng.choice((4, 16, 16, 64))
        wavelengths = rng.choice((16, 32, 64))
        if "awgr" in (capture, target):
            # AWGR is only feasible with >= cores-1 wavelengths.
            wavelengths = min(w for w in (16, 32, 64) if w >= cores - 1)
        out.append(Scenario(
            workload=rng.choice(workloads),
            cores=cores,
            seed=rng.randrange(1, 10_000),
            scale=rng.choice((0.1, 0.25, 0.5)),
            capture=capture,
            target=target,
            wavelengths=wavelengths,
            keep_dep_fraction=rng.choice((1.0, 1.0, 1.0, 0.9)),
        ))
    return out


def smoke_scenarios() -> list[Scenario]:
    """The fixed CI smoke tier: cheap, covers every backend as a target."""
    return [
        Scenario("fft", 16, 11, 0.25, "electrical", "crossbar"),
        Scenario("radix", 16, 12, 0.25, "electrical", "circuit_mesh"),
        Scenario("prodcons", 16, 13, 0.25, "electrical", "swmr_crossbar"),
        Scenario("barnes", 16, 14, 0.25, "electrical", "awgr"),
        Scenario("stencil", 4, 15, 0.5, "crossbar", "circuit_mesh"),
        Scenario("fft", 16, 16, 0.1, "awgr", "crossbar",
                 keep_dep_fraction=0.9),
    ]


# ---------------------------------------------------------------------------
# Fault matrix
# ---------------------------------------------------------------------------

#: Severity grid for error-vs-fault-severity curves (0 = pristine anchor).
DEFAULT_FAULT_SEVERITIES = (0.0, 0.1, 0.25, 0.5, 0.75, 1.0)

#: Maximum tolerated |Δ exec error| per unit severity between adjacent grid
#: points.  Measured on the reference mismatch pair (fft-16, awgr captured,
#: crossbar target, naive endpoint ~132%): under ``neighbor_gap`` the
#: steepest legitimate segment is ``rewire`` 0 -> 0.1 at a slope of ~633
#: (rewired causality is arithmetically silent, so the replayer cannot soften
#: it), while the ``captured`` re-anchoring cliff concentrates the whole
#: pristine-to-naive range in one 0.1 step — a slope of ~1290.  900 splits
#: the two with >40% margin each way.
DEFAULT_MAX_SLOPE_PCT_PER_UNIT = 900.0


def fault_matrix_scenarios(
    base: Scenario,
    families: Optional[tuple[str, ...]] = None,
    severities: tuple[float, ...] = DEFAULT_FAULT_SEVERITIES,
    fault_seed: int = 777,
) -> dict[str, list[tuple[float, Scenario]]]:
    """Per-family severity sweeps derived from ``base``.

    Every family shares the severity-0 point (the pristine base scenario),
    so the curves anchor at the same origin.
    """
    families = families or tuple(sorted(FAULT_FAMILIES))
    unknown = [f for f in families if f not in FAULT_FAMILIES]
    if unknown:
        raise ValueError(f"unknown fault families: {', '.join(unknown)} "
                         f"(known: {', '.join(sorted(FAULT_FAMILIES))})")
    out: dict[str, list[tuple[float, Scenario]]] = {}
    for fam in families:
        build = FAULT_FAMILIES[fam]
        out[fam] = [
            (sev,
             base if sev == 0.0 else replace(
                 base, faults=(build(sev),), fault_seed=fault_seed))
            for sev in sorted(severities)
        ]
    return out


def check_fault_matrix_smooth(
    points: list[tuple[float, float]],
    max_slope_pct_per_unit: float = DEFAULT_MAX_SLOPE_PCT_PER_UNIT,
) -> list[str]:
    """Breaches of the smooth-degradation property for one family's curve.

    ``points`` is ``[(severity, sc_exec_error_pct), ...]``.  Between each
    pair of adjacent severities the error may move at most
    ``max_slope_pct_per_unit`` error points per unit severity — a cliff
    (the historical re-anchoring collapse) concentrates the entire
    pristine-to-naive error range in one small severity step and fails.
    """
    bad: list[str] = []
    pts = sorted(points)
    for (s1, e1), (s2, e2) in zip(pts, pts[1:]):
        if s2 <= s1:
            continue
        slope = abs(e2 - e1) / (s2 - s1)
        if slope > max_slope_pct_per_unit:
            bad.append(
                f"error jumps {abs(e2 - e1):.1f} points between severity "
                f"{s1:g} and {s2:g} (slope {slope:.0f} > "
                f"{max_slope_pct_per_unit:g} per unit severity)")
    return bad


def fault_matrix_verdict(out) -> tuple[list[str], bool]:
    """Summary lines and pass/fail of one ``fault_matrix`` catalogue run.

    ``out`` is the experiment's :class:`repro.exp.RunOutcome`: one curve
    line per family from its rows (``FAIL`` when the family's ``breaches``
    column is non-zero, followed by what breached), and the run passes iff
    no row breached and every :class:`ScenarioOutcome` in ``out.results``
    passed its own invariants and envelope.
    """
    by_family: dict[str, list[dict]] = {}
    for row in out.rows:
        by_family.setdefault(row["family"], []).append(row)
    lines = []
    passed = all(o.passed for o in out.results)
    for fam, rows in sorted(by_family.items()):
        curve = ", ".join(f"{r['severity']:g}:{r['sc_err_%']:.1f}%"
                          for r in rows)
        breached = any(r["breaches"] for r in rows)
        lines.append(f"  {'FAIL' if breached else 'ok  '} {fam}: {curve}")
        if breached:
            passed = False
            lines.extend(f"       {b}" for b in check_fault_matrix_smooth(
                [(r["severity"], r["sc_err_%"]) for r in rows],
                out.resolved.parameters["max_slope"]))
    return lines, passed


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------

def _shrink_candidates(s: Scenario) -> list[Scenario]:
    """One-step simplifications of ``s``, most aggressive first.

    Infeasible combinations (e.g. dropping wavelengths below what an awgr
    endpoint needs) are rejected by Scenario validation and skipped.
    """
    raw = []
    if s.cores > 4:
        raw.append({"cores": max(4, s.cores // 4)})
    if s.scale > 0.1:
        raw.append({"scale": max(0.1, round(s.scale / 2, 3))})
    if s.keep_dep_fraction != 1.0:
        raw.append({"keep_dep_fraction": 1.0})
    if s.faults:
        # Drop the last fault first (faults compose left-to-right, so the
        # prefix is still a meaningful, smaller damage model).
        raw.append({"faults": s.faults[:-1]})
    if s.wavelengths > 16:
        raw.append({"wavelengths": 16})
    if s.capture != "electrical":
        raw.append({"capture": "electrical"})
    cands: list[Scenario] = []
    for change in raw:
        try:
            cands.append(replace(s, **change))
        except ValueError:
            continue
    return cands


def shrink(
    scenario: Scenario,
    envelope: Optional[ErrorEnvelope] = None,
    deep: bool = False,
    max_steps: int = 12,
    runner_fn: Callable[..., ScenarioOutcome] = run_scenario,
) -> tuple[Scenario, ScenarioOutcome]:
    """Greedily minimize a failing scenario while it still fails.

    Each round tries the one-step simplifications of the current scenario in
    order and keeps the first that still fails; stops when none do (a local
    minimum) or after ``max_steps``.  Returns the minimal scenario and its
    outcome.  ``runner_fn`` is injectable for tests.
    """
    current = scenario
    outcome = runner_fn(current, envelope, deep)
    if outcome.passed:
        raise ValueError(f"scenario {scenario.name} does not fail; "
                         "nothing to shrink")
    for _ in range(max_steps):
        for cand in _shrink_candidates(current):
            cand_outcome = runner_fn(cand, envelope, deep)
            if not cand_outcome.passed:
                current, outcome = cand, cand_outcome
                break
        else:
            break
    return current, outcome


# ---------------------------------------------------------------------------
# Repro files
# ---------------------------------------------------------------------------

REPRO_FORMAT = 1


def write_repro(outcome: ScenarioOutcome, out_dir: Path) -> Path:
    """Serialize a failing outcome to ``<out_dir>/<scenario-name>.json``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{outcome.scenario.name}.json"
    scenario_blob = asdict(outcome.scenario)
    # asdict flattens nested fault dataclasses into anonymous dicts; replace
    # them with the tagged form fault_from_dict can reconstruct.
    scenario_blob["faults"] = [fault_to_dict(f)
                               for f in outcome.scenario.faults]
    blob = {
        "format": REPRO_FORMAT,
        "scenario": scenario_blob,
        "violations": outcome.violations,
        "envelope_breaches": outcome.envelope_breaches,
        "measured": {
            "trace_messages": outcome.trace_messages,
            "ref_exec_time": outcome.ref_exec_time,
            "sc_exec_estimate": outcome.sc_exec_estimate,
            "naive_exec_estimate": outcome.naive_exec_estimate,
            "sc_exec_error_pct": round(outcome.sc_exec_error_pct, 4),
            "sc_mean_latency_error_pct":
                round(outcome.sc_mean_latency_error_pct, 4),
            "naive_exec_error_pct": round(outcome.naive_exec_error_pct, 4),
            "sc_unreplayed": outcome.sc_unreplayed,
            "sc_demoted_cyclic": outcome.sc_demoted_cyclic,
            "sc_rederived": outcome.sc_rederived,
            "fault_damaged": outcome.fault_damaged,
        },
    }
    path.write_text(json.dumps(blob, indent=2, sort_keys=True) + "\n")
    return path


def load_repro_scenario(path: Path) -> Scenario:
    """Scenario back out of a repro JSON written by :func:`write_repro`."""
    blob = json.loads(Path(path).read_text())
    if blob.get("format") != REPRO_FORMAT:
        raise ValueError(f"unsupported repro format in {path}")
    fields = dict(blob["scenario"])
    fields["faults"] = tuple(
        fault_from_dict(f) for f in fields.get("faults", ()))
    return Scenario(**fields)


# ---------------------------------------------------------------------------
# Batch driver
# ---------------------------------------------------------------------------

@dataclass
class DifferentialReport:
    """Aggregate result of one differential batch."""

    outcomes: list[ScenarioOutcome]
    shrunk: list[ScenarioOutcome] = field(default_factory=list)
    repro_paths: list[str] = field(default_factory=list)

    @property
    def failures(self) -> list[ScenarioOutcome]:
        return [o for o in self.outcomes if not o.passed]

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary_lines(self) -> list[str]:
        lines = [f"{len(self.outcomes)} scenarios, "
                 f"{len(self.failures)} failed"]
        for o in self.outcomes:
            status = "ok  " if o.passed else "FAIL"
            lines.append(
                f"  {status} {o.scenario.name}: "
                f"sc {o.sc_exec_error_pct:.2f}% / naive "
                f"{o.naive_exec_error_pct:.2f}% exec error, "
                f"{o.trace_messages} msgs"
                + (f" — {o.failure_summary()}" if not o.passed else ""))
        for o in self.shrunk:
            lines.append(f"  shrunk -> {o.scenario.name}: "
                         f"{o.failure_summary()}")
        return lines


def run_differential(
    scenarios: list[Scenario],
    runner=None,
    envelope: Optional[ErrorEnvelope] = None,
    deep: bool = False,
    repro_dir: Optional[Path] = None,
    do_shrink: bool = True,
) -> DifferentialReport:
    """Run a batch of scenarios, shrink failures, write repro files.

    ``runner`` is a :class:`repro.harness.SweepRunner` (or None to run
    sequentially in-process).  Results are deterministic in the scenario
    list regardless of worker count.
    """
    envelope = envelope or ErrorEnvelope()
    if runner is None:
        outcomes = [run_scenario(s, envelope, deep) for s in scenarios]
    else:
        outcomes = runner.map(RUN_SCENARIO_REF,
                              [(s,) for s in scenarios],
                              envelope=envelope, deep=deep)
    report = DifferentialReport(outcomes=outcomes)
    for failing in report.failures:
        if do_shrink:
            minimal, min_outcome = shrink(failing.scenario, envelope, deep)
        else:
            min_outcome = failing
        report.shrunk.append(min_outcome)
        if repro_dir is not None:
            report.repro_paths.append(
                str(write_repro(min_outcome, repro_dir)))
    return report
