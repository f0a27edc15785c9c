"""Golden corpus: checked-in traces + pinned accuracy numbers.

The differential harness bounds error loosely over a randomized space; the
golden corpus is the opposite end of the spectrum — a handful of fixed
scenarios whose captured traces and measured accuracy are checked into
``tests/golden/`` and must reproduce *exactly*:

* ``<name>.trace.json`` — the captured trace, byte-for-byte,
* ``envelopes.json``   — per-scenario execution times, error percentages
  (rounded to 4 decimals) and a sha256 of each trace file.

``repro validate --regen-golden`` rewrites the corpus;
:func:`check_golden` re-captures and re-replays everything and reports any
drift.  Because the simulator is integer-cycle and deterministic in
(config, seed), any diff is a semantic change to capture or replay — the
corpus turns silent model drift into a reviewable file diff.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

from repro.config import ONOC_TOPOLOGIES, OnocConfig
from repro.core.replay import SelfCorrectingReplayer
from repro.core.trace import Trace
from repro.harness.builders import optical_factory, run_execution_driven
from repro.validate import invariants as inv
from repro.validate.scenario import Scenario, ScenarioOutcome, run_scenario

#: Fixed corpus scenarios.  Keep them cheap: the corpus is re-verified in CI.
GOLDEN_SCENARIOS = (
    Scenario("fft", 16, 101, 0.25, "electrical", "crossbar"),
    Scenario("radix", 16, 102, 0.25, "electrical", "awgr"),
    Scenario("prodcons", 4, 103, 0.5, "electrical", "circuit_mesh"),
    Scenario("stencil", 16, 104, 0.25, "crossbar", "swmr_crossbar"),
)

ENVELOPES_FILE = "envelopes.json"
GOLDEN_FORMAT = 1


def _trace_path(golden_dir: Path, scenario: Scenario) -> Path:
    return Path(golden_dir) / f"{scenario.name}.trace.json"


def _capture(scenario: Scenario) -> Trace:
    exp = scenario.experiment()
    if scenario.capture == "electrical":
        _, trace, _ = run_execution_driven(
            exp, scenario.workload, "electrical", scale=scenario.scale)
    else:
        cap_exp = dataclasses.replace(
            exp, onoc=dataclasses.replace(exp.onoc,
                                          topology=scenario.capture))
        _, trace, _ = run_execution_driven(
            cap_exp, scenario.workload, "optical", scale=scenario.scale)
    assert trace is not None
    return trace


def _envelope_entry(outcome: ScenarioOutcome, trace_bytes: bytes) -> dict:
    return {
        "trace_sha256": hashlib.sha256(trace_bytes).hexdigest(),
        "trace_messages": outcome.trace_messages,
        "ref_exec_time": outcome.ref_exec_time,
        "sc_exec_estimate": outcome.sc_exec_estimate,
        "naive_exec_estimate": outcome.naive_exec_estimate,
        "sc_exec_error_pct": round(outcome.sc_exec_error_pct, 4),
        "sc_mean_latency_error_pct":
            round(outcome.sc_mean_latency_error_pct, 4),
        "naive_exec_error_pct": round(outcome.naive_exec_error_pct, 4),
        "sc_demoted_cyclic": outcome.sc_demoted_cyclic,
        "sc_unreplayed": outcome.sc_unreplayed,
    }


def measure_gap_scaling_dip(golden_dir: Path,
                            factors: tuple[int, ...] = (1, 2, 4)) -> float:
    """Worst non-monotone dip (%) in the gap-scaling sweep over the corpus.

    Replays every stored golden trace, gap-scaled by each factor, on *all*
    optical backends with the self-correcting replayer, and returns the
    largest percentage by which a larger scale factor predicted a *shorter*
    execution than the previous one (0.0 when the prediction is strictly
    monotone, which is what every measured corpus to date shows).  This is
    the empirical basis for ``invariants.GAP_SCALING_SLACK_PCT``; regen pins
    it in ``envelopes.json`` so any drift is a reviewable diff.
    """
    worst = 0.0
    for scenario in GOLDEN_SCENARIOS:
        trace = Trace.from_json(
            _trace_path(golden_dir, scenario).read_text())
        for topology in ONOC_TOPOLOGIES:
            factory = optical_factory(
                OnocConfig(num_nodes=scenario.cores,
                           num_wavelengths=scenario.wavelengths,
                           topology=topology),
                scenario.seed)
            prev = None
            for k in sorted(factors):
                scaled = inv.scale_trace_gaps(trace, k)
                sim, net = factory()
                est = SelfCorrectingReplayer(scaled, sim, net).run() \
                    .exec_time_estimate
                if prev is not None and est < prev:
                    worst = max(worst, (prev - est) / prev * 100.0)
                prev = est
    return worst


def regen_golden(golden_dir: Path) -> list[Path]:
    """(Re)write the whole corpus; returns the files written.

    Deterministic: running twice on the same platform produces byte-identical
    files, which is exactly what the acceptance check in CI asserts.
    """
    golden_dir = Path(golden_dir)
    golden_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    envelopes: dict = {"format": GOLDEN_FORMAT, "scenarios": {}}
    env_path = golden_dir / ENVELOPES_FILE
    if env_path.exists():
        # Curated analysis notes (e.g. the radix->awgr outlier study) are
        # hand-written and survive a regen.
        notes = json.loads(env_path.read_text()).get("notes")
        if notes:
            envelopes["notes"] = notes
    for scenario in GOLDEN_SCENARIOS:
        trace = _capture(scenario)
        trace_bytes = (trace.to_json() + "\n").encode()
        path = _trace_path(golden_dir, scenario)
        path.write_bytes(trace_bytes)
        written.append(path)
        outcome = run_scenario(scenario)
        envelopes["scenarios"][scenario.name] = _envelope_entry(
            outcome, trace_bytes)
    envelopes["bounds"] = {
        "gap_scaling_max_dip_pct": round(
            measure_gap_scaling_dip(golden_dir), 4),
        "gap_scaling_slack_pct": inv.GAP_SCALING_SLACK_PCT,
    }
    env_path.write_text(
        json.dumps(envelopes, indent=2, sort_keys=True) + "\n")
    written.append(env_path)
    return written


def check_golden(golden_dir: Path) -> list[str]:
    """Verify the corpus against a fresh capture + replay; returns failures."""
    golden_dir = Path(golden_dir)
    failures: list[str] = []
    env_path = golden_dir / ENVELOPES_FILE
    if not env_path.exists():
        return [f"missing {env_path} — run `repro validate --regen-golden`"]
    envelopes = json.loads(env_path.read_text())
    if envelopes.get("format") != GOLDEN_FORMAT:
        return [f"unsupported golden format in {env_path}"]
    recorded = envelopes.get("scenarios", {})

    # The pinned gap-scaling measurement must exist and must not exceed the
    # slack the metamorphic check actually grants (else the slack constant
    # no longer covers reality and needs re-deriving, not hand-editing).
    pinned_dip = envelopes.get("bounds", {}).get("gap_scaling_max_dip_pct")
    if pinned_dip is None:
        failures.append("bounds.gap_scaling_max_dip_pct missing from "
                        "envelopes — regen needed")
    elif pinned_dip > inv.GAP_SCALING_SLACK_PCT:
        failures.append(
            f"pinned gap-scaling dip {pinned_dip}% exceeds "
            f"GAP_SCALING_SLACK_PCT={inv.GAP_SCALING_SLACK_PCT}%")

    for scenario in GOLDEN_SCENARIOS:
        name = scenario.name
        entry = recorded.get(name)
        path = _trace_path(golden_dir, scenario)
        if entry is None or not path.exists():
            failures.append(f"{name}: missing from corpus — regen needed")
            continue

        stored_bytes = path.read_bytes()
        sha = hashlib.sha256(stored_bytes).hexdigest()
        if sha != entry["trace_sha256"]:
            failures.append(f"{name}: trace file does not match its "
                            "recorded sha256")
        fresh = _capture(scenario)
        fresh_bytes = (fresh.to_json() + "\n").encode()
        if fresh_bytes != stored_bytes:
            failures.append(f"{name}: fresh capture differs from the stored "
                            "trace (capture semantics changed — regen and "
                            "review the diff)")
            continue

        outcome = run_scenario(scenario)
        got = _envelope_entry(outcome, fresh_bytes)
        for key, want in entry.items():
            if got.get(key) != want:
                failures.append(
                    f"{name}: {key} = {got.get(key)!r}, corpus pins {want!r}")
    unknown = set(recorded) - {s.name for s in GOLDEN_SCENARIOS}
    for name in sorted(unknown):
        failures.append(f"{name}: in corpus but not in GOLDEN_SCENARIOS")
    return failures
