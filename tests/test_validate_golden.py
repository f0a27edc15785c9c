"""Golden corpus: regen determinism, drift detection, checked-in integrity."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.core.trace import Trace
from repro.validate import GOLDEN_SCENARIOS, check_golden, regen_golden
from repro.validate import invariants as inv
from repro.validate.golden import ENVELOPES_FILE, _capture, _trace_path

CHECKED_IN = pathlib.Path(__file__).parent / "golden"


def test_regen_is_byte_identical(tmp_path):
    files_a = regen_golden(tmp_path / "a")
    files_b = regen_golden(tmp_path / "b")
    assert [f.name for f in files_a] == [f.name for f in files_b]
    for fa, fb in zip(files_a, files_b):
        assert fa.read_bytes() == fb.read_bytes(), fa.name


def test_checked_in_corpus_matches_regen(tmp_path):
    """The committed tests/golden/ must be exactly what --regen-golden emits.

    The curated ``notes`` key is hand-written, not regenerated; seeding the
    tmp dir with the committed envelopes makes the byte comparison cover
    regen's notes-preservation as well.
    """
    (tmp_path / ENVELOPES_FILE).write_text(
        (CHECKED_IN / ENVELOPES_FILE).read_text())
    fresh = regen_golden(tmp_path)
    for f in fresh:
        committed = CHECKED_IN / f.name
        assert committed.exists(), f"{f.name} missing from tests/golden/"
        assert committed.read_bytes() == f.read_bytes(), (
            f"{f.name} drifted — run `repro validate --regen-golden` and "
            "review the diff")


def test_check_golden_passes_on_checked_in_corpus():
    assert check_golden(CHECKED_IN) == []


def test_checked_in_traces_satisfy_invariants():
    for scenario in GOLDEN_SCENARIOS:
        trace = Trace.from_json(
            _trace_path(CHECKED_IN, scenario).read_text())
        assert inv.check_trace(trace) == []
        assert trace.meta["workload"] == scenario.workload


def test_check_golden_reports_missing_corpus(tmp_path):
    failures = check_golden(tmp_path)
    assert len(failures) == 1
    assert "regen-golden" in failures[0]


def test_check_golden_detects_trace_tampering(tmp_path):
    regen_golden(tmp_path)
    victim = _trace_path(tmp_path, GOLDEN_SCENARIOS[0])
    obj = json.loads(victim.read_text())
    obj["records"][0][4] = 4096  # silently fatten a message
    victim.write_text(json.dumps(obj) + "\n")
    failures = check_golden(tmp_path)
    assert any("sha256" in f for f in failures)


def test_check_golden_detects_envelope_tampering(tmp_path):
    regen_golden(tmp_path)
    env_path = tmp_path / ENVELOPES_FILE
    env = json.loads(env_path.read_text())
    name = GOLDEN_SCENARIOS[0].name
    env["scenarios"][name]["sc_exec_error_pct"] = 99.9
    env_path.write_text(json.dumps(env, indent=2, sort_keys=True) + "\n")
    failures = check_golden(tmp_path)
    assert any("sc_exec_error_pct" in f and name in f for f in failures)


def test_check_golden_flags_unknown_scenarios(tmp_path):
    regen_golden(tmp_path)
    env_path = tmp_path / ENVELOPES_FILE
    env = json.loads(env_path.read_text())
    env["scenarios"]["ghost-scenario"] = {}
    env_path.write_text(json.dumps(env, indent=2, sort_keys=True) + "\n")
    failures = check_golden(tmp_path)
    assert any("ghost-scenario" in f for f in failures)


def test_capture_is_independent_of_prior_runs():
    """Canonical msg_ids: the same scenario captures byte-identically even
    after unrelated simulations advanced the global message-id counter."""
    scenario = GOLDEN_SCENARIOS[0]
    first = _capture(scenario).to_json()
    _capture(GOLDEN_SCENARIOS[1])  # burn a few thousand global msg ids
    second = _capture(scenario).to_json()
    assert first == second
    ids = [r[0] for r in json.loads(second)["records"]]
    assert ids == sorted(ids)
    assert ids[0] == 0 and ids[-1] == len(ids) - 1


def test_iterative_refinement_closes_awgr_outlier():
    """The recorded radix->awgr outlier study (envelopes.json ``notes``).

    Single-pass online self-correction sits at -7.59% against the
    execution-driven reference; five damped fixed-point passes
    (``repro.core.iterate``) must land within 1% — proving the outlier is
    capture-timing sensitivity, not a missing AWGR contention model.
    """
    from repro.config import OnocConfig, TRACE_SELF_CORRECTING, TraceConfig
    from repro.core import replay_trace
    from repro.core.iterate import IterativeRefiner
    from repro.harness.builders import optical_factory

    scenario = next(s for s in GOLDEN_SCENARIOS if s.workload == "radix")
    trace = Trace.from_json(_trace_path(CHECKED_IN, scenario).read_text())
    env = json.loads((CHECKED_IN / ENVELOPES_FILE).read_text())
    ref = env["scenarios"][scenario.name]["ref_exec_time"]
    onoc = OnocConfig(num_nodes=scenario.cores,
                      num_wavelengths=scenario.wavelengths,
                      topology=scenario.target)

    cfg = TraceConfig(mode=TRACE_SELF_CORRECTING)
    sc = replay_trace(trace, optical_factory(onoc, scenario.seed), cfg)

    refined = IterativeRefiner(
        trace, optical_factory(onoc, scenario.seed),
        max_iterations=5, damping=0.5).run()
    single_err = abs(sc.exec_time_estimate - ref) / ref * 100
    refined_err = abs(refined.exec_time_estimate - ref) / ref * 100
    assert single_err > 5.0          # the outlier is real...
    assert refined_err < 1.0         # ...and refinement closes it
    assert "notes" in env and "radix-awgr-outlier" in env["notes"]


@pytest.mark.parametrize("scenario", GOLDEN_SCENARIOS,
                         ids=lambda s: s.name)
def test_corpus_scenarios_are_cheap(scenario):
    # The corpus is re-verified on every CI run; keep each trace small.
    trace = Trace.from_json(_trace_path(CHECKED_IN, scenario).read_text())
    assert len(trace) < 5000
