"""Dedicated tests for the trace fault-injection layer (repro.validate.faults).

Three tiers:

* **Unit** — one test per fault model on a small hand-built trace, asserting
  the returned :class:`FaultReport` matches the damage actually injected
  (exact msg_id lists, counts, meta flags), plus zero-severity identity.
* **Determinism & composition** — same seed twice is bit-identical, a
  different seed changes the selection, and the three *selection* faults
  (``drop_deps``, ``truncate``, ``node_loss``) commute under every
  permutation, while ``jitter`` composition is order-sensitive (documented
  in the module docstring, pinned here).
* **Property (hypothesis, skipped if not installed)** — threshold faults
  damage monotonically-growing record sets in severity, and on a real
  captured scenario the self-correcting replay's exec error under the
  ``neighbor_gap`` policy is monotone-nondecreasing in fault severity up to
  a measured slack: graceful degradation, no cliffs, but no pretence that
  random damage is exactly monotone either (measured dips on the fft-16
  awgr->crossbar pair stay under ~11 error points; slack is 20).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.trace import DEGRADED_RECORDS_META_KEY, EndMarker, Trace, \
    TraceRecord
from repro.validate.faults import (
    FAULT_FAMILIES,
    DropDepEdges,
    FaultModel,
    NodeRecordLoss,
    RewireDeps,
    TimestampJitter,
    TruncateTail,
    apply_faults,
    fault_from_dict,
    fault_to_dict,
    parse_fault_specs,
)

SEED = 1234


def _rec(msg_id, t_inject, t_deliver, cause_id=-1, gap=None, src=0):
    if gap is None:
        gap = t_inject if cause_id == -1 else 0
    return TraceRecord(
        msg_id=msg_id, key=(src, (src + 1) % 3, "req_read", 0, msg_id),
        src=src, dst=(src + 1) % 3, size_bytes=8, kind="req_read",
        t_inject=t_inject, t_deliver=t_deliver, cause_id=cause_id, gap=gap)


def _trace() -> Trace:
    """12 records over 3 source nodes: per-node chains."""
    records = [
        _rec(0, 0, 10, src=0),
        _rec(1, 15, 30, cause_id=0, gap=5, src=0),
        _rec(2, 30, 50, cause_id=1, gap=0, src=0),
        _rec(3, 2, 12, src=1),
        _rec(4, 20, 35, cause_id=3, gap=8, src=1),
        _rec(5, 40, 55, cause_id=4, gap=5, src=1),
        _rec(6, 4, 14, src=2),
        _rec(7, 20, 38, cause_id=6, gap=6, src=2),
        _rec(8, 40, 52, cause_id=7, gap=2, src=2),
        _rec(9, 62, 80, cause_id=8, gap=10, src=2),
        _rec(10, 58, 70, cause_id=5, gap=3, src=0),
        _rec(11, 80, 95, cause_id=9, gap=0, src=1),
    ]
    markers = [EndMarker(0, 75, 10, 5), EndMarker(1, 98, 11, 3),
               EndMarker(2, 84, 9, 4)]
    trace = Trace(records=records, end_markers=markers, exec_time=98)
    trace.validate()
    return trace


DEPENDENT_IDS = frozenset({1, 2, 4, 5, 7, 8, 9, 10, 11})


# --------------------------------------------------------------- drop_deps

def test_drop_deps_report_matches_injected_damage():
    trace = _trace()
    damaged, report = DropDepEdges(0.5).apply(trace, SEED)
    assert report.fault == "drop_deps" and report.severity == 0.5
    assert report.records_before == report.records_after == len(trace)
    dropped = set(report.dropped_edges)
    assert dropped and dropped <= DEPENDENT_IDS
    by_id = {r.msg_id: r for r in damaged.records}
    for mid in dropped:
        r = by_id[mid]
        assert r.cause_id == -1 and r.gap == r.t_inject
    for r in trace.records:          # undamaged records pass through intact
        if r.msg_id not in dropped:
            assert by_id[r.msg_id] == r
    # The meta flag is exactly the dropped set — the replayer's routing key.
    assert set(damaged.meta[DEGRADED_RECORDS_META_KEY]) == dropped
    assert report.removed_records == () and report.rewired_records == ()
    assert report.damaged_count == len(dropped)


def test_drop_deps_full_and_zero_severity():
    trace = _trace()
    all_dropped, rep1 = DropDepEdges(1.0).apply(trace, SEED)
    assert set(rep1.dropped_edges) == DEPENDENT_IDS
    assert all(r.cause_id == -1 for r in all_dropped.records)
    untouched, rep0 = DropDepEdges(0.0).apply(trace, SEED)
    assert rep0.dropped_edges == () and untouched.records == trace.records
    assert DEGRADED_RECORDS_META_KEY not in untouched.meta


# ------------------------------------------------------------------ jitter

def test_jitter_report_matches_shifts_and_trace_stays_valid():
    trace = _trace()
    damaged, report = TimestampJitter(5.0).apply(trace, SEED)
    assert report.records_before == report.records_after == len(trace)
    damaged.validate()               # coherent lie: still a wellformed trace
    orig = {r.msg_id: r for r in trace.records}
    shifts = {r.msg_id: abs(r.t_inject - orig[r.msg_id].t_inject)
              for r in damaged.records}
    moved = {mid for mid, d in shifts.items() if d}
    assert set(report.shifted_records) == moved and moved
    assert report.max_abs_shift == max(shifts.values())
    assert report.dropped_edges == () and report.removed_records == ()


def test_jitter_zero_sigma_zero_skew_is_identity():
    trace = _trace()
    damaged, report = TimestampJitter(0.0).apply(trace, SEED)
    # Records are rebuilt in canonical (t_inject, msg_id) order; the content
    # is the identity.
    assert {r.msg_id: r for r in damaged.records} \
        == {r.msg_id: r for r in trace.records}
    assert damaged.end_markers == trace.end_markers
    assert damaged.exec_time == trace.exec_time
    assert report.shifted_records == () and report.max_abs_shift == 0


def test_jitter_skew_stretches_exec_time():
    trace = _trace()
    damaged, _ = TimestampJitter(0.0, skew=0.5).apply(trace, SEED)
    damaged.validate()
    assert damaged.exec_time > trace.exec_time


# ---------------------------------------------------------------- truncate

def test_truncate_removes_exactly_the_tail():
    trace = _trace()
    # exec_time 98, fraction 0.4 -> cutoff floor(58.8) = 58: records 9 and
    # 11 (t_inject 62, 80) fall, record 10 (t_inject 58) survives the edge.
    damaged, report = TruncateTail(0.4).apply(trace, SEED)
    assert report.removed_records == (9, 11)
    assert report.records_after == len(trace) - 2
    assert {r.msg_id for r in damaged.records} \
        == {r.msg_id for r in trace.records} - {9, 11}
    # The *claimed* horizon is untouched — that is the damage.
    assert damaged.exec_time == trace.exec_time
    assert damaged.end_markers == trace.end_markers


def test_truncate_zero_severity_is_identity():
    damaged, report = TruncateTail(0.0).apply(_trace(), SEED)
    assert report.removed_records == ()
    assert len(damaged.records) == 12


# --------------------------------------------------------------- node_loss

def test_node_loss_respects_node_selection():
    trace = _trace()
    # Seed 2 hashes exactly one of the three source nodes under the 0.5
    # node-selection threshold, so the subset is strict.
    damaged, report = NodeRecordLoss(1.0, node_fraction=0.5).apply(trace, 2)
    assert report.lost_nodes and set(report.lost_nodes) < {0, 1, 2}
    lost = set(report.lost_nodes)
    # fraction=1.0: every record from a lost node is gone, others intact.
    assert set(report.removed_records) \
        == {r.msg_id for r in trace.records if r.src in lost}
    assert all(r.src not in lost for r in damaged.records)
    assert report.records_after == len(damaged.records)


def test_node_loss_partial_fraction_is_subset_of_lost_nodes():
    trace = _trace()
    _, report = NodeRecordLoss(0.6, node_fraction=1.0).apply(trace, SEED)
    assert set(report.lost_nodes) == {0, 1, 2}
    by_id = {r.msg_id: r for r in trace.records}
    assert all(by_id[mid].src in report.lost_nodes
               for mid in report.removed_records)
    assert 0 < len(report.removed_records) < len(trace)


# ------------------------------------------------------------------ rewire

def test_rewire_report_matches_rewired_edges_and_balances():
    trace = _trace()
    deliver = {r.msg_id: r.t_deliver for r in trace.records}
    orig = {r.msg_id: r for r in trace.records}
    damaged, report = RewireDeps(1.0).apply(trace, SEED)
    damaged.validate()               # arithmetically silent damage
    rewired = set(report.rewired_records)
    assert rewired and rewired <= DEPENDENT_IDS
    for r in damaged.records:
        if r.msg_id in rewired:
            assert r.cause_id != orig[r.msg_id].cause_id
            # New cause delivered in time, gap recomputed to balance.
            assert deliver[r.cause_id] <= r.t_inject
            assert r.gap == r.t_inject - deliver[r.cause_id]
        else:
            assert r == orig[r.msg_id]
    assert report.records_before == report.records_after == len(trace)


# ------------------------------------------- determinism and composition

ALL_FAULTS = (DropDepEdges(0.5), TimestampJitter(5.0), TruncateTail(0.4),
              NodeRecordLoss(0.6), RewireDeps(0.7))


@pytest.mark.parametrize("fault", ALL_FAULTS, ids=lambda f: f.name)
def test_same_seed_is_bit_identical(fault):
    trace = _trace()
    t1, r1 = fault.apply(trace, SEED)
    t2, r2 = fault.apply(trace, SEED)
    assert t1.records == t2.records and t1.end_markers == t2.end_markers
    assert t1.meta == t2.meta and r1 == r2


@pytest.mark.parametrize("fault", ALL_FAULTS, ids=lambda f: f.name)
def test_different_seed_changes_the_damage(fault):
    trace = _trace()
    _, r1 = fault.apply(trace, SEED)
    _, r2 = fault.apply(trace, SEED + 1)
    assert r1 != r2


def test_selection_faults_commute_under_every_permutation():
    import itertools
    trio = (DropDepEdges(0.3), TruncateTail(0.2), NodeRecordLoss(0.3))
    trace = _trace()
    outcomes = []
    for perm in itertools.permutations(trio):
        damaged, _ = apply_faults(trace, perm, SEED)
        outcomes.append((tuple(damaged.records), tuple(damaged.end_markers),
                         tuple(sorted(damaged.meta.get(
                             DEGRADED_RECORDS_META_KEY, ())))))
    assert len(set(outcomes)) == 1, "selection faults must commute"


def test_jitter_composition_is_order_sensitive():
    """Documented, not accidental: jitter rewrites the timestamps the
    selection faults read, so `jitter then truncate` != `truncate then
    jitter`."""
    trace = _trace()
    a, _ = apply_faults(trace, (TimestampJitter(8.0), TruncateTail(0.4)),
                        SEED)
    b, _ = apply_faults(trace, (TruncateTail(0.4), TimestampJitter(8.0)),
                        SEED)
    assert a.records != b.records


def test_apply_faults_rejects_non_fault_models():
    with pytest.raises(TypeError, match="not a FaultModel"):
        apply_faults(_trace(), ("drop_deps:0.3",), SEED)


# -------------------------------------------------- spec parsing and JSON

def test_parse_fault_specs_round_trip():
    faults = parse_fault_specs("drop_deps:0.3, jitter:8:0.05, "
                               "node_loss:0.3:0.5, truncate:0.1, rewire:0.2")
    assert [f.name for f in faults] \
        == ["drop_deps", "jitter", "node_loss", "truncate", "rewire"]
    assert faults[1] == TimestampJitter(8.0, skew=0.05)
    assert faults[2] == NodeRecordLoss(0.3, node_fraction=0.5)


@pytest.mark.parametrize("bad", ["", "bogus:0.5", "drop_deps",
                                 "drop_deps:x", "drop_deps:1.5"])
def test_parse_fault_specs_rejects_bad_input(bad):
    with pytest.raises(ValueError):
        parse_fault_specs(bad)


@pytest.mark.parametrize("fault", ALL_FAULTS, ids=lambda f: f.name)
def test_fault_dict_round_trip(fault):
    blob = fault_to_dict(fault)
    assert blob["kind"] == fault.name
    back = fault_from_dict(blob)
    assert back == fault and isinstance(back, FaultModel)


def test_repro_json_round_trips_faults(tmp_path):
    from repro.validate.differential import load_repro_scenario, write_repro
    from repro.validate.scenario import Scenario, ScenarioOutcome
    scen = Scenario("fft", 16, 16, 0.1, "awgr", "crossbar",
                    faults=(DropDepEdges(0.3), TimestampJitter(8.0, 0.05)),
                    fault_seed=99, gap_policy="captured")
    outcome = ScenarioOutcome(
        scenario=scen, trace_messages=0, ref_exec_time=1, sc_exec_estimate=1,
        naive_exec_estimate=1, sc_exec_error_pct=0.0,
        sc_mean_latency_error_pct=0.0, naive_exec_error_pct=0.0,
        sc_unreplayed=0, sc_demoted_cyclic=0)
    path = write_repro(outcome, tmp_path)
    back = load_repro_scenario(path)
    assert back == scen and back.faults == scen.faults


def test_fault_matrix_smoothness_gate():
    from repro.validate.differential import check_fault_matrix_smooth
    smooth = [(0.0, 3.6), (0.25, 20.0), (0.5, 60.0), (0.75, 100.0),
              (1.0, 132.0)]
    assert check_fault_matrix_smooth(smooth) == []
    # The captured-policy cliff: the whole pristine-to-naive range lands in
    # one 0.1-severity step (slope ~1290 per unit — the breach this gate
    # exists to catch).
    cliff = [(0.0, 3.6), (0.1, 132.4), (0.25, 132.4), (1.0, 132.5)]
    breaches = check_fault_matrix_smooth(cliff)
    assert len(breaches) == 1 and "severity 0 and 0.1" in breaches[0]


def test_fault_matrix_verdict_on_smoke_and_doctored_outcomes():
    """The verdict `repro validate --faults matrix` exits on: PASS on the
    smoke config's real outcome; a cliff in the rows or a scenario that
    failed its own invariants each turn it to FAIL."""
    import pathlib

    from repro.exp import resolve_config, run_experiment
    from repro.harness import SweepRunner
    from repro.validate import fault_matrix_verdict

    cfg = resolve_config(pathlib.Path(__file__).parent.parent / "benchmarks"
                         / "experiments" / "smoke" / "fault_matrix.yaml")
    out = run_experiment(cfg, SweepRunner(workers=1))
    lines, passed = fault_matrix_verdict(out)
    assert passed
    assert [line.split(":")[0] for line in lines] == \
        ["  ok   drop_deps", "  ok   truncate"]
    assert lines[0].count("%") == len(cfg.parameters["severities"])

    # One cliff: truncate's whole error range lands in the 0 -> 0.5 step.
    rows = [dict(r) for r in out.rows]
    for r in rows:
        if r["family"] == "truncate":
            r["breaches"] = 1
            if r["severity"] == 0.5:
                r["sc_err_%"] = 600.0
    lines, passed = fault_matrix_verdict(dataclasses.replace(out, rows=rows))
    assert not passed
    assert lines[0].startswith("  ok   drop_deps")
    assert lines[1].startswith("  FAIL truncate: 0:")
    assert "between severity 0 and 0.5" in lines[2]

    # One failed scenario, smooth curves: the lines stay ok, the run fails.
    bad = dataclasses.replace(out.results[-1], violations=["causality: x"])
    lines, passed = fault_matrix_verdict(
        dataclasses.replace(out, results=[*out.results[:-1], bad]))
    assert not passed
    assert all(line.startswith("  ok   ") for line in lines)


def test_validate_faults_matrix_cli_runs_the_catalogue_experiment(capsys):
    """`--gap-policy` reaches the catalogue as a parameter override: under
    ``captured`` the matrix shows the historical re-anchoring cliff, named
    per family, and the command exits 1."""
    from repro.cli import main

    assert main(["validate", "--faults", "matrix",
                 "--gap-policy", "captured"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("fault matrix on fft-c16-s16-x0.1-w32-awgr-to-crossbar"
                      "-captured (sc exec error by severity, policy=captured):")
    assert out[1].startswith("  FAIL drop_deps: 0:3.6%, 0.1:132.4%")
    assert "between severity 0 and 0.1" in out[2]
    assert any(line.startswith("  ok   jitter:") for line in out)


# ------------------------------------------------- hypothesis properties

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

THRESHOLD_FAMILIES = {
    "drop_deps": lambda s: DropDepEdges(s),
    "truncate": lambda s: TruncateTail(s),
    "node_loss": lambda s: NodeRecordLoss(s, node_fraction=1.0),
}


def _damaged_ids(report):
    return (set(report.dropped_edges) | set(report.removed_records)
            | set(report.rewired_records))


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(sorted(THRESHOLD_FAMILIES)),
       lo=st.floats(min_value=0.0, max_value=1.0),
       hi=st.floats(min_value=0.0, max_value=1.0),
       seed=st.integers(min_value=0, max_value=2**32))
def test_threshold_faults_damage_grows_with_severity(family, lo, hi, seed):
    """Per-record decisions are `hash < fraction` thresholds, so the damage
    set at a lower severity is a subset of the set at a higher one — the
    exact (slack-free) form of monotone degradation."""
    if lo > hi:
        lo, hi = hi, lo
    make = THRESHOLD_FAMILIES[family]
    trace = _trace()
    _, small = make(lo).apply(trace, seed)
    _, large = make(hi).apply(trace, seed)
    assert _damaged_ids(small) <= _damaged_ids(large)


# Severity grid shared with the checked-in fault-matrix benchmark; errors
# are cached per (family, severity) so hypothesis examples are cheap.
SEVERITIES = (0.0, 0.25, 0.5, 0.75, 1.0)

#: Measured head-room: on fft-16 awgr->crossbar (fault_seed 777) the largest
#: non-monotone dip across all family curves is ~10.6 error points
#: (node_loss, severity 0.25 -> 0.75).  Random damage is not exactly
#: monotone; a cliff-free policy keeps dips an order of magnitude below the
#: ~129-point captured-policy jump.
MONOTONE_SLACK_PCT = 20.0

_ERROR_CACHE: dict[tuple[str, float], float] = {}


@pytest.fixture(scope="module")
def degradation_env():
    """One captured trace + reference exec time for the mismatch pair."""
    from repro.harness.builders import optical_factory, run_execution_driven
    from repro.validate.scenario import Scenario
    scen = Scenario("fft", 16, 16, 0.1, "awgr", "crossbar")
    exp = scen.experiment()
    cap_exp = dataclasses.replace(
        exp, onoc=dataclasses.replace(exp.onoc, topology="awgr"))
    _, trace, _ = run_execution_driven(cap_exp, scen.workload, "optical",
                                       scale=scen.scale)
    ref_res, _, _ = run_execution_driven(exp, scen.workload, "optical",
                                         scale=scen.scale)
    return trace, ref_res.exec_time_cycles, optical_factory(exp.onoc,
                                                            exp.seed)


def _exec_error(env, family: str, severity: float) -> float:
    key = (family, severity)
    if key not in _ERROR_CACHE:
        from repro.config import TRACE_SELF_CORRECTING, TraceConfig
        from repro.core import replay_trace
        trace, ref_exec, factory = env
        if severity > 0.0:
            trace, _ = apply_faults(trace, (FAULT_FAMILIES[family](severity),),
                                    777)
        res = replay_trace(trace, factory,
                           TraceConfig(mode=TRACE_SELF_CORRECTING))
        _ERROR_CACHE[key] = (abs(res.exec_time_estimate - ref_exec)
                             / ref_exec * 100.0)
    return _ERROR_CACHE[key]


@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from(sorted(FAULT_FAMILIES)),
       pair=st.tuples(st.sampled_from(SEVERITIES),
                      st.sampled_from(SEVERITIES)))
def test_exec_error_is_monotone_in_severity_within_slack(
        degradation_env, family, pair):
    """The graceful-degradation property behind the fault matrix: under the
    default neighbor_gap policy, more damage never makes the replay *much*
    better — error is monotone-nondecreasing in severity up to the measured
    dip slack.  (Under the captured policy this fails spectacularly: the
    error is already at the naive ceiling by severity 0.1.)"""
    lo, hi = min(pair), max(pair)
    err_lo = _exec_error(degradation_env, family, lo)
    err_hi = _exec_error(degradation_env, family, hi)
    assert err_hi >= err_lo - MONOTONE_SLACK_PCT, (
        f"{family}: error fell {err_lo:.1f}% -> {err_hi:.1f}% between "
        f"severity {lo:g} and {hi:g}")


def test_full_severity_always_hurts(degradation_env):
    """Severity 1.0 strictly exceeds the pristine anchor for every family —
    the injected damage is visible end-to-end, not absorbed silently."""
    for family in FAULT_FAMILIES:
        assert _exec_error(degradation_env, family, 1.0) \
            > _exec_error(degradation_env, family, 0.0)
