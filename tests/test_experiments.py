"""Every registered experiment, end to end at 4 cores.

One parametrised smoke test drives each catalogue entry through
``compile -> SweepRunner -> postprocess`` (the path ``repro exp run <name>``
takes) from a per-name table of ``(parameter overrides, semantic check)``.
Registering an experiment in ``repro/exp/catalog.py`` without adding a table
row here fails ``test_every_registered_experiment_has_a_case``.
"""

from __future__ import annotations

import math
import subprocess
import sys

import pytest

from repro.exp import (
    compile_config,
    experiment_names,
    metrics_from_rows,
    resolve_config,
    run_experiment,
)
from repro.harness import SweepRunner

SMALL = {"cores": 4, "seed": 5, "wavelengths": 16}


# ------------------------------------------------- per-experiment checks
# Each takes the run's table rows (``RunOutcome.rows``).
def check_accuracy(rows):
    row, gmean = rows
    assert row["workload"] == "randshare"
    assert row["ref_exec"] > 0
    assert row["selfcorr_err_%"] <= row["naive_err_%"]
    assert row["messages"] > 0
    assert gmean["workload"] == "gmean" and gmean["ref_exec"] == ""


def check_simtime(rows):
    (row,) = rows
    assert row["exec_driven_s"] > 0
    assert row["naive_replay_s"] > 0
    assert row["selfcorr_replay_s"] > 0
    assert row["replay_speedup_x"] > 0


def check_case_study(rows):
    (row,) = rows
    assert row["exec_electrical"] > 0 and row["exec_optical"] > 0
    assert row["speedup_x"] == pytest.approx(
        row["exec_electrical"] / row["exec_optical"], abs=5e-4)


def check_power(rows):
    r_e, r_o = rows
    assert r_e["total_uj"] > 0
    assert r_o["total_uj"] > 0
    assert r_e["network"] != r_o["network"]
    assert 0 < r_o["static_pct"] <= 100


def check_convergence(rows):
    assert 1 <= len(rows) <= 4
    assert [r["iteration"] for r in rows] == list(range(len(rows)))
    assert all(r["ref_exec"] > 0 for r in rows)


def check_ablation_deps(rows):
    assert [r["kept_deps"] for r in rows] == [1.0, 0.0]
    full_err, none_err = (r["neighbor_gap_exec_err_%"] for r in rows)
    assert full_err < none_err


def check_ablation_mismatch(rows):
    assert [r["wavelengths"] for r in rows] == [4, 64]
    for r in rows:
        assert r["selfcorr_err_%"] <= r["naive_err_%"] + 1.0


def check_hybrid(rows):
    pure_optical, pure_electrical = rows
    assert pure_optical["optical_frac_%"] == 100.0
    assert pure_electrical["optical_frac_%"] == 0.0
    assert all(r["exec_time"] > 0 and r["energy_uj"] > 0 for r in rows)
    assert all(r["selfcorr_err_%"] >= 0 for r in rows)


def check_compaction(rows):
    assert [r["variant"] for r in rows] == [
        "uncompacted", "filter_leaf_control", "coalesce(w=16)"]
    assert rows[0]["records"] >= rows[1]["records"]
    assert all(r["record_ratio"] <= 1.0 for r in rows)


def check_architectures(rows):
    assert [r["architecture"] for r in rows] == ["awgr", "circuit_mesh"]
    # One trace replayed onto both: the same message count.
    assert rows[0]["messages"] == rows[1]["messages"] > 0
    assert all(r["selfcorr_err_%"] <= r["naive_err_%"] + 1.0 for r in rows)


#: name -> (parameter overrides on the schema defaults, check or None).
CASES = {
    "accuracy": ({**SMALL, "workloads": ["randshare"], "scale": 0.5},
                 check_accuracy),
    "simtime": ({**SMALL, "workloads": ["stencil"], "scale": 0.5},
                check_simtime),
    "case_study": ({**SMALL, "workloads": ["fft"], "scale": 0.5},
                   check_case_study),
    "power": ({**SMALL, "workloads": ["fft"]}, check_power),
    "convergence": (
        {**SMALL, "workloads": ["randshare"], "max_iterations": 4},
        check_convergence),
    "ablation_deps": (
        {**SMALL, "workload": "randshare", "fractions": [1.0, 0.0],
         "policies": ["neighbor_gap"], "scale": 0.5},
        check_ablation_deps),
    "ablation_mismatch": (
        {**SMALL, "workload": "randshare", "wavelength_counts": [4, 64]},
        check_ablation_mismatch),
    "area": (SMALL, None),
    "latency_error": ({**SMALL, "workloads": ["prodcons"]}, None),
    "load_latency": (
        {**SMALL, "patterns": ["uniform"], "rates": [0.05],
         "warmup": 100, "measure": 400},
        None),
    "seed_sensitivity": (
        {**SMALL, "workloads": ["prodcons"], "seeds": [6]}, None),
    "scalability": ({"core_counts": [4], "workload": "prodcons",
                     "seed": 5}, None),
    "resilience": (
        {**SMALL, "workloads": ["fft"], "mitigations": ["reallocate"]},
        None),
    "fault_matrix": (
        {"cores": 4, "families": ["drop_deps"], "severities": [0.0, 0.5]},
        None),
    "hybrid": ({**SMALL, "workload": "prodcons", "thresholds": [0, 3],
                "scale": 0.5}, check_hybrid),
    "compaction": ({**SMALL, "workload": "randshare", "windows": [16],
                    "scale": 0.5}, check_compaction),
    "architectures": (
        {**SMALL, "workload": "randshare",
         "topologies": ["awgr", "circuit_mesh"], "scale": 0.5},
        check_architectures),
    "scalability_synth": (
        {"node_counts": [16], "topologies": ["crossbar", "circuit_mesh"],
         "messages": 400},
        None),
}


def test_every_registered_experiment_has_a_case():
    assert set(CASES) == set(experiment_names())


@pytest.mark.parametrize("name", experiment_names())
def test_registered_experiment_runs(name):
    overrides, check = CASES[name]
    cfg = resolve_config(name, overrides)
    keys = [t.cache_key() for t in compile_config(cfg)]
    assert keys and keys == [t.cache_key() for t in compile_config(cfg)]

    out = run_experiment(cfg, SweepRunner(workers=1))
    assert out.rows
    assert out.metrics
    for metric, value in out.metrics.items():
        assert isinstance(value, (int, float)) and math.isfinite(value), metric
    if check is not None:
        check(out.rows)


def test_load_latency_series_stops_at_saturation():
    """A series is cut just past its first saturated point: latency is
    unbounded there, so higher rates add no row."""
    cfg = resolve_config("load_latency", {
        **SMALL, "patterns": ["uniform"], "networks": ["electrical"],
        "labels": ["mesh"], "rates": [0.05, 0.9, 0.95],
        "warmup": 200, "measure": 1000})
    rows = run_experiment(cfg, SweepRunner(workers=1)).rows
    assert 1 <= len(rows) <= 3
    assert all(not r["saturated"] for r in rows[:-1])
    assert rows[-1]["saturated"] or len(rows) == 3
    assert {r["network"] for r in rows} == {"mesh"}


def test_metrics_from_rows_refuses_a_repeated_metric():
    rows = [{"network": "x", "avg_latency": 13.5},
            {"network": "x", "avg_latency": 10.5}]
    with pytest.raises(ValueError, match="'x.avg_latency'"):
        metrics_from_rows(rows, ("network",))


def test_dry_run_refuses_a_misspelt_workload():
    """The typo fails the dry run, before any worker sees it."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "exp", "run", "accuracy",
         "--set", 'workloads=["fft","fftt"]', "--dry-run"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "'fftt'" in proc.stderr and "key=" not in proc.stdout
