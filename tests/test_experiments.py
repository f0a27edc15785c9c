"""Every registered experiment, end to end at 4 cores.

One parametrised smoke test drives each catalogue entry through
``compile -> SweepRunner -> postprocess`` (the path ``repro exp run <name>``
takes) from a per-name table of ``(parameter overrides, semantic check)``.
Registering an experiment in ``repro/exp/catalog.py`` without adding a table
row here fails ``test_every_registered_experiment_has_a_case``.
"""

from __future__ import annotations

import math

import pytest

from repro.exp import (
    compile_config,
    experiment_names,
    resolve_config,
    run_experiment,
)
from repro.harness import SweepRunner

SMALL = {"cores": 4, "seed": 5, "wavelengths": 16}


# ------------------------------------------------- per-experiment checks
# Each takes the run's raw point results (``RunOutcome.results``).
def check_accuracy(results):
    (row,) = results
    assert row.workload == "randshare"
    assert row.ref_exec_time > 0
    assert row.self_correcting.exec_time_error_pct <= row.naive.exec_time_error_pct
    assert row.extra["trace_messages"] > 0


def check_simtime(results):
    (row,) = results
    assert row.exec_driven_s > 0
    assert row.naive_replay_s > 0
    assert row.self_correcting_s > 0
    assert row.replay_speedup > 0


def check_case_study(results):
    (row,) = results
    assert row.exec_electrical > 0 and row.exec_optical > 0
    assert row.speedup == pytest.approx(row.exec_electrical / row.exec_optical)
    assert row.messages > 0


def check_power(results):
    ((r_e, r_o),) = results
    assert r_e.total_energy_uj > 0
    assert r_o.total_energy_uj > 0
    assert "laser" in r_o.static_mw


def check_convergence(results):
    ((history, ref),) = results
    assert 1 <= len(history) <= 4
    assert ref > 0


def check_ablation_deps(results):
    (rows,) = results
    assert len(rows) == 2
    full_err = rows[0][1].exec_time_error_pct
    none_err = rows[1][1].exec_time_error_pct
    assert full_err < none_err


def check_ablation_mismatch(results):
    (rows,) = results
    assert len(rows) == 2
    for _, naive_rep, sc_rep in rows:
        assert sc_rep.exec_time_error_pct <= naive_rep.exec_time_error_pct + 1.0


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
        check(out.results)
