"""Every catalogue-backed figure and table of the paper, from one table.

A figure is a config under ``benchmarks/experiments/``: it states *what*
to run and :mod:`repro.exp` compiles it to content-keyed sweep tasks
(shared on-disk cache, see ``conftest.sweep_runner``).  ``FIGURES`` adds,
one row per config, what a config cannot say: the title of the table
saved to ``benchmarks/results/<id>.txt`` and the *shape* the paper expects
of it (who wins, what stays small, what grows).  One figure::

    PYTHONPATH=src python -m pytest benchmarks/bench_catalogue.py -k fig4

The replay engine of fig9/table2 is their configs' ``engine`` parameter
(``repro exp run <config> --set engine=generational`` for the other one).
Table 1, every cell a string, is what ``python -m repro info`` prints.
"""

from __future__ import annotations

import pathlib
from typing import Callable, NamedTuple

import pytest
from conftest import save_and_print

from repro.exp import resolve_config, run_experiment
from repro.harness import format_table
from repro.validate import fault_matrix_verdict

EXPERIMENTS_DIR = pathlib.Path(__file__).parent / "experiments"


# ---- shape checks: what each figure must look like, whatever the numbers

def _check_fig3(out) -> None:
    rows = out.rows
    patterns = out.resolved.parameters["patterns"]
    rates = out.resolved.parameters["rates"]
    # Shape checks: at low load the optical crossbar beats the mesh on
    # every pattern.
    for pattern in patterns:
        lat = {
            r["network"]: r["avg_latency"] for r in rows
            if r["pattern"] == pattern and r["rate"] == rates[0]
        }
        assert lat["optical"] < lat["electrical"], pattern
    # The mesh saturates somewhere within the swept range on transpose.
    mesh_transpose = [r for r in rows if r["pattern"] == "transpose"
                      and r["network"] == "electrical"]
    assert any(r["saturated"] for r in mesh_transpose) or \
        len(mesh_transpose) == len(rates)


def _check_fig4(out) -> None:
    # Shape: self-correction must beat naive per workload and be precise.
    for r in out.rows:
        assert r["selfcorr_err_%"] <= r["naive_err_%"], r["workload"]
        assert r["selfcorr_err_%"] < 8.0, r["workload"]


def _check_fig5(out) -> None:
    rows = out.rows
    # Shape: averaged over workloads, self-correction reproduces the mean
    # latency better than naive replay.
    naive = [r["mean_lat_err_%"] for r in rows if r["mode"] == "naive"]
    sc = [r["mean_lat_err_%"] for r in rows if r["mode"] == "self_correcting"]
    assert sum(sc) / len(sc) < sum(naive) / len(naive)


def _check_fig6(out) -> None:
    """The estimate moves from the naive (capture-network) timeline toward
    the execution-driven ONOC time within a handful of passes."""
    max_iterations = out.resolved.parameters["max_iterations"]
    for wl in out.resolved.parameters["workloads"]:
        history = [r for r in out.rows if r["workload"] == wl]
        first, last = (abs(r["estimate"] - r["ref_exec"])
                       for r in (history[0], history[-1]))
        assert last < first, f"{wl}: iteration did not reduce error"
        assert len(history) <= max_iterations


def _check_fig7(out) -> None:
    """Under both degraded-gap policies keep=0 approaches the naive
    replay's error and full annotations beat none; ``captured`` re-anchors
    dropped records to the capture network (the historical cliff: even
    keep=0.75 collapses), ``neighbor_gap`` degrades gradually."""
    errs = {policy: {r["kept_deps"]: r[f"{policy}_exec_err_%"]
                     for r in out.rows}
            for policy in out.resolved.parameters["policies"]}
    for policy, err in errs.items():
        assert err[1.0] < err[0.0], \
            f"{policy}: full annotations must beat none"
        assert err[1.0] < 5.0
    # The graceful-degradation claim: at 75% annotations the neighbor policy
    # must stay far below the captured policy's re-anchoring collapse.
    cap, ngb = errs["captured"], errs["neighbor_gap"]
    assert ngb[0.75] < cap[0.75] / 2, \
        f"neighbor_gap {ngb[0.75]:.1f}% should halve captured {cap[0.75]:.1f}%"


def _check_fig8(out) -> None:
    """The naive replay's error grows with the capture/target mismatch
    (wavelengths 4 ... 256), self-correction stays flat and small."""
    for r in out.rows:
        wl, sc_err = r["wavelengths"], r["selfcorr_err_%"]
        assert sc_err <= r["naive_err_%"] + 1.5, f"{wl} λ"
        if wl >= 64:
            # Faster-than-capture targets (the paper's direction): precise.
            assert sc_err < 8.0, f"{wl} λ"
        else:
            # Much slower targets resolve protocol races differently, so the
            # captured dependency graph over-constrains the replay; the
            # model degrades gracefully rather than failing (documented in
            # EXPERIMENTS.md).
            assert sc_err < 20.0, f"{wl} λ"


def _check_fig9(out) -> None:
    """Speedup and self-correction accuracy both hold as the machine grows."""
    rows = out.rows
    speedups = [r["speedup_x"] for r in rows]
    assert all(s > 1.0 for s in speedups)
    # The optical advantage must not collapse with scale.
    assert speedups[-1] > 0.8 * speedups[0]
    for r in rows:
        if "selfcorr_err_%" in r:
            assert r["selfcorr_err_%"] < 8.0, f"{r['cores']} cores"


def _check_fig10(out) -> None:
    """The trace model generalises to the hybrid, with a caveat measured and
    documented in EXPERIMENTS.md: per-message fidelity stays excellent
    (mean-latency error < 1%) but the layer-coupled critical path is
    reconstructed less tightly than on single-layer targets (~11% vs ~1%),
    still 5x better than naive replay (~56%)."""
    rows = out.rows
    for r in rows:
        assert r["selfcorr_err_%"] < 15.0, r["threshold"]

    by_thr = {r["threshold"]: r for r in rows}
    # Traffic fraction is monotone in the threshold.
    fracs = [by_thr[t]["optical_frac_%"]
             for t in out.resolved.parameters["thresholds"]]
    assert fracs == sorted(fracs, reverse=True)
    assert by_thr[0]["optical_frac_%"] == 100.0
    assert by_thr[7]["optical_frac_%"] == 0.0
    # All-optical must beat all-electrical on this workload.
    assert by_thr[0]["exec_time"] < by_thr[7]["exec_time"]


def _check_fig11(out) -> None:
    """Compaction keeps the accuracy; coherence traffic is dependency-dense,
    so the compression is modest (EXPERIMENTS.md)."""
    rows = out.rows
    base_err = rows[0]["exec_err_%"]
    for r in rows[1:]:
        assert r["record_ratio"] <= 1.0
        assert r["exec_err_%"] < base_err + 5.0, r["variant"]


def _check_fig12(out) -> None:
    """Single-digit errors on every architecture, ranked like the
    execution-driven runs rank them."""
    rows = out.rows
    for r in rows:
        assert r["selfcorr_err_%"] < 8.0, r["architecture"]
    # The replay must rank the architectures like the references do.
    by_ref = sorted(rows, key=lambda r: r["ref_exec"])
    by_pred = sorted(rows, key=lambda r: r["selfcorr_est"])
    assert [r["architecture"] for r in by_ref] == \
        [r["architecture"] for r in by_pred]


def _check_fig13(out) -> None:
    """Self-correction's error stays in the low single digits for every
    seed while naive stays high: the gap is structural, not noise."""
    for r in out.rows:
        assert r["selfcorr_max_%"] < 8.0, r["workload"]
        assert r["selfcorr_mean_%"] < r["naive_mean_%"] / 4, r["workload"]


def _check_table2(out) -> None:
    # Shape: self-correcting replay must not substantially extend the
    # simulation time vs the execution-driven ONOC run (claim: <= ~1.5x).
    for r in out.rows:
        assert r["selfcorr_replay_s"] <= 1.5 * r["exec_driven_s"] + 0.05, \
            r["workload"]


def _check_table3(out) -> None:
    for r in out.rows:
        assert r["speedup_x"] > 1.0, f"{r['workload']}: ONOC should win"
        assert r["lat_opt"] < r["lat_elec"], r["workload"]


def _check_table4(out) -> None:
    for r in out.rows:
        assert r["total_uj"] > 0, r
        if r["network"].startswith("optical"):
            # the documented caveat: optical static power dominates at
            # this scale
            assert r["static_pct"] > 50, r


def _check_table5(out) -> None:
    rows = out.rows
    by_name = {r["network"]: r["total_mm2"] for r in rows}
    mwsr = by_name["optical_crossbar_16n"]
    swmr = by_name["optical_swmr_crossbar_16n"]
    awgr = by_name["optical_awgr_16n"]
    # The two N^2-ring crossbars dominate; the passive AWGR is leanest.
    assert awgr < mwsr and awgr < swmr
    assert all(v > 0 for v in by_name.values())


def _check_fault_matrix(out) -> None:
    assert fault_matrix_verdict(out)[1]
    # Smooth degradation: no family may concentrate the pristine-to-naive
    # error range in one severity step (the captured-policy cliff does, at
    # ~2x the allowed slope, and is pinned as failing in the test-suite).
    for row in out.rows:
        fam = row["family"]
        assert row["breaches"] == 0, (fam, row)
        # Shared pristine anchor keeps the paper's precision.
        if row["severity"] == 0.0:
            assert row["sc_err_%"] < 5.0, (fam, row)
        # Nothing stalls under the neighbor policy, whatever the damage.
        assert row["unreplayed"] == 0, (fam, row)


# ---- the table

def _table(out, title: str) -> str:
    return format_table(out.rows, title=title)


def _fault_curves(out, title: str) -> str:
    return "\n".join([title, *fault_matrix_verdict(out)[0]]) + "\n"


class Figure(NamedTuple):
    config: str             # under benchmarks/experiments/
    check: Callable         # RunOutcome -> None, asserts the expected shape
    title: str              # str.format template over the resolved parameters
    render: Callable = _table


#: id (also the ``benchmarks/results/<id>.txt`` name) -> figure.
FIGURES = {
    "fig3_load_latency": Figure(
        "fig3_load_latency.yaml", _check_fig3,
        "Fig. 3: Load-latency, electrical mesh vs ONOC crossbar"),
    "fig4_accuracy": Figure(
        "fig4_accuracy.yaml", _check_fig4,
        "Fig. 4: Execution-time error, naive vs self-correcting"),
    "fig5_latency_error": Figure(
        "fig5_latency_error.yaml", _check_fig5,
        "Fig. 5: Per-message latency fidelity on the ONOC"),
    "fig6_convergence": Figure(
        "fig6_convergence.yaml", _check_fig6,
        "Fig. 6: Iterative self-correction convergence"),
    "fig7_ablation_deps": Figure(
        "fig7_ablation_deps.yaml", _check_fig7,
        "Fig. 7: Accuracy vs dependency completeness ({workload}), "
        "by degraded-gap policy"),
    "fig8_ablation_mismatch": Figure(
        "fig8_ablation_mismatch.yaml", _check_fig8,
        "Fig. 8: Accuracy vs target-network mismatch ({workload})"),
    "fig9_scalability": Figure(
        "fig9_scalability.yaml", _check_fig9,
        "Fig. 9: Scalability ({workload}, {engine})"),
    "fig10_hybrid": Figure(
        "fig10_hybrid.yaml", _check_fig10,
        "Fig. 10: Path-adaptive hybrid threshold sweep ({workload})"),
    "fig11_compaction": Figure(
        "fig11_compaction.yaml", _check_fig11,
        "Fig. 11: Trace compaction vs accuracy ({workload})"),
    "fig12_architectures": Figure(
        "fig12_architectures.yaml", _check_fig12,
        "Fig. 12: One trace vs four optical architectures ({workload})"),
    "fig13_seed_sensitivity": Figure(
        "fig13_seed_sensitivity.yaml", _check_fig13,
        "Fig. 13: Accuracy across seeds {seeds}"),
    "table2_simtime": Figure(
        "table2_simtime.yaml", _check_table2,
        "Table 2: Wall-clock simulation time per methodology "
        "({engine} engine)"),
    "table3_casestudy": Figure(
        "table3_case_study.yaml", _check_table3,
        "Table 3: Case study, ONOC vs baseline NoC"),
    "table4_power": Figure(
        "table4_power.yaml", _check_table4,
        "Table 4: Energy, ONOC vs electrical NoC"),
    "table5_area": Figure(
        "table5_area.yaml", _check_table5, "Table 5: Area (mm^2)"),
    "fault_matrix": Figure(
        "base/fault_matrix.yaml", _check_fault_matrix,
        "Fault matrix: sc exec error vs severity ({workload}-{cores}, "
        "{capture} -> {target}, {gap_policy} policy)", _fault_curves),
}


def test_every_figure_config_has_a_row():
    """A top-level config without a row here is a figure nothing renders."""
    top_level = {p.name for p in EXPERIMENTS_DIR.glob("*.yaml")}
    assert {f.config for f in FIGURES.values()} \
        == top_level | {"base/fault_matrix.yaml"}


@pytest.mark.parametrize("name", FIGURES)
def test_figure(name, benchmark, results_dir, sweep_runner):
    fig = FIGURES[name]
    cfg = resolve_config(EXPERIMENTS_DIR / fig.config)
    out = benchmark.pedantic(run_experiment, args=(cfg, sweep_runner),
                             rounds=1, iterations=1)
    save_and_print(results_dir, name,
                   fig.render(out, fig.title.format(**cfg.parameters)))
    fig.check(out)
