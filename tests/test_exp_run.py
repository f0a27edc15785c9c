"""End-to-end repro.exp runs + compile/cache-key identity + CLI surface.

Two properties carry the whole layer:

* a config run produces a self-describing archive, and two runs of the
  same config diff to zero parameter deltas and zero changed metrics;
* the tasks a config compiles to are cache-key-identical to a direct call
  of the point function with every parameter passed.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.cli import main
from repro.config import default_16core_config
from repro.exp import (
    SchemaError,
    ServeExecutor,
    compile_config,
    diff_archives,
    discover_configs,
    load_archive,
    resolve_config,
    run_experiment,
)
from repro.harness import SweepRunner, task
from repro.harness.experiments import (
    accuracy_experiment,
    area_rows,
    scalability_point,
)
from repro.serve import ServeClient, SimulationServer

SMALL = {"cores": 4, "seed": 3, "wavelengths": 16}


def write_cfg(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


@pytest.fixture()
def runner(tmp_path):
    return SweepRunner(workers=1, cache_dir=tmp_path / "cache")


# -------------------------------------------------- compile-time identity
def test_area_compiles_to_legacy_task():
    cfg = resolve_config("benchmarks/experiments/base/area.yaml")
    (t,) = compile_config(cfg)
    legacy = task(area_rows, default_16core_config().with_seed(7))
    assert t.cache_key() == legacy.cache_key()


def test_accuracy_compiles_to_legacy_tasks(tmp_path):
    p = write_cfg(
        tmp_path,
        {"experiment": "accuracy",
         "parameters": {"workloads": ["fft", "lu"], "scale": 0.5}},
    )
    tasks = compile_config(resolve_config(p))
    exp = default_16core_config().with_seed(7)
    legacy = [task(accuracy_experiment, exp, wl, scale=0.5, engine="event")
              for wl in ("fft", "lu")]
    assert [t.cache_key() for t in tasks] == [
        t.cache_key() for t in legacy]


def test_scalability_compiles_to_legacy_tasks(tmp_path):
    p = write_cfg(
        tmp_path,
        {"experiment": "scalability",
         "parameters": {"core_counts": [4, 64], "accuracy_max_cores": 36}},
    )
    tasks = compile_config(resolve_config(p))
    legacy = [
        task(scalability_point, 4, 7, "fft", with_accuracy=True,
             engine="event"),
        task(scalability_point, 64, 7, "fft", with_accuracy=False,
             engine="event"),
    ]
    assert [t.cache_key() for t in tasks] == [
        t.cache_key() for t in legacy]


# ------------------------------------------------------- serve whitelist
#: A literal copy of the whitelist (the hand-written one, then every point
#: alias registered since): wire clients and cached content keys depend on
#: every pair.
OPERATIONS = {
    "echo": "repro.serve.ops:echo",
    "resolve_config": "repro.serve.ops:resolve_config",
    "scenario": "repro.validate.scenario:run_scenario",
    "scenario_json": "repro.serve.ops:run_scenario_json",
    "accuracy": "repro.harness.experiments:accuracy_experiment",
    "accuracy_json": "repro.serve.ops:accuracy_json",
    "casestudy": "repro.harness.experiments:case_study",
    "load_latency_point": "repro.harness.experiments:load_latency_point",
    "simtime": "repro.harness.experiments:simtime_experiment",
    "power": "repro.harness.experiments:power_experiment",
    "convergence": "repro.harness.experiments:convergence_experiment",
    "ablation_deps": "repro.harness.experiments:ablation_dep_fraction",
    "ablation_mismatch": "repro.harness.experiments:ablation_network_mismatch",
    "scalability_point": "repro.harness.experiments:scalability_point",
    "seed_accuracy_point": "repro.harness.experiments:seed_accuracy_point",
    "latency_fidelity": "repro.harness.experiments:latency_fidelity_rows",
    "area_rows": "repro.harness.experiments:area_rows",
    "resilience_point": "repro.harness.experiments:resilience_point",
    "synth_scalability_point": "repro.synth.experiment:synth_scalability_point",
    "hybrid": "repro.harness.experiments:hybrid_point",
    "compaction": "repro.harness.experiments:compaction_rows",
}


def test_every_checked_in_config_compiles_to_whitelisted_tasks():
    """The whitelist is derived from the catalogue's ``points``; this is the
    guard that a registration's points cover what its compile emits."""
    operations = SimulationServer(port=0).operations
    assert OPERATIONS.items() <= operations.items()
    admitted = set(operations.values())
    configs = discover_configs("benchmarks/experiments")
    assert len(configs) >= 36
    for path in configs:
        tasks = compile_config(resolve_config(path))
        assert tasks, path
        assert {t.fn for t in tasks} <= admitted, path


def test_every_point_ref_resolves_to_its_function():
    """Points are dotted refs, imported by whoever runs a task: each must
    name the module-level function it resolves to."""
    from repro.exp.catalog import serve_operations
    from repro.harness.parallel import callable_ref, resolve_callable

    for alias, ref in serve_operations().items():
        assert callable_ref(resolve_callable(ref)) == ref, alias


def test_serve_executor_matches_local_run(runner):
    cfg = resolve_config("area", SMALL)
    local = run_experiment(cfg, runner)

    def submit_all(port):
        with ServeClient(port=port) as client:
            return run_experiment(cfg, ServeExecutor(client))

    async def serve():
        server = SimulationServer(port=0, workers=1)
        await server.start()
        try:
            return await asyncio.to_thread(submit_all, server.port)
        finally:
            await server.aclose()

    served = asyncio.run(serve())
    assert served.rows == local.rows
    assert served.metrics == local.metrics
    assert served.stats.executed == len(compile_config(cfg))


# ------------------------------------------------------- end-to-end runs
def test_run_writes_archive_and_baseline(tmp_path, runner):
    p = write_cfg(tmp_path, {"experiment": "area", "parameters": SMALL})
    cfg = resolve_config(p)
    out = run_experiment(
        cfg, runner,
        archive_root=tmp_path / "archives",
        baseline_out=tmp_path / "baseline.json",
    )
    assert out.archive_dir is not None
    assert out.rows and out.metrics
    assert out.stats.executed == 1

    arch = load_archive(out.archive_dir)
    assert arch.experiment == "area"
    assert arch.config_hash == cfg.config_hash
    assert arch.manifest["provenance"]["git"]["rev"]
    assert arch.manifest["sweep"]["executed"] == 1
    table = (out.archive_dir / "artifacts" / "table.txt").read_text()
    assert "mm2" in table

    # baseline is the same manifest, standalone
    base = load_archive(tmp_path / "baseline.json")
    assert base.config_hash == arch.config_hash
    assert base.metrics == arch.metrics


def test_same_config_runs_diff_clean(tmp_path, runner):
    p = write_cfg(tmp_path, {"experiment": "area", "parameters": SMALL})
    cfg = resolve_config(p)
    a = run_experiment(cfg, runner, archive_root=tmp_path / "a")
    b = run_experiment(cfg, runner, archive_root=tmp_path / "b")
    assert b.stats.cached == 1  # second run replays from the result cache

    rep = diff_archives(load_archive(a.archive_dir),
                        load_archive(b.archive_dir))
    assert rep.param_deltas == []
    assert rep.changed_metrics == []
    assert rep.config_hash_equal
    assert rep.gate_ok


def test_perturbed_metric_fails_gate(tmp_path, runner):
    p = write_cfg(tmp_path, {"experiment": "area", "parameters": SMALL})
    cfg = resolve_config(p)
    out = run_experiment(cfg, runner, archive_root=tmp_path / "arch",
                         baseline_out=tmp_path / "base.json")
    baseline = json.loads((tmp_path / "base.json").read_text())
    metric = next(iter(baseline["metrics"]))
    baseline["metrics"][metric] *= 1.25  # drift beyond any 0% tolerance
    (tmp_path / "bad.json").write_text(json.dumps(baseline))

    rep = diff_archives(load_archive(tmp_path / "bad.json"), out.archive)
    assert not rep.gate_ok
    assert [d.metric for d in rep.gate_failures] == [metric]


# ------------------------------------------------------------------- CLI
def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_cli_exp_list(capsys):
    rc, out = run_cli(capsys, "exp", "list")
    assert rc == 0
    assert "accuracy" in out and "area" in out
    assert "fig4_accuracy" in out  # discovered configs listed with hashes
    # descriptions are cut at the sentence end, not at the period in "Fig."
    (accuracy_row,) = [ln for ln in out.splitlines()
                       if ln.startswith("accuracy ")]
    assert "Fig. 4" in accuracy_row


def test_cli_exp_run_dry(tmp_path, capsys):
    p = write_cfg(tmp_path, {"experiment": "area", "parameters": SMALL})
    rc, out = run_cli(capsys, "exp", "run", str(p), "--dry-run")
    assert rc == 0
    assert "tasks=1" in out
    assert "key=" in out  # each task listed with its cache key prefix


def test_cli_exp_run_by_name_matches_one_line_config(tmp_path, capsys):
    """A bare catalogue name is the config file that only names it."""
    p = write_cfg(tmp_path, {"experiment": "accuracy"})
    _, by_file = run_cli(capsys, "exp", "run", str(p), "--dry-run")
    _, by_name = run_cli(capsys, "exp", "run", "accuracy", "--dry-run")
    assert "key=" in by_name
    assert by_name.splitlines()[1:] == by_file.splitlines()[1:]  # task keys
    with pytest.raises(SchemaError, match="catalogue experiment"):
        main(["exp", "run", "accurcy", "--dry-run"])


def test_cli_exp_run_and_gated_diff(tmp_path, capsys):
    p = write_cfg(tmp_path, {"experiment": "area", "parameters": SMALL})
    baseline = tmp_path / "base.json"
    rc, out = run_cli(
        capsys, "exp", "run", str(p),
        "--cache-dir", str(tmp_path / "cache"),
        "--archive-root", str(tmp_path / "archives"),
        "--baseline-out", str(baseline),
    )
    assert rc == 0
    archives = list((tmp_path / "archives").iterdir())
    assert len(archives) == 1

    rc, out = run_cli(capsys, "exp", "diff", str(baseline),
                      str(archives[0]), "--gate")
    assert rc == 0
    assert "gate: PASS" in out

    # perturb a baseline metric -> gated diff exits nonzero
    payload = json.loads(baseline.read_text())
    metric = next(iter(payload["metrics"]))
    payload["metrics"][metric] *= 2.0
    baseline.write_text(json.dumps(payload))
    rc, out = run_cli(capsys, "exp", "diff", str(baseline),
                      str(archives[0]), "--gate")
    assert rc == 1
    assert "gate: FAIL" in out


def test_cli_exp_run_set_override_rejects_typo(tmp_path):
    p = write_cfg(tmp_path, {"experiment": "area", "parameters": SMALL})
    with pytest.raises(SchemaError, match="unknown parameter"):
        main(["exp", "run", str(p), "--dry-run", "--set", "coers=8"])
