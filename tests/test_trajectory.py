"""The spine's trajectory file speaks BENCHMARK.json's names.

``benchmarks/trajectory.py`` appends one line per measured tree to
``benchmarks/results/pipeline_history.jsonl``; every line must name only
the workloads and metrics ``BENCHMARK.json`` declares, carry its
provenance, and hold every end-to-end metric for every workload.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
HISTORY = ROOT / "benchmarks" / "results" / "pipeline_history.jsonl"
LINES = [json.loads(raw) for raw in HISTORY.read_text().splitlines()]

WORKLOADS = {w["name"] for w in SPEC["workloads"]}
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
PROVENANCE = ("rev", "dirty", "host", "numpy", "nproc", "time")


def test_every_line_measures_a_distinct_tree():
    trees = {(line["rev"], line["dirty"]) for line in LINES}
    assert len(trees) == len(LINES) >= 2


@pytest.mark.parametrize("line", LINES, ids=[
    f"{i}-{line['rev'][:8]}" for i, line in enumerate(LINES)])
def test_line_names_only_declared_metrics(line):
    for field in PROVENANCE:
        assert line[field] not in (None, ""), field
    assert (line["seed"], line["runs"]) == (11, 3)
    assert set(line["end_to_end"]) == WORKLOADS
    for workload, metrics in line["end_to_end"].items():
        assert set(metrics) == END_TO_END, workload
        assert all(isinstance(v, (int, float)) for v in metrics.values())
    assert set(line["per_layer"]) == WORKLOADS
    for workload, metrics in line["per_layer"].items():
        assert metrics and set(metrics) <= PER_LAYER, workload


def test_series_reads_one_metric_across_the_file(capsys):
    spec = importlib.util.spec_from_file_location(
        "trajectory", ROOT / "benchmarks" / "trajectory.py")
    trajectory = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trajectory)
    assert trajectory.main(["--series", "serve_scenario_mix.setup_s"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [row.split()[0] for row in out] == [
        line["rev"][:12] for line in LINES]
