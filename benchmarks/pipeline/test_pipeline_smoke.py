"""Structural smoke test of the pipeline benchmark (about a minute).

Not collected by tier-1 (``testpaths = ["tests"]``); run it with::

    PYTHONPATH=src python -m pytest benchmarks/pipeline/test_pipeline_smoke.py

It runs ``run.py --smoke`` (one pass, 10^4-message synthetic traces,
three serve keys) once untraced and once traced per workload and checks
that what ``BENCHMARK.json`` promises is what comes out.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict:
    """``{(workload, trace): detail}`` of one smoke run each."""
    tmp = tmp_path_factory.mktemp("pipeline-smoke")
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            detail = tmp / f"{workload}-{trace}.json"
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--smoke",
                 "--seed", "11", "--workload", workload,
                 "--trace", str(trace), "--detail", str(detail)],
                capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            last_line = json.loads(proc.stdout.splitlines()[-1])
            out[workload, trace] = json.loads(detail.read_text())
            assert out[workload, trace]["result"] == last_line
    return out


def test_spec_names_are_well_formed():
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
             for x in SPEC[key]]
    assert all(NAME.match(n) for n in names), names
    assert len(set(names)) == len(names)
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, declared", [(0, SPEC["end_to_end"]),
                                             (1, SPEC["per_layer"])])
def test_every_declared_metric_is_emitted(runs, workload, trace, declared):
    result = runs[workload, trace]["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0    # failed_ratio == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_every_per_layer_metric_is_measured_by_some_workload(runs):
    """A layer a workload leaves idle reads 0 there, but no declared
    layer metric may be idle everywhere."""
    measured = set().union(*(runs[w, 1]["layers_measured"]
                             for w in WORKLOADS))
    assert measured == {m["name"] for m in SPEC["per_layer"]}
