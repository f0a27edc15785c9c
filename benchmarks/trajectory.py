#!/usr/bin/env python3
"""The spine's trajectory: one line per measured tree, kept beside the spine.

Record: run the benchmark spine's suite, unchanged, on a tree and append
one JSON line to ``benchmarks/results/pipeline_history.jsonl``::

    python3 benchmarks/trajectory.py [--tree DIR] [--rev REV] [--label TEXT]

The suite is ``benchmarks/pipeline/run.py --seed 11 --traced --runs 3
--out <tmp>`` inside ``--tree`` (default: this checkout).  The line holds
the provenance (``rev``, ``dirty``, host, numpy, ``nproc``), the medians
of the four end-to-end metrics per workload over the three untraced runs,
and the per-layer metrics of the one traced run per workload (the
attribution that ``run.py --append-history`` does not keep).  A tree
without git metadata (``git archive <rev> | tar -x``, with today's
``benchmarks/pipeline/`` and ``BENCHMARK.json`` copied in) is stamped
with ``--rev``.

Read one metric across the file, in file order::

    python3 benchmarks/trajectory.py --series synth_generational_1k.pipeline_s

Nothing is written under ``benchmarks/pipeline/``; ``run.py --compare``
stays the pairwise judge.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HISTORY = ROOT / "benchmarks" / "results" / "pipeline_history.jsonl"
SUITE = ("--seed", "11", "--traced", "--runs", "3")


def history_line(report: dict, spec: dict, rev: str | None,
                 label: str | None) -> dict:
    """The one line a suite report becomes (see module docstring)."""
    prov = report["provenance"]
    git = prov.get("git") or {}
    end_to_end, per_layer = {}, {}
    attempted = failed = 0
    correct = True
    for name, entry in report["workloads"].items():
        runs = entry["untraced"] + [entry["traced"]]
        attempted += sum(r["result"]["attempted"] for r in runs)
        failed += sum(r["result"]["failed"] for r in runs)
        correct = correct and all(r["result"]["correct"] for r in runs)
        end_to_end[name] = {
            m["name"]: statistics.median(
                r["result"]["metrics"][m["name"]]["value"]
                for r in entry["untraced"])
            for m in spec["end_to_end"]}
        traced = entry["traced"]
        per_layer[name] = {
            m["name"]: traced["result"]["metrics"][m["name"]]["value"]
            for m in spec["per_layer"]
            if m["name"] in traced["layers_measured"]}
    return {
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "rev": rev or git.get("rev", "unknown"),
        "dirty": bool(git.get("dirty")) if rev is None else False,
        "label": label,
        "host": prov["host"], "numpy": prov["numpy"],
        "nproc": prov["nproc"], "python": prov["python"],
        "seed": report["seed"], "runs": report["runs"],
        "seconds": report["seconds"], "correct": correct,
        "attempted": attempted, "failed": failed,
        "end_to_end": end_to_end, "per_layer": per_layer,
    }


def record(tree: Path, history: Path, rev: str | None,
           label: str | None) -> int:
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    with tempfile.TemporaryDirectory(prefix="trajectory-") as tmp:
        out = Path(tmp) / "suite.json"
        proc = subprocess.run(
            [sys.executable, str(tree / "benchmarks" / "pipeline" / "run.py"),
             *SUITE, "--out", str(out)], cwd=tree)
        if not out.exists():
            print(f"{tree}: the suite wrote no report (rc {proc.returncode})",
                  file=sys.stderr)
            return 1
        line = history_line(json.loads(out.read_text()), spec, rev, label)
    history.parent.mkdir(parents=True, exist_ok=True)
    with open(history, "a") as f:
        f.write(json.dumps(line, sort_keys=True) + "\n")
    print(f"appended {line['rev'][:12]} ({label or '-'}) to {history}")
    return 0 if line["correct"] and not line["failed"] else 1


def series(history: Path, what: str) -> int:
    """Print ``rev  label  value`` for one ``<workload>.<metric>``."""
    workload, _, metric = what.partition(".")
    if not metric:
        raise SystemExit("--series takes <workload>.<metric>")
    for raw in history.read_text().splitlines():
        line = json.loads(raw)
        value = {**line["per_layer"].get(workload, {}),
                 **line["end_to_end"].get(workload, {})}.get(metric)
        if value is not None:
            print(f"{line['rev'][:12]}  {line['label'] or '-':24s} "
                  f"{value:.6g}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", type=Path, default=ROOT,
                    help="tree whose spine to run (default: this checkout)")
    ap.add_argument("--rev", help="revision to stamp a tree without git")
    ap.add_argument("--label", help="free text kept with the line")
    ap.add_argument("--history", type=Path, default=HISTORY)
    ap.add_argument("--series", metavar="WORKLOAD.METRIC",
                    help="print one metric across the history instead")
    args = ap.parse_args(argv)
    if args.series:
        return series(args.history, args.series)
    return record(args.tree.resolve(), args.history, args.rev, args.label)


if __name__ == "__main__":
    raise SystemExit(main())
