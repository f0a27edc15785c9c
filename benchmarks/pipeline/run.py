#!/usr/bin/env python3
"""The repo's benchmark spine: capture -> encode -> load -> replay -> serve,
timed end to end and per layer.  See README.md in this directory.

One measured run (what ``BENCHMARK.json``'s ``command`` is called with)::

    python3 benchmarks/pipeline/run.py --workload captured_event_16 \\
        --seed 11 --seconds 12 --trace 0

prints every metric by name with its unit, then one JSON line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.

The suite (no ``--trace``) runs such a process per workload and prints
all of it as one table::

    python3 benchmarks/pipeline/run.py --seed 11 [--workload NAME]
        [--traced] [--runs K] [--out FILE] [--append-history]
        [--update-expected] [--smoke]

    python3 benchmarks/pipeline/run.py --compare A.json B.json

Exit status is non-zero when any simulated statistic is wrong, any
operation failed, or ``--compare`` finds a regression.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"
HISTORY = HERE / "history.jsonl"

# Serve workers are started by multiprocessing's forkserver, which imports
# this file again; the path must be in place before anything else runs.
sys.path.insert(0, str(SRC))

#: Set-up is sampled in fresh child processes: three times when it is
#: cheap, once when a single sample already takes this long.
SETUP_SAMPLES = 3
SETUP_REPEAT_BELOW_S = 3.0


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# --------------------------------------------------------------------------
# One measured run
# --------------------------------------------------------------------------

def self_command(args, workload: str, *extra: str) -> list[str]:
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", workload, "--seed", str(args.seed), *extra]
    return cmd + ["--smoke"] if args.smoke else cmd


def sample_setup(args, workdir: Path, rec) -> None:
    """Time fresh processes that import the program, build the workload's
    configuration and generate the inputs made once."""
    cmd = self_command(args, args.workload, "--child", "setup",
                       "--workdir", str(workdir))
    for i in range(SETUP_SAMPLES):
        with rec.span("setup", rid=f"setup-{i}") as s:
            subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        if s.seconds > SETUP_REPEAT_BELOW_S:
            break


def check_pins(ledger, profile: str, args) -> None:
    """Compare every simulated statistic of the run with ``expected.json``.

    Pins exist for one seed; on any other seed only the seed-free
    invariants (already counted in the ledger) apply.
    """
    expected = json.loads(EXPECTED.read_text())
    if args.seed != expected["seed"]:
        if args.update_expected:
            raise SystemExit(f"pins are kept for seed {expected['seed']} only")
        return
    pins = expected["pins"].setdefault(profile, {}).setdefault(
        args.workload, {})
    if args.update_expected:
        pins.update(ledger.stats)
        EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True)
                            + "\n")
    for name, value in ledger.stats.items():
        if name not in pins:
            ledger.op(f"{name} has no pin in expected.json "
                      "(run with --update-expected)", False)
        else:
            ledger.op(f"{name} is {value!r}, pinned {pins[name]!r}",
                      pins[name] == value)


def run_single(args, spec: dict) -> int:
    from spans import NOMINAL_KERNEL_S, Recorder
    from workloads import PROFILES, WORKLOADS, peak_rss_mib

    profile = "smoke" if args.smoke else "full"
    traced = args.trace == 1
    rec = Recorder(keep=traced)
    rec.host.start()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT,
                                     prefix=f"{args.workload}-") as tmp:
        sample_setup(args, Path(tmp), rec)
        wl = WORKLOADS[args.workload](PROFILES[profile], args.seed,
                                      Path(tmp), rec)
        try:
            wl.setup(generate=False)
            wl.measure(args.seconds)
            rss = peak_rss_mib()
            if traced:
                wl.extras()
        finally:
            wl.teardown()
            rec.host.stop()
    ledger = wl.ledger
    check_pins(ledger, profile, args)

    if traced:
        declared = spec["per_layer"]
        values = {**wl.layer_metrics(),
                  "bench.traced_pipeline_s": wl.pipeline_s()}
        unknown = set(values) - {m["name"] for m in declared}
        if unknown:
            raise SystemExit(f"not in BENCHMARK.json per_layer: {unknown}")
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(rec.chrome_trace()))
    else:
        declared = spec["end_to_end"]
        values = {"setup_s": rec.typical("setup"),
                  "pipeline_s": wl.pipeline_s(),
                  "work_per_s": wl.work_per_s(),
                  "peak_rss_mib": rss}
    # A layer the workload leaves idle did no work and took no time.
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in declared}
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}

    for failure in ledger.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    for name, m in metrics.items():
        if not traced or name in values:
            print(f"{name:48s} {m['value']:>14.6g} {m['unit']}")
    if args.detail:
        Path(args.detail).write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "profile": profile,
            "traced": traced, "seconds": args.seconds, "result": result,
            "layers_measured": sorted(values) if traced else [],
            "samples": {"setup_s": len(rec.durations["setup"]),
                        "passes": wl.passes},
            "host_slowdown": statistics.median(rec.host.kernel_s)
            / NOMINAL_KERNEL_S,
            "durations": {name: sorted(d) for name, d in
                          rec.durations.items() if len(d) <= 64},
            "stats": ledger.stats, "failures": ledger.failures,
            "spans": rec.table(), "counts": rec.counts}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_child(args) -> int:
    """``--child setup``: one set-up sample.  ``--child in_memory``: the
    contrast run of the streaming workload, in a process of its own."""
    from spans import Recorder
    from workloads import PROFILES, WORKLOADS

    wl = WORKLOADS[args.workload](
        PROFILES["smoke" if args.smoke else "full"], args.seed,
        Path(args.workdir), Recorder(keep=False))
    if args.child == "in_memory":
        wl.setup(generate=False)
        print(json.dumps(wl.in_memory_child()))
        return 0
    try:
        wl.setup(generate=True)
    finally:
        wl.teardown()
    return 1 if wl.ledger.failed else 0


# --------------------------------------------------------------------------
# The suite: one process per (workload, run), one table
# --------------------------------------------------------------------------

def provenance() -> dict:
    import numpy
    from repro.exp.archive import provenance as archive_provenance

    return {**archive_provenance(ROOT), "numpy": numpy.__version__,
            "nproc": os.cpu_count()}


def measured_run(args, name: str, trace: int, tmp: Path) -> dict:
    detail = tmp / "detail.json"
    detail.unlink(missing_ok=True)
    cmd = self_command(args, name, "--seconds", str(args.seconds),
                       "--trace", str(trace), "--detail", str(detail))
    if args.update_expected:
        cmd.append("--update-expected")
    subprocess.run(cmd, stdout=subprocess.DEVNULL)
    if not detail.exists():
        raise SystemExit(f"{name}: the measured run produced no result")
    return json.loads(detail.read_text())


def metric_values(runs: list[dict], name: str) -> list[float]:
    return [r["result"]["metrics"][name]["value"] for r in runs]


def print_suite(report: dict, spec: dict) -> None:
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    for name, entry in report["workloads"].items():
        runs, traced = entry["untraced"], entry["traced"]
        print(f"\n== {name}: {why[name]}")
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        print(f"   {len(runs)} run(s), {attempted} operations, "
              f"{failed} failed (failed_ratio {failed / attempted:g})")
        for m in spec["end_to_end"]:
            values = metric_values(runs, m["name"])
            print(f"   {m['name']:16s} {statistics.median(values):>12.5g} "
                  f"{m['unit']:6s} spread {spread(values):6.2%}  "
                  f"bound {m['bound']:.2f}")
        print("   samples per run: "
              + ", ".join(f"{r['samples']['passes']} passes / "
                          f"{r['samples']['setup_s']} set-ups" for r in runs))
        if traced is None:
            continue
        print(f"   -- per layer (traced run, {traced['result']['failed']} "
              f"of {traced['result']['attempted']} operations failed)")
        for m in spec["per_layer"]:
            if m["name"] in traced["layers_measured"]:
                value = traced["result"]["metrics"][m["name"]]["value"]
                print(f"   {m['name']:48s} {value:>14.6g} {m['unit']}")
        print(f"   {'tracing_overhead_pct':48s} "
              f"{entry['tracing_overhead_pct']:>14.3f} %")
        print(f"   -- spans: {'name':44s} calls    total_s     self_s")
        for span, row in traced["spans"].items():
            print(f"      {span:51s} {row['calls']:5d} "
                  f"{row['total_s']:10.4f} {row['self_s']:10.4f}")


def run_suite(args, spec: dict) -> int:
    names = ([args.workload] if args.workload
             else [w["name"] for w in spec["workloads"]])
    report = {
        "schema": "pipeline-bench-v1", "provenance": provenance(),
        "seed": args.seed, "profile": "smoke" if args.smoke else "full",
        "seconds": args.seconds, "runs": args.runs, "workloads": {},
    }
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="suite-") as tmp:
        for name in names:
            runs = [measured_run(args, name, 0, Path(tmp))
                    for _ in range(args.runs)]
            entry = {"untraced": runs, "traced": None}
            if args.traced:
                entry["traced"] = t = measured_run(args, name, 1, Path(tmp))
                base = statistics.median(metric_values(runs, "pipeline_s"))
                with_spans = t["result"]["metrics"][
                    "bench.traced_pipeline_s"]["value"]
                entry["tracing_overhead_pct"] = 100 * (with_spans / base - 1)
            report["workloads"][name] = entry
    print_suite(report, spec)

    out = Path(args.out) if args.out else OUT / "pipeline.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nwrote {out}")
    if args.append_history:
        line = {
            "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            **{k: report[k] for k in ("provenance", "seed", "profile",
                                      "seconds", "runs")},
            "metrics": {
                name: {m["name"]: statistics.median(
                    metric_values(entry["untraced"], m["name"]))
                    for m in spec["end_to_end"]}
                for name, entry in report["workloads"].items()},
        }
        with open(HISTORY, "a") as f:
            f.write(json.dumps(line, sort_keys=True) + "\n")
    every = [r for e in report["workloads"].values()
             for r in e["untraced"] + ([e["traced"]] if e["traced"] else [])]
    return 0 if all(r["result"]["correct"] for r in every) else 1


# --------------------------------------------------------------------------
# --compare A.json B.json
# --------------------------------------------------------------------------

def compare(path_a: str, path_b: str, spec: dict) -> int:
    """One row per (metric, workload): both medians, the ratio with its
    base, and ``ok`` / ``regressed`` / ``unresolved``.  A pair is
    unresolved when the run-to-run spread on either side is wider than
    the metric's bound, unless every run of B reads better than every
    run of A.  Exit status: 0 ok, 1 regressed, 2 unresolved only."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    regressed = unresolved = False
    print(f"A = {path_a} ({a['provenance']['git'].get('rev', '?')[:12]})\n"
          f"B = {path_b} ({b['provenance']['git'].get('rev', '?')[:12]})")
    print(f"{'workload':24s} {'metric':14s} {'A':>12s} {'B':>12s} "
          f"{'B/A':>7s} {'spread':>7s} {'bound':>6s}  status")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        runs_a = a["workloads"][name]["untraced"]
        runs_b = b["workloads"][name]["untraced"]
        for m in spec["end_to_end"]:
            va, vb = (metric_values(r, m["name"]) for r in (runs_a, runs_b))
            ma, mb = statistics.median(va), statistics.median(vb)
            lower = m["better"] == "lower"
            worse_by = (mb - ma) / ma if lower else (ma - mb) / ma
            all_better = (max(vb) < min(va)) if lower else (min(vb) > max(va))
            wide = max(spread(va), spread(vb))
            # setup_s has one to three samples a run: like the driver,
            # judge it on its medians alone.
            if (wide > m["bound"] and not all_better
                    and m["name"] != "setup_s"):
                status, unresolved = "unresolved", True
            elif worse_by > m["bound"]:
                status, regressed = "regressed", True
            else:
                status = "ok"
            print(f"{name:24s} {m['name']:14s} {ma:12.5g} {mb:12.5g} "
                  f"{mb / ma:7.3f} {wide:7.2%} {m['bound']:6.2f}  {status}"
                  f"   (base A = {ma:.5g} {m['unit']})")
        failed = sum(r["result"]["failed"] for r in runs_a + runs_b)
        same = all(r["stats"] == runs_a[0]["stats"] for r in runs_a + runs_b)
        status = "ok" if same and not failed else "regressed"
        regressed = regressed or status != "ok"
        print(f"{name:24s} simulated statistics "
              f"{'identical' if same else 'DIFFER'}, {failed} failed "
              f"operations  {status}")
    return 1 if regressed else 2 if unresolved else 0


# --------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="one measured run; omit to run the suite")
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs, one pass: a structural check")
    ap.add_argument("--detail", help="[measured run] also write the "
                                     "samples, statistics and span table")
    ap.add_argument("--update-expected", action="store_true",
                    help="rewrite the pins in expected.json from this run")
    ap.add_argument("--traced", action="store_true",
                    help="[suite] add one traced run per workload")
    ap.add_argument("--runs", type=int, default=1,
                    help="[suite] untraced runs per workload")
    ap.add_argument("--out", help="[suite] report file "
                                  "(default out/pipeline.json)")
    ap.add_argument("--append-history", action="store_true",
                    help="[suite] append the medians to history.jsonl")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    ap.add_argument("--child", choices=("setup", "in_memory"),
                    help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    # String-hash randomisation changes dict layouts from process to
    # process; it made the warm serve rate bimodal (+-8%) between runs.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    # One core for everything a run starts (children inherit it): the
    # host-speed sampler then measures the very core the work runs on --
    # on a shared host the cores slow down independently.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(spec["run_seconds"])
    if args.child:
        return run_child(args)
    if args.trace is not None:
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            ap.error("--trace needs --workload, one of BENCHMARK.json's")
        return run_single(args, spec)
    return run_suite(args, spec)


if __name__ == "__main__":
    sys.exit(main())
