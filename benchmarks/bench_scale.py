"""Production-scale synthetic replay: throughput + peak RSS vs trace size.

The synthetic generator (``repro.synth``) exists to take the simulator
beyond the captured corpus; this bench pins the claim that it actually
gets there.  For each trace size on the ladder (10^4 - 10^6 messages at
1024 nodes) it:

* **streams the trace into the binary container** with
  ``generate_to_file`` in a fresh subprocess, sampling its peak RSS via
  ``/proc/self/status`` VmHWM (reset at exec, so the child measures only
  itself) — generation never materializes the record list;
* **replays it out-of-core** (``stream_naive_summary``) in another fresh
  subprocess, sampling its peak RSS the same way;
* **replays it fully in memory** (load + naive generational) in another
  subprocess, as the contrast curve, and times the self-correcting replay
  on both engines (``speedup_x`` = event / generational wall clock).

On the full ladder each of the three child modes runs ``CHILDREN`` times
per rung: a wall clock is the median over them and a peak RSS the maximum,
so one slow start-up neither makes a rung look slower nor lets a gate read
a lower peak than any single child had.  The smoke shape runs one child.

The gates: the generator's and the streaming replay's peak RSS must each
grow *sublinearly* in trace size — the last/first RSS ratio stays below
the last/first file-size ratio — and the generational engine must not
be slower than the event engine (at least ``SPEEDUP_FLOOR``x on the full
ladder).  The checked-in
``benchmarks/results/BENCH_scale.json`` records the full ladder; CI re-runs
the two-point smoke shape per commit and the full ladder nightly.

Standalone::

    PYTHONPATH=src python benchmarks/bench_scale.py \
        --out benchmarks/results/BENCH_scale.json

    PYTHONPATH=src python benchmarks/bench_scale.py --smoke  # CI shape
"""

from __future__ import annotations

import json
import pathlib
import statistics
import subprocess
import sys
import tempfile
import timeit

from repro.config import OnocConfig, TraceConfig
from repro.core import load_trace, replay_trace
from repro.harness.builders import optical_factory

NODES = 1024
TOPOLOGY = "crossbar"
SEED = 20260808
#: Full in-memory replay (and the engine timing, which loads the trace too)
#: is skipped above this size by default: the point of the contrast curve
#: is made long before the record list stops fitting comfortably in RAM.
FULL_REPLAY_MAX = 200_000
#: What the standalone full ladder demands of ``speedup_x`` (measured 8-11x
#: at 10^4 and 10^5 messages); the smoke shape only demands "not slower".
SPEEDUP_FLOOR = 5.0

#: Fresh children per rung and mode on the full ladder (median wall clock,
#: maximum peak RSS); the smoke shape runs one.
CHILDREN = 3

SMOKE_SIZES = (10_000, 40_000)
LADDER_SIZES = (10_000, 100_000, 1_000_000)


# --------------------------------------------------------------------------
# Peak RSS + generation / replay wall clock, fresh subprocess per point
# --------------------------------------------------------------------------

_RSS_CHILD = r"""
import json, re, resource, sys, time
from repro.config import OnocConfig


def peak_rss_kib():
    # /proc VmHWM is reset at exec so it measures *this* process only;
    # ru_maxrss would report the parent's peak for every child.
    try:
        with open("/proc/self/status") as f:
            return int(re.search(r"VmHWM:\s+(\d+) kB", f.read()).group(1))
    except (OSError, AttributeError):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


mode, path = sys.argv[1], sys.argv[2]
onoc = OnocConfig(num_nodes=%(nodes)d)
# Each mode starts its clock after its imports: the run's time, not theirs.
if mode == "generate":
    from repro.synth import default_profile, generate_to_file
    profile = default_profile(%(nodes)d, int(sys.argv[3]), pattern="uniform")
    t0 = time.perf_counter()
    n = generate_to_file(profile, path, seed=%(seed)d)["messages"]
elif mode == "stream":
    from repro.core import stream_naive_summary
    t0 = time.perf_counter()
    n = stream_naive_summary(path, onoc)["messages"]
else:
    from repro.core import load_trace, replay_trace
    from repro.config import TraceConfig
    from repro.harness.builders import optical_factory
    t0 = time.perf_counter()
    trace = load_trace(path)
    res = replay_trace(trace, optical_factory(onoc, 1),
                       TraceConfig(mode="naive", engine="generational"))
    n = res.messages_replayed
wall = time.perf_counter() - t0
print(json.dumps({"messages": n, "rss_kib": peak_rss_kib(),
                  "wall_s": round(wall, 4)}))
"""


def _child(mode: str, path: pathlib.Path, *args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_CHILD % {"nodes": NODES, "seed": SEED},
         mode, str(path), *args],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(pathlib.Path(__file__).parent.parent / "src"),
             "PATH": "/usr/bin:/bin"})
    return json.loads(proc.stdout)


def _children(n: int, mode: str, path: pathlib.Path, *args: str) -> dict:
    """``n`` fresh runs of one mode: the median wall clock and the maximum
    peak RSS."""
    runs = [_child(mode, path, *args) for _ in range(n)]
    assert len({r["messages"] for r in runs}) == 1, runs
    return {"messages": runs[0]["messages"],
            "rss_kib": max(r["rss_kib"] for r in runs),
            "wall_s": statistics.median(r["wall_s"] for r in runs)}


def measure_speedup(path: pathlib.Path) -> float:
    """Event / generational wall clock (best of two each) of the
    self-correcting replay of one ladder trace."""
    trace = load_trace(path)
    onoc = OnocConfig(num_nodes=NODES)

    def best(engine: str) -> float:
        cfg = TraceConfig(mode="self_correcting", engine=engine)
        return min(timeit.repeat(
            lambda: replay_trace(trace, optical_factory(onoc, 1), cfg),
            number=1, repeat=2))

    return round(best("event") / best("generational"), 2)


def measure_point(n_messages: int, tmp: pathlib.Path,
                  full_replay_max: int, children: int) -> dict:
    path = tmp / f"synth{n_messages}.rtrc"
    gen = _children(children, "generate", path, str(n_messages))
    stream = _children(children, "stream", path)
    assert stream["messages"] == gen["messages"], (stream, gen)
    row = {
        "messages": gen["messages"],
        "file_bytes": path.stat().st_size,
        "gen_wall_s": round(gen["wall_s"], 3),
        "gen_msgs_per_s": round(gen["messages"] / gen["wall_s"]),
        "gen_rss_kib": gen["rss_kib"],
        "stream_rss_kib": stream["rss_kib"],
        "stream_wall_s": stream["wall_s"],
        "stream_msgs_per_s": round(stream["messages"] / stream["wall_s"]),
    }
    if n_messages <= full_replay_max:
        full = _children(children, "full", path)
        row["full_rss_kib"] = full["rss_kib"]
        row["full_wall_s"] = full["wall_s"]
        row["speedup_x"] = measure_speedup(path)
    path.unlink()
    return row


def run(sizes: list[int], full_replay_max: int = FULL_REPLAY_MAX,
        children: int = CHILDREN) -> dict:
    points = []
    with tempfile.TemporaryDirectory() as tmp:
        for n in sizes:
            points.append(measure_point(n, pathlib.Path(tmp),
                                        full_replay_max, children))
    first, last = points[0], points[-1]
    report = {
        "nodes": NODES,
        "topology": TOPOLOGY,
        "seed": SEED,
        "points": points,
        "trace_growth_x": round(
            last["file_bytes"] / first["file_bytes"], 3),
        "rss_growth_x": round(
            last["stream_rss_kib"] / first["stream_rss_kib"], 3),
        "gen_rss_growth_x": round(
            last["gen_rss_kib"] / first["gen_rss_kib"], 3),
    }
    report["sublinear"] = (
        max(report["rss_growth_x"], report["gen_rss_growth_x"])
        < report["trace_growth_x"])
    report["speedup_x"] = min(p["speedup_x"] for p in points
                              if "speedup_x" in p)
    return report


# ------------------------------------------------------------------ pytest

def test_scale_smoke(results_dir):
    """CI smoke gate: generation and streaming replay peak RSS grow
    sublinearly in trace size."""
    report = run(list(SMOKE_SIZES), children=1)
    (results_dir / "scale_smoke.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    assert [p["messages"] for p in report["points"]] == list(SMOKE_SIZES)
    assert all(p["stream_msgs_per_s"] > 0 for p in report["points"])
    # The 4x trace must not cost 4x the memory to generate or to
    # stream-replay.
    assert report["gen_rss_growth_x"] < report["trace_growth_x"], report
    assert report["rss_growth_x"] < report["trace_growth_x"], report
    assert report["sublinear"], report
    # The full in-memory contrast must be the hungrier path at the top of
    # the smoke ladder, or the streaming path isn't buying anything.
    top = report["points"][-1]
    assert top["full_rss_kib"] > top["stream_rss_kib"], top
    # Generational self-correcting replay is not slower than event-driven.
    assert report["speedup_x"] >= 1.0, report


# -------------------------------------------------------------- standalone

def main() -> int:
    from conftest import standalone_parser, write_json_report

    ap = standalone_parser(
        __doc__,
        sizes=",".join(str(s) for s in LADDER_SIZES),
        full_replay_max=FULL_REPLAY_MAX,
        smoke=(False, "two small sizes (the per-commit CI shape)"),
    )
    args = ap.parse_args()
    if args.smoke:
        args.sizes = ",".join(str(s) for s in SMOKE_SIZES)
    sizes = [int(s) for s in args.sizes.split(",")]
    report = run(sizes, full_replay_max=int(args.full_replay_max),
                 children=1 if args.smoke else CHILDREN)
    write_json_report(report, args.out)
    floor = 1.0 if args.smoke else SPEEDUP_FLOOR
    return 0 if report["sublinear"] and report["speedup_x"] >= floor else 1


if __name__ == "__main__":
    sys.exit(main())
