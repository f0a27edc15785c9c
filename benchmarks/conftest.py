"""Shared benchmark infrastructure.

``bench_catalogue.py`` regenerates every figure of DESIGN.md's experiment
index: it runs each experiment once (``benchmark.pedantic(..., rounds=1)``
— these are minutes-long simulations, not microbenchmarks), prints the
paper-style table, and persists it under ``benchmarks/results/`` so
EXPERIMENTS.md can reference the regenerated numbers.  The standalone
benches share the argparse and JSON-report helpers below.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.harness import SweepRunner

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def sweep_runner() -> SweepRunner:
    """Shared parallel sweep runner with the on-disk result cache.

    Worker count comes from ``REPRO_BENCH_JOBS`` (default 1: serial, which
    is usually right for these minutes-long single-machine runs; set it
    higher on a multi-core box, or 0 for one worker per CPU).  Results are
    cached under ``benchmarks/results/cache`` so a re-run after an
    unrelated edit replays from disk — ``python -m repro cache --clear``
    drops them.
    """
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
    return SweepRunner(workers=jobs if jobs != 0 else None,
                       cache_dir=RESULTS_DIR / "cache")


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def save_and_print(results_dir: pathlib.Path, name: str, text: str) -> None:
    """Persist a rendered table and echo it to the terminal."""
    (results_dir / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)


def standalone_parser(description: str, **flags):
    """Shared argparse boilerplate for the standalone kernel/serve benches.

    ``flags`` maps a flag name to its default, or to ``(default, help)``;
    booleans become ``store_true`` switches.  The common ``--out`` (report
    destination, default: print only) is always appended — pass
    ``out=(default, help)`` to override it.
    """
    import argparse

    ap = argparse.ArgumentParser(description=description)
    if "out" not in flags:
        flags["out"] = (None, "write the JSON report here "
                              "(default: print only)")
    for name, spec in flags.items():
        default, help_text = spec if isinstance(spec, tuple) else (spec, None)
        opt = "--" + name.replace("_", "-")
        if isinstance(default, bool):
            ap.add_argument(opt, action="store_true", help=help_text)
        elif default is None:
            ap.add_argument(opt, default=None, help=help_text)
        else:
            ap.add_argument(opt, type=type(default), default=default,
                            help=help_text)
    return ap


def write_json_report(report: dict, out=None, sort_keys: bool = True) -> str:
    """Print a JSON report and optionally persist it (shared by the
    standalone benches' ``--out`` handling)."""
    text = json.dumps(report, indent=2, sort_keys=sort_keys)
    print(text)
    if out:
        out = pathlib.Path(out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n")
        print(f"wrote {out}")
    return text
