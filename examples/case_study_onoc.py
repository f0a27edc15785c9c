#!/usr/bin/env python3
"""The paper's case study, extended to the full kernel suite.

Runs every application kernel execution-driven on both interconnects and
prints the Table-3-style comparison (speedup, latency reduction), plus the
Table-4-style energy comparison for the headline workload.

Run:  python examples/case_study_onoc.py [workload ...]
"""

import sys

from repro import default_16core_config
from repro.harness import case_study, format_table, power_experiment
from repro.system import WORKLOADS


def main(argv: list[str]) -> None:
    exp = default_16core_config().with_seed(7)
    names = argv or sorted(WORKLOADS)
    bad = [n for n in names if n not in WORKLOADS]
    if bad:
        raise SystemExit(f"unknown workloads {bad}; available {sorted(WORKLOADS)}")

    rows = []
    for wl in names:
        print(f"running {wl} on both networks ...", flush=True)
        rows.append(case_study(exp, wl))
    print()
    print(format_table(rows, title="Case study: ONOC vs electrical baseline"))

    headline = names[0]
    print(f"\nenergy for '{headline}' ...")
    print(format_table(power_experiment(exp, headline),
                       title="Energy over the run"))
    print("\nNote the ONOC's static power (laser + ring tuning) dominating "
          "at this utilisation\n— the energy-proportionality caveat recorded "
          "in EXPERIMENTS.md.")


if __name__ == "__main__":
    main(sys.argv[1:])
