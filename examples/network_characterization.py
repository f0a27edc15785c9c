#!/usr/bin/env python3
"""Synthetic network characterisation (the Fig.-3 style study, interactive).

Sweeps injection rate for a chosen pattern over the electrical mesh, the
optical crossbar and the circuit-switched optical mesh, printing the
load-latency series side by side, plus the physical-layer summary (loss
budget, laser power, ring census) for both optical designs.

Run:  python examples/network_characterization.py [pattern]
      (pattern: uniform | transpose | hotspot | tornado | neighbor | ...)
"""

import sys
from dataclasses import replace

from repro import default_16core_config
from repro.config import ONOC_CIRCUIT_MESH
from repro.exp import resolve_config, run_experiment
from repro.harness import SweepRunner, format_table
from repro.noc import ElectricalNetwork
from repro.onoc import (
    LossBudget,
    crossbar_ring_census,
    mesh_ring_census,
)
from repro.traffic import PATTERNS

RATES = (0.02, 0.05, 0.1, 0.15, 0.25, 0.35, 0.5)


def main(argv: list[str]) -> None:
    pattern = argv[0] if argv else "uniform"
    if pattern not in PATTERNS:
        raise SystemExit(f"unknown pattern {pattern!r}; one of {sorted(PATTERNS)}")
    exp = default_16core_config()
    mesh_onoc = replace(exp.onoc, topology=ONOC_CIRCUIT_MESH)

    # The catalogue's Fig. 3 experiment: each series stops just past its
    # first saturated rate.
    sweep = resolve_config("load_latency", {
        "patterns": [pattern],
        "networks": ["electrical", exp.onoc.topology, ONOC_CIRCUIT_MESH],
        "labels": ["electrical mesh", "optical crossbar",
                   "optical circuit mesh"],
        "rates": RATES, "warmup": 300, "measure": 1500, "seed": exp.seed,
    })
    print("sweeping the electrical mesh, the optical crossbar and the "
          "optical circuit mesh ...", flush=True)
    rows = run_experiment(sweep, SweepRunner(workers=1)).rows
    print()
    print(format_table(rows, title=f"Load-latency under '{pattern}' traffic"))

    # Where does the electrical mesh hurt?  Link-level heat map of one
    # full-system run (this is the analysis that motivates optical layers).
    from repro.engine import Simulator
    from repro.noc.metrics import analyze_links
    from repro.system import FullSystem, build_workload

    sim = Simulator(seed=exp.seed)
    net = ElectricalNetwork(sim, exp.noc)
    system = FullSystem(sim, exp.system, net,
                        build_workload("fft", exp.system.num_cores, exp.seed))
    res = system.run()
    link_rep = analyze_links(net, res.exec_time_cycles)
    print()
    print(format_table(
        [{"link": ld.label(), "flits": ld.flits,
          "utilization": round(ld.utilization, 4)}
         for ld in link_rep.hottest(5)],
        title="Hottest electrical links under fft "
              f"(imbalance {link_rep.imbalance:.1f}x, "
              f"bisection {link_rep.bisection_flits} flits)"))

    # Physical layer summary.
    budget_x = LossBudget(exp.onoc)
    budget_m = LossBudget(mesh_onoc)
    census_x = crossbar_ring_census(exp.onoc.num_nodes, exp.onoc.num_wavelengths)
    census_m = mesh_ring_census(mesh_onoc.num_nodes, mesh_onoc.num_wavelengths)
    phys = [
        {
            "design": "crossbar",
            "worst_loss_dB": round(budget_x.crossbar_worst_loss_db(), 2),
            "laser_mW": round(budget_x.laser_wallplug_mw(
                budget_x.crossbar_worst_loss_db(), exp.onoc.num_wavelengths,
                exp.onoc.num_nodes), 1),
            "rings": census_x.total,
        },
        {
            "design": "circuit mesh",
            "worst_loss_dB": round(budget_m.mesh_worst_loss_db(), 2),
            "laser_mW": round(budget_m.laser_wallplug_mw(
                budget_m.mesh_worst_loss_db(), mesh_onoc.num_wavelengths), 1),
            "rings": census_m.total,
        },
    ]
    print()
    print(format_table(phys, title="Photonic physical layer"))


if __name__ == "__main__":
    main(sys.argv[1:])
