"""One-shot markdown report: the whole evaluation for one configuration.

``generate_report`` runs the core experiment set (case study, trace-model
accuracy, simulation-time comparison, energy, area) for the given
configuration and renders a self-contained markdown document — the artifact
a user attaches to a design review.  Exposed as ``python -m repro report``.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.config import ExperimentConfig
from repro.harness.experiments import area_rows
from repro.harness.parallel import resolve_callable


def _md_table(rows: Sequence[dict]) -> str:
    if not rows:
        return "*(no data)*"
    cols = list(rows[0].keys())
    out = ["| " + " | ".join(cols) + " |",
           "|" + "|".join("---" for _ in cols) + "|"]
    for r in rows:
        out.append("| " + " | ".join(str(r.get(c, "")) for c in cols) + " |")
    return "\n".join(out)


def generate_report(
    exp: ExperimentConfig,
    workloads: Sequence[str],
    scale: float = 1.0,
) -> str:
    """Run the evaluation and return the markdown report."""
    if not workloads:
        raise ValueError("need at least one workload")
    t0 = time.perf_counter()
    lines: list[str] = []
    o = exp.onoc

    lines.append("# Self-Correction Trace Model — evaluation report\n")
    lines.append(f"Configuration: {exp.system.num_cores} cores, "
                 f"{exp.noc.width}x{exp.noc.height} {exp.noc.topology} "
                 f"baseline, {o.num_nodes}-node {o.topology} ONOC "
                 f"({o.num_wavelengths} λ x {o.bitrate_gbps} Gb/s), "
                 f"seed {exp.seed}, workload scale {scale}.\n")

    # Every section is a catalogue experiment: its point function run on
    # the caller's ``exp``, its rows the catalogue's own table.
    # (Imported here so repro.harness -> repro.exp stays a call-time edge.)
    from repro.exp.catalog import get_experiment

    def section(name: str, wls: Sequence[str]) -> str:
        base = get_experiment(name)
        (ref,) = base.points.values()
        point = resolve_callable(ref)
        results = [point(exp, wl, scale=scale) for wl in wls]
        rows, _ = base.tabulate({"workloads": list(wls)}, results)
        return _md_table(rows) + "\n"

    lines.append("## Case study: ONOC vs electrical baseline\n")
    lines.append(section("case_study", workloads))
    lines.append("## Trace-model accuracy (replay onto the ONOC)\n")
    lines.append(section("accuracy", workloads))
    lines.append("## Simulation wall-clock time\n")
    lines.append(section("simtime", workloads))
    lines.append("## Energy (first workload)\n")
    lines.append(section("power", workloads[:1]))
    lines.append("## Area (mm^2)\n")
    lines.append(_md_table(area_rows(exp)) + "\n")

    lines.append(f"*Report generated in {time.perf_counter() - t0:.1f}s "
                 "of simulation.*\n")
    lines.append(provenance_footer() + "\n")
    return "\n".join(lines)


def provenance_footer() -> str:
    """One-line provenance stamp shared by reports and experiment archives
    (``repro.exp`` appends it to every archived table)."""
    from repro.exp.archive import provenance

    p = provenance()
    rev = p["git"].get("rev", "unknown")
    if p["git"].get("dirty"):
        rev += "-dirty"
    return (f"*Provenance: git {rev} | {p['host']} | "
            f"python {p['python']} | {p['platform']}*")
