"""Plain-text table rendering, and the simulated system's Table 1."""

from __future__ import annotations

from typing import Any, Mapping, Sequence


def format_table(
    rows: Sequence[Mapping[str, Any]],
    columns: Sequence[str] | None = None,
    title: str | None = None,
    float_fmt: str = "{:.2f}",
) -> str:
    """Render dict rows as an aligned ASCII table (stable column order)."""
    if not rows:
        return f"{title}\n(empty)" if title else "(empty)"
    cols = list(columns) if columns else list(rows[0].keys())

    def fmt(v: Any) -> str:
        if isinstance(v, bool):
            return "yes" if v else "no"
        if isinstance(v, float):
            return float_fmt.format(v)
        return str(v)

    table = [[fmt(r.get(c, "")) for c in cols] for r in rows]
    widths = [
        max(len(c), *(len(row[i]) for row in table)) for i, c in enumerate(cols)
    ]
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(c.ljust(w) for c, w in zip(cols, widths))
    lines.append(header)
    lines.append("-+-".join("-" * w for w in widths))
    for row in table:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)



def config_rows(exp) -> list[dict]:
    """Table 1: the simulated system ``exp`` resolves to, one row per
    parameter (what ``repro info`` prints)."""
    from repro.onoc.network import backend_class

    s, l1, l2, n, o = exp.system, exp.system.l1, exp.system.l2_slice, exp.noc, exp.onoc
    return [{"parameter": name, "value": value} for name, value in {
        "cores": f"{s.num_cores} in-order, blocking",
        "L1 (private)": f"{l1.size_bytes // 1024} KiB, {l1.assoc}-way, "
                        f"{l1.line_bytes} B lines, {l1.hit_latency} cyc",
        "L2 (shared, S-NUCA)": f"{l2.size_bytes // 1024} KiB/slice, "
                               f"{l2.assoc}-way, {l2.hit_latency} cyc",
        "coherence": "MSI directory at home slice",
        "memory": f"{s.num_mem_ctrls} ctrls, {s.mem_latency} cyc",
        "baseline NoC": f"{n.width}x{n.height} {n.topology}, {n.routing} wormhole, "
                        f"{n.num_vcs} VC x {n.vc_depth} flits, "
                        f"{n.router_latency}-cyc router",
        "flit size": f"{n.flit_bytes} B",
        "ONOC": f"{o.num_nodes}-node {o.topology}, {o.num_wavelengths} λ x "
                f"{o.bitrate_gbps} Gb/s ({o.channel_gbps} Gb/s/channel)",
        "microrings": f"{backend_class(o.topology).ring_census(o).total} total",
        "clock": f"{n.clock_ghz} GHz network/core",
        "messages": f"ctrl {s.ctrl_msg_bytes} B / data {s.data_msg_bytes} B",
    }.items()]
