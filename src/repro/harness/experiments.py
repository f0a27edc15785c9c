"""One point function per reconstructed table/figure (ids match DESIGN.md).

Each returns the table row(s) it measures, already rounded, for
:mod:`repro.exp.catalog` to tabulate.  Each is module-level and takes config
dataclasses or primitives, so a call ships to SweepRunner workers and is
content-hashed into the result cache.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from repro.config import (
    ENGINE_EVENT,
    ExperimentConfig,
    TRACE_NAIVE,
    TRACE_SELF_CORRECTING,
    TraceConfig,
)
from repro.core import IterativeRefiner, compare_to_reference, replay_trace
from repro.core import TraceCapture, coalesce_leaves, filter_leaf_control
from repro.engine import Simulator
from repro.harness.builders import (
    MAX_EXEC_CYCLES,
    experiment_from_params,
    make_electrical,
    make_optical,
    optical_factory,
    run_execution_driven,
)
from repro.onoc import HybridConfig, HybridNetwork
from repro.power import electrical_energy_report, optical_energy_report
from repro.system import FullSystem, build_workload
from repro.traffic import SyntheticTrafficGenerator


def _capture_and_reference(
    exp: ExperimentConfig, workload: str, scale: float,
    reference: Optional[str] = "trace",
):
    """The preamble the trace experiments share.

    Captures ``workload`` on the electrical baseline and runs the
    execution-driven ground truth on ``exp``'s ONOC: ``reference="trace"``
    captures its trace too, ``"result"`` runs it plain (its wall clock is
    then that of an ordinary execution-driven run), ``None`` skips it.
    Returns ``(trace, cap_res, ref_res, ref_trace, factory)``, ``factory``
    building a fresh ONOC per replay pass.
    """
    cap_res, trace, _ = run_execution_driven(exp, workload, "electrical",
                                             scale=scale)
    assert trace is not None
    ref_res = ref_trace = None
    if reference is not None:
        ref_res, ref_trace, _ = run_execution_driven(
            exp, workload, "optical", capture=reference == "trace",
            scale=scale)
    return (trace, cap_res, ref_res, ref_trace,
            optical_factory(exp.onoc, exp.seed))


def _replay_both(trace, factory, engine: str = ENGINE_EVENT):
    """The naive and the self-correcting replay of ``trace``, in that order."""
    return [replay_trace(trace, factory, TraceConfig(mode=mode, engine=engine))
            for mode in (TRACE_NAIVE, TRACE_SELF_CORRECTING)]


def _both_networks(exp: ExperimentConfig, workload: str, scale: float):
    """``(result, network)`` of a plain execution-driven run on the
    electrical baseline, then on the ONOC."""
    return [run_execution_driven(exp, workload, target, capture=False,
                                 scale=scale)[::2]
            for target in ("electrical", "optical")]


# ---------------------------------------------------------------- Fig. 3
def load_latency_point(
    network: str,
    exp: ExperimentConfig,
    pattern: str,
    rate: float,
    message_bytes: int = 64,
    warmup: int = 500,
    measure: int = 3000,
) -> dict:
    """One (network, pattern, rate) load-latency simulation.

    ``network`` is ``"electrical"`` or an optical topology name
    (``crossbar``, ``circuit_mesh``, ``swmr_crossbar``, ``awgr``).
    """
    if network == "electrical":
        sim, net = make_electrical(exp.noc, exp.seed)
    else:
        onoc = (exp.onoc if network == exp.onoc.topology
                else replace(exp.onoc, topology=network))
        sim, net = make_optical(onoc, exp.seed)
    gen = SyntheticTrafficGenerator(sim, net, pattern, rate,
                                   message_bytes=message_bytes)
    res = gen.run(warmup=warmup, measure=measure)
    return {
        "pattern": pattern,
        "network": network,
        "rate": res.injection_rate,
        "avg_latency": round(res.avg_latency, 1),
        "p99": res.p99_latency,
        "throughput": round(res.throughput_flits_cycle, 3),
        "saturated": res.saturated,
    }


# ------------------------------------------------------------ Fig. 4/13
def _accuracy(exp: ExperimentConfig, workload: str, scale: float = 1.0,
              engine: str = ENGINE_EVENT):
    """Capture on the electrical baseline, replay both modes on the ONOC,
    compare against the execution-driven ONOC reference: returns
    ``(trace, ref_res, [naive, sc], [naive_report, sc_report])``."""
    trace, _, ref_res, ref_trace, factory = _capture_and_reference(
        exp, workload, scale)
    runs = _replay_both(trace, factory, engine)
    return trace, ref_res, runs, [compare_to_reference(r, ref_trace)
                                  for r in runs]


def accuracy_experiment(
    exp: ExperimentConfig, workload: str, scale: float = 1.0,
    engine: str = ENGINE_EVENT,
) -> dict:
    """Accuracy of both trace modes for one workload (one Fig. 4 row)."""
    trace, ref_res, (naive, sc), (naive_rep, sc_rep) = _accuracy(
        exp, workload, scale, engine)
    return {
        "workload": workload,
        "ref_exec": ref_res.exec_time_cycles,
        "naive_est": naive.exec_time_estimate,
        "naive_err_%": round(naive_rep.exec_time_error_pct, 2),
        "selfcorr_est": sc.exec_time_estimate,
        "selfcorr_err_%": round(sc_rep.exec_time_error_pct, 2),
        "messages": len(trace),
    }


def seed_accuracy_point(
    exp: ExperimentConfig, workload: str, seed: int
) -> dict:
    """One (workload, seed) accuracy run of the Fig. 13 robustness sweep.

    The errors stay unrounded: the table reports their mean over seeds.
    """
    _, _, _, (naive_rep, sc_rep) = _accuracy(exp.with_seed(seed), workload)
    return {
        "workload": workload,
        "seed": seed,
        "naive_err_%": naive_rep.exec_time_error_pct,
        "selfcorr_err_%": sc_rep.exec_time_error_pct,
    }


# ---------------------------------------------------------------- Fig. 9
def scalability_point(
    cores: int, seed: int, workload: str, with_accuracy: bool = True,
    engine: str = ENGINE_EVENT,
) -> dict:
    """One core-count point of the Fig. 9 scalability sweep."""
    exp = experiment_from_params(cores=cores, seed=seed)
    cs = case_study(exp, workload)
    entry: dict = {
        "cores": cores,
        "exec_electrical": cs["exec_electrical"],
        "exec_optical": cs["exec_optical"],
        "speedup_x": cs["speedup_x"],
    }
    if with_accuracy:
        acc = accuracy_experiment(exp, workload, engine=engine)
        entry["naive_err_%"] = acc["naive_err_%"]
        entry["selfcorr_err_%"] = acc["selfcorr_err_%"]
    return entry


# ---------------------------------------------------------------- Fig. 5
def latency_fidelity_rows(
    exp: ExperimentConfig, workload: str, scale: float = 1.0
) -> list[dict]:
    """Per-message latency fidelity of both replay modes for one workload:
    the two Fig. 5 table rows (naive, self_correcting)."""
    trace, _, _, ref_trace, factory = _capture_and_reference(
        exp, workload, scale)
    rows = []
    for mode in (TRACE_NAIVE, TRACE_SELF_CORRECTING):
        rep = compare_to_reference(
            replay_trace(trace, factory, TraceConfig(mode=mode)), ref_trace)
        rows.append({
            "workload": workload,
            "mode": mode,
            "mean_lat_err_%": round(rep.mean_latency_error_pct, 2),
            "per_msg_mape_%": round(rep.latency_mape_pct, 1),
            "matched": rep.matched_messages,
            "unmatched": rep.unmatched_messages,
        })
    return rows


# ---------------------------------------------------------------- Table 5
def area_rows(exp: ExperimentConfig) -> list[dict]:
    """Area of the electrical baseline and every optical architecture
    (Table 5), as flat table rows."""
    from repro.onoc.network import BACKENDS
    from repro.power import electrical_area, optical_area

    def flat(report, rings_count=""):
        detail = ", ".join(f"{k} {v:.3f}"
                           for k, v in report.components.items())
        return {"network": report.name, "rings": rings_count,
                "breakdown_mm2": detail,
                "total_mm2": round(report.total_mm2, 3)}

    rows = [flat(electrical_area(exp.noc))]
    for cls in BACKENDS:
        cfg = replace(exp.onoc, topology=cls.topology)
        census = cls.ring_census(cfg)
        rows.append(flat(optical_area(cfg, census), census.total))
    return rows


# ---------------------------------------------------------------- Fig. 6
def convergence_experiment(
    exp: ExperimentConfig,
    workload: str,
    scale: float = 1.0,
    max_iterations: int = 10,
    damping: float = 0.5,
) -> list[dict]:
    """Offline iterative self-correction: one row per pass, its estimate
    against the execution-driven reference."""
    trace, _, ref_res, _, factory = _capture_and_reference(
        exp, workload, scale, reference="result")
    refiner = IterativeRefiner(
        trace,
        factory,
        max_iterations=max_iterations,
        damping=damping,
    )
    ref = ref_res.exec_time_cycles
    return [
        {"workload": workload, "iteration": h.iteration,
         "estimate": h.exec_time_estimate, "ref_exec": ref,
         "err_%": round(abs(h.exec_time_estimate - ref) / ref * 100, 2)}
        for h in refiner.run().extra["history"]
    ]


# ---------------------------------------------------------------- Table 2
def simtime_experiment(
    exp: ExperimentConfig, workload: str, scale: float = 1.0,
    engine: str = ENGINE_EVENT,
) -> dict:
    """Wall-clock comparison on the *optical* target network: full-system
    execution-driven vs trace replays ("not substantially extend the total
    simulation time")."""
    trace, cap_res, ref_res, _, factory = _capture_and_reference(
        exp, workload, scale, reference="result")
    naive, sc = _replay_both(trace, factory, engine)
    exec_s, sc_s = ref_res.wall_clock_s, sc.wall_clock_s
    return {
        "workload": workload,
        "exec_driven_s": round(exec_s, 3),
        "capture_run_s": round(cap_res.wall_clock_s, 3),
        "naive_replay_s": round(naive.wall_clock_s, 3),
        "selfcorr_replay_s": round(sc_s, 3),
        "replay_speedup_x": round(
            exec_s / sc_s if sc_s > 0 else float("inf"), 2),
    }


# ---------------------------------------------------------------- Table 3
def case_study(
    exp: ExperimentConfig, workload: str, scale: float = 1.0
) -> dict:
    """The paper's headline comparison: the application on the ONOC vs the
    baseline electrical NoC, both execution-driven."""
    (res_e, _), (res_o, _) = _both_networks(exp, workload, scale)
    lat_e, lat_o = res_e.avg_network_latency, res_o.avg_network_latency
    return {
        "workload": workload,
        "exec_electrical": res_e.exec_time_cycles,
        "exec_optical": res_o.exec_time_cycles,
        "speedup_x": round(res_e.exec_time_cycles / res_o.exec_time_cycles,
                           3),
        "lat_elec": round(lat_e, 1),
        "lat_opt": round(lat_o, 1),
        "lat_reduction_%": round((1 - lat_o / lat_e) * 100 if lat_e else 0.0,
                                 1),
    }


# ---------------------------------------------------------------- Table 4
def power_experiment(
    exp: ExperimentConfig, workload: str, scale: float = 1.0
) -> list[dict]:
    """Energy of the case-study run on each network (Table 4): one row
    per network, its static share of the energy included."""
    (res_e, net_e), (res_o, net_o) = _both_networks(exp, workload, scale)
    rows = []
    for rep in (electrical_energy_report(net_e, res_e.exec_time_cycles),
                optical_energy_report(net_o, res_o.exec_time_cycles)):
        static = rep.static_energy_pj
        rows.append({"workload": workload, **rep.as_row(),
                     "static_pct": round(
                         100 * static / (static + rep.total_dynamic_pj), 1)})
    return rows


# ---------------------------------------------------------------- Fig. 7
def ablation_dep_fraction(
    exp: ExperimentConfig,
    workload: str,
    fractions: Sequence[float],
    scale: float = 1.0,
    gap_policy: Optional[str] = None,
) -> list[dict]:
    """Accuracy vs fraction of dependency edges kept (annotation-completeness
    sensitivity), one row per fraction.  ``gap_policy`` selects the
    degraded-gap policy applied to the ablated records (default: the
    TraceConfig default, ``neighbor_gap``).
    """
    trace, _, _, ref_trace, factory = _capture_and_reference(
        exp, workload, scale)
    rows = []
    for frac in fractions:
        cfg = TraceConfig(mode=TRACE_SELF_CORRECTING, keep_dep_fraction=frac)
        if gap_policy is not None:
            cfg = replace(cfg, degraded_gap_policy=gap_policy)
        rep = compare_to_reference(replay_trace(trace, factory, cfg),
                                   ref_trace)
        rows.append({"kept_deps": frac,
                     "gap_policy": cfg.degraded_gap_policy,
                     "exec_err_%": round(rep.exec_time_error_pct, 2)})
    return rows


# ------------------------------------------------------------- resilience
def resilience_point(
    exp: ExperimentConfig,
    workload: str,
    degrade: str,
    intensity: float,
    mitigation: str,
    scale: float = 1.0,
    engine: str = ENGINE_EVENT,
    fault_events: tuple = (),
) -> dict:
    """One degraded replay of the resilience subsystem: capture on the
    electrical baseline, replay self-correcting on the ONOC while a seeded
    fault timeseries degrades the fabric mid-replay, and account the
    mitigation policy's penalty against the pristine replay.

    ``fault_events`` overrides the generated timeseries with an explicit
    ``(time, target, severity)`` tuple list (e.g. a checked-in reference
    file); otherwise ``degrade`` names '+'-joined generator families
    seeded by ``exp.seed`` over the trace's injection span.
    """
    trace, _, _, _, factory = _capture_and_reference(
        exp, workload, scale, reference=None)
    if not fault_events and degrade:
        from repro.resilience import timeseries_for_trace

        fault_events = timeseries_for_trace(
            degrade, trace, exp.seed, exp.onoc.num_nodes,
            intensity).as_tuples()
    stock = replay_trace(
        trace, factory,
        TraceConfig(mode=TRACE_SELF_CORRECTING, engine=engine))
    degraded = replay_trace(
        trace, factory,
        TraceConfig(mode=TRACE_SELF_CORRECTING, engine=engine,
                    fault_events=tuple(fault_events),
                    mitigation=mitigation))
    res = degraded.extra.get("resilience", {})
    pen = res.get("penalty", {})
    slowdown = (degraded.exec_time_estimate - stock.exec_time_estimate) \
        / max(1, stock.exec_time_estimate) * 100
    return {
        "workload": workload,
        "mitigation": mitigation,
        "degrade": degrade,
        "intensity": intensity,
        "events": res.get("events", len(fault_events)),
        "exec_stock": stock.exec_time_estimate,
        "exec_degraded": degraded.exec_time_estimate,
        "slowdown_pct": round(slowdown, 2),
        "penalty": pen,
        "curve": res.get("curve", []),
    }


# ---------------------------------------------------------------- Fig. 8
def ablation_network_mismatch(
    exp: ExperimentConfig,
    workload: str,
    wavelength_counts: Sequence[int],
    scale: float = 1.0,
) -> list[dict]:
    """Accuracy vs capture/target speed mismatch.

    The target ONOC's bandwidth is swept via its wavelength count; for each
    point the electrical-captured trace is replayed naive and self-correcting
    against a fresh execution-driven reference on that ONOC.  One row per
    wavelength count.
    """
    trace, *_ = _capture_and_reference(exp, workload, scale, reference=None)
    rows = []
    for wl_count in wavelength_counts:
        onoc = replace(exp.onoc, num_wavelengths=wl_count)
        _, ref_trace, _ = run_execution_driven(
            replace(exp, onoc=onoc), workload, "optical", scale=scale)
        naive, sc = (compare_to_reference(r, ref_trace) for r in
                     _replay_both(trace, optical_factory(onoc, exp.seed)))
        rows.append({"wavelengths": wl_count,
                     "naive_err_%": round(naive.exec_time_error_pct, 2),
                     "selfcorr_err_%": round(sc.exec_time_error_pct, 2)})
    return rows


# --------------------------------------------------------------- Fig. 10
def hybrid_point(exp: ExperimentConfig, workload: str, threshold: int,
                 scale: float = 1.0) -> dict:
    """One Fig. 10 row: ``workload`` executed on the path-adaptive hybrid (a
    message whose mesh route is ``threshold`` hops or more rides the ONOC),
    and the electrical capture replayed self-correcting onto that hybrid."""
    cfg = HybridConfig(noc=exp.noc, onoc=exp.onoc, optical_threshold=threshold)

    def factory():
        sim = Simulator(seed=exp.seed)
        return sim, HybridNetwork(sim, cfg)

    (sim, net), cap = factory(), TraceCapture()
    programs = build_workload(workload, exp.system.num_cores, exp.seed, scale)
    t = FullSystem(sim, exp.system, net, programs, capture=cap).run(
        max_cycles=MAX_EXEC_CYCLES).exec_time_cycles
    _, trace, _ = run_execution_driven(exp, workload, scale=scale)
    rep = compare_to_reference(replay_trace(trace, factory), cap.finalize())
    energy = (electrical_energy_report(net.electrical, t).total_energy_uj
              + optical_energy_report(net.optical, t).total_energy_uj)
    return {"threshold": threshold, "exec_time": t,
            "optical_frac_%": round(100 * net.optical_fraction, 1),
            "avg_latency": round(net.stats.latency.mean, 1),
            "energy_uj": round(energy, 3),
            "selfcorr_err_%": round(rep.exec_time_error_pct, 2)}


# --------------------------------------------------------------- Fig. 11
def compaction_rows(exp: ExperimentConfig, workload: str,
                    windows: Sequence[int], scale: float = 1.0) -> list[dict]:
    """Trace compaction vs replay accuracy, one Fig. 11 row per variant:
    the capture as is, its leaf control messages dropped, and its leaf
    bursts coalesced per window, each replayed self-correcting against the
    execution-driven ONOC reference."""
    trace, _, _, ref_trace, factory = _capture_and_reference(exp, workload, scale)
    variants = [("uncompacted", trace, None),
                ("filter_leaf_control", *filter_leaf_control(trace)),
                *((f"coalesce(w={w})", *coalesce_leaves(trace, window=w))
                  for w in windows)]
    rows = []
    for name, variant, stats in variants:
        rep = compare_to_reference(replay_trace(variant, factory), ref_trace)
        rows.append({"variant": name, "records": len(variant),
                     "record_ratio": round(stats.record_ratio, 4) if stats else 1.0,
                     "byte_ratio": round(stats.byte_ratio, 4) if stats else 1.0,
                     "exec_err_%": round(rep.exec_time_error_pct, 2)})
    return rows
