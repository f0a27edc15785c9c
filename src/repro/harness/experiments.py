"""One driver per reconstructed table/figure (ids match DESIGN.md)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

from repro.config import (
    ENGINE_EVENT,
    ExperimentConfig,
    TRACE_NAIVE,
    TRACE_SELF_CORRECTING,
    TraceConfig,
)
from repro.core import (
    IterationInfo,
    IterativeRefiner,
    compare_to_reference,
    replay_trace,
)
from repro.harness.builders import (
    experiment_from_params,
    make_electrical,
    make_optical,
    optical_factory,
    run_execution_driven,
)
from repro.power import (
    EnergyReport,
    electrical_energy_report,
    optical_energy_report,
)
from repro.stats import ErrorReport
from repro.traffic import SyntheticTrafficGenerator, TrafficResult


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


# ---------------------------------------------------------------- Fig. 3
def load_latency_sweep(
    make_network: Callable,
    pattern: str,
    rates: Sequence[float],
    seed: int = 1,
    message_bytes: int = 64,
    warmup: int = 500,
    measure: int = 3000,
) -> list[TrafficResult]:
    """Latency vs offered load for one network/pattern (one Fig. 3 series).

    Stops sweeping past the first saturated point (latency is unbounded
    there, so higher rates add no information).
    """
    out: list[TrafficResult] = []
    for rate in rates:
        from repro.engine import Simulator

        sim = Simulator(seed=seed)
        net = make_network(sim)
        gen = SyntheticTrafficGenerator(sim, net, pattern, rate,
                                        message_bytes=message_bytes)
        res = gen.run(warmup=warmup, measure=measure)
        out.append(res)
        if res.saturated:
            break
    return out


# ---------------------------------------------------------------- Fig. 4/5
@dataclass
class AccuracyRow:
    """Accuracy of both trace modes for one workload (Fig. 4 + Fig. 5)."""

    workload: str
    ref_exec_time: int
    naive: ErrorReport
    self_correcting: ErrorReport
    naive_estimate: int
    self_correcting_estimate: int
    extra: dict = field(default_factory=dict)


def accuracy_experiment(
    exp: ExperimentConfig, workload: str, scale: float = 1.0,
    engine: str = ENGINE_EVENT,
) -> AccuracyRow:
    """Capture on the electrical baseline, replay both modes on the ONOC,
    compare against the execution-driven ONOC reference."""
    trace, _, ref_res, ref_trace, factory = _capture_and_reference(
        exp, workload, scale)
    naive = replay_trace(trace, factory,
                         TraceConfig(mode=TRACE_NAIVE, engine=engine))
    sc = replay_trace(trace, factory,
                      TraceConfig(mode=TRACE_SELF_CORRECTING, engine=engine))
    return AccuracyRow(
        workload=workload,
        ref_exec_time=ref_res.exec_time_cycles,
        naive=compare_to_reference(naive, ref_trace),
        self_correcting=compare_to_reference(sc, ref_trace),
        naive_estimate=naive.exec_time_estimate,
        self_correcting_estimate=sc.exec_time_estimate,
        extra={"trace_messages": len(trace)},
    )


# ------------------------------------------------- parallel sweep points
#
# Module-level, fully-picklable task functions: one simulation per call,
# every argument a config dataclass or primitive, so they can be shipped to
# SweepRunner workers and content-hashed into the result cache.

def load_latency_point(
    network: str,
    exp: ExperimentConfig,
    pattern: str,
    rate: float,
    message_bytes: int = 64,
    warmup: int = 500,
    measure: int = 3000,
) -> TrafficResult:
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
    return gen.run(warmup=warmup, measure=measure)


def scalability_point(
    cores: int, seed: int, workload: str, with_accuracy: bool = True,
    engine: str = ENGINE_EVENT,
) -> dict:
    """One core-count point of the Fig. 9 scalability sweep."""
    exp = experiment_from_params(cores=cores, seed=seed)
    cs = case_study(exp, workload)
    entry: dict = {
        "cores": cores,
        "exec_electrical": cs.exec_electrical,
        "exec_optical": cs.exec_optical,
        "speedup_x": round(cs.speedup, 3),
    }
    if with_accuracy:
        acc = accuracy_experiment(exp, workload, engine=engine)
        entry["naive_err_%"] = round(acc.naive.exec_time_error_pct, 2)
        entry["selfcorr_err_%"] = round(
            acc.self_correcting.exec_time_error_pct, 2)
    return entry


def seed_accuracy_point(
    exp: ExperimentConfig, workload: str, seed: int
) -> AccuracyRow:
    """One (workload, seed) accuracy run of the Fig. 13 robustness sweep."""
    return accuracy_experiment(exp.with_seed(seed), workload)


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
) -> tuple[list[IterationInfo], int]:
    """Offline iterative self-correction history + the reference exec time."""
    trace, _, ref_res, _, factory = _capture_and_reference(
        exp, workload, scale, reference="result")
    refiner = IterativeRefiner(
        trace,
        factory,
        max_iterations=max_iterations,
        damping=damping,
    )
    result = refiner.run()
    return result.extra["history"], ref_res.exec_time_cycles


# ---------------------------------------------------------------- Table 2
@dataclass
class SimTimeRow:
    """Wall-clock cost of each methodology for one workload (Table 2)."""

    workload: str
    exec_driven_s: float
    naive_replay_s: float
    self_correcting_s: float
    capture_overhead_s: float     # execution-driven run with capture enabled

    @property
    def replay_speedup(self) -> float:
        """Execution-driven time over self-correcting replay time."""
        return (
            self.exec_driven_s / self.self_correcting_s
            if self.self_correcting_s > 0 else float("inf")
        )


def simtime_experiment(
    exp: ExperimentConfig, workload: str, scale: float = 1.0,
    engine: str = ENGINE_EVENT,
) -> SimTimeRow:
    """Wall-clock comparison on the *optical* target network: full-system
    execution-driven vs trace replays ("not substantially extend the total
    simulation time")."""
    trace, cap_res, ref_res, _, factory = _capture_and_reference(
        exp, workload, scale, reference="result")
    naive = replay_trace(trace, factory,
                         TraceConfig(mode=TRACE_NAIVE, engine=engine))
    sc = replay_trace(trace, factory,
                      TraceConfig(mode=TRACE_SELF_CORRECTING, engine=engine))
    return SimTimeRow(
        workload=workload,
        exec_driven_s=ref_res.wall_clock_s,
        naive_replay_s=naive.wall_clock_s,
        self_correcting_s=sc.wall_clock_s,
        capture_overhead_s=cap_res.wall_clock_s,
    )


# ---------------------------------------------------------------- Table 3
@dataclass
class CaseStudyRow:
    """ONOC vs electrical baseline for one application (Table 3)."""

    workload: str
    exec_electrical: int
    exec_optical: int
    avg_latency_electrical: float
    avg_latency_optical: float
    messages: int

    @property
    def speedup(self) -> float:
        return self.exec_electrical / self.exec_optical

    @property
    def latency_reduction_pct(self) -> float:
        if self.avg_latency_electrical == 0:
            return 0.0
        return (1 - self.avg_latency_optical / self.avg_latency_electrical) * 100


def case_study(
    exp: ExperimentConfig, workload: str, scale: float = 1.0
) -> CaseStudyRow:
    """The paper's headline comparison: the application on the ONOC vs the
    baseline electrical NoC, both execution-driven."""
    res_e, _, _ = run_execution_driven(exp, workload, "electrical",
                                       capture=False, scale=scale)
    res_o, _, _ = run_execution_driven(exp, workload, "optical",
                                       capture=False, scale=scale)
    return CaseStudyRow(
        workload=workload,
        exec_electrical=res_e.exec_time_cycles,
        exec_optical=res_o.exec_time_cycles,
        avg_latency_electrical=res_e.avg_network_latency,
        avg_latency_optical=res_o.avg_network_latency,
        messages=res_o.messages,
    )


# ---------------------------------------------------------------- Table 4
def power_experiment(
    exp: ExperimentConfig, workload: str, scale: float = 1.0
) -> tuple[EnergyReport, EnergyReport]:
    """Energy of the case-study run on each network (Table 4)."""
    res_e, _, net_e = run_execution_driven(exp, workload, "electrical",
                                           capture=False, scale=scale)
    res_o, _, net_o = run_execution_driven(exp, workload, "optical",
                                           capture=False, scale=scale)
    return (
        electrical_energy_report(net_e, res_e.exec_time_cycles),
        optical_energy_report(net_o, res_o.exec_time_cycles),
    )


# ---------------------------------------------------------------- Fig. 7
def ablation_dep_fraction(
    exp: ExperimentConfig,
    workload: str,
    fractions: Sequence[float],
    scale: float = 1.0,
    gap_policy: Optional[str] = None,
) -> list[tuple[float, ErrorReport]]:
    """Accuracy vs fraction of dependency edges kept (annotation-completeness
    sensitivity).  ``gap_policy`` selects the degraded-gap policy applied to
    the ablated records (default: the TraceConfig default, ``neighbor_gap``).
    """
    trace, _, _, ref_trace, factory = _capture_and_reference(
        exp, workload, scale)
    out = []
    for frac in fractions:
        cfg = TraceConfig(mode=TRACE_SELF_CORRECTING, keep_dep_fraction=frac)
        if gap_policy is not None:
            cfg = replace(cfg, degraded_gap_policy=gap_policy)
        res = replay_trace(trace, factory, cfg)
        out.append((frac, compare_to_reference(res, ref_trace)))
    return out


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
) -> list[tuple[int, ErrorReport, ErrorReport]]:
    """Accuracy vs capture/target speed mismatch.

    The target ONOC's bandwidth is swept via its wavelength count; for each
    point the electrical-captured trace is replayed naive and self-correcting
    against a fresh execution-driven reference on that ONOC.  Returns
    ``(wavelengths, naive_report, self_correcting_report)`` triples.
    """
    trace, *_ = _capture_and_reference(exp, workload, scale, reference=None)
    out = []
    for wl_count in wavelength_counts:
        onoc = replace(exp.onoc, num_wavelengths=wl_count)
        _, ref_trace, _ = run_execution_driven(
            replace(exp, onoc=onoc), workload, "optical", scale=scale)
        factory = optical_factory(onoc, exp.seed)
        naive = replay_trace(trace, factory, TraceConfig(mode=TRACE_NAIVE))
        sc = replay_trace(trace, factory,
                          TraceConfig(mode=TRACE_SELF_CORRECTING))
        out.append((
            wl_count,
            compare_to_reference(naive, ref_trace),
            compare_to_reference(sc, ref_trace),
        ))
    return out
