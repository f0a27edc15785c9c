"""Base experiments: what a declarative config can run.

Each :class:`BaseExperiment` bundles

* a typed parameter schema (:mod:`repro.exp.schema`),
* ``compile(params) -> list[SweepTask]`` — the experiment as a flat list of
  content-addressed sweep tasks, each *identical* to a direct call of its
  point function with every parameter passed (one call shape per point,
  whatever the values),
* ``points`` — the point function(s) those tasks call, under their wire
  alias, as dotted ``"module:qualname"`` refs (the form a task carries);
  :func:`serve_operations` turns the registry's points into the serve
  whitelist, so a node accepts the tasks unchanged, and
* ``postprocess(params, results) -> (rows, metrics)`` — the table rows the
  bench scripts used to format by hand, plus a flat ``{metric: number}``
  snapshot that makes two runs machine-diffable (``repro exp diff``).

The compiled tasks execute through any executor with a ``run(tasks)``
method: :class:`repro.harness.SweepRunner` locally, or
:class:`repro.exp.serve_exec.ServeExecutor` against a resident
``repro.serve`` node.

Reading the catalogue imports no simulator: compile and postprocess
import the builders when they run, and a point's module is imported by
whichever process executes its task
(:func:`repro.harness.parallel.resolve_callable`).  A serve node reads
its whitelist here without loading the code behind it.

Metric volatility: metrics matching an experiment's ``volatile`` globs
(wall-clock timings, mostly) are recorded in archives but exempted from
``--gate`` comparisons by the experiment's default :class:`GateSpec`.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence, Union

from repro.config import (
    ENGINE_EVENT,
    ENGINE_GENERATIONAL,
    MITIGATIONS,
    ONOC_TOPOLOGIES,
    REPLAY_ENGINES,
)
from repro.exp.config import GateSpec
from repro.exp.schema import ParamSchema, SchemaError, specs
from repro.harness.parallel import SweepTask, callable_ref

#: The full application-kernel catalogue (the paper's case study used one
#: real application; the benches sweep the suite).
ALL_WORKLOADS = (
    "fft",
    "lu",
    "radix",
    "stencil",
    "prodcons",
    "randshare",
    "barnes",
    "cholesky",
)

Rows = list[dict]
Metrics = dict[str, float]


@dataclass(frozen=True)
class BaseExperiment:
    """One runnable experiment family (see module docstring)."""

    name: str
    description: str
    schema: ParamSchema
    compile: Callable[[dict], list[SweepTask]]
    postprocess: Callable[[dict, list], tuple[Rows, Metrics]]
    #: Wire alias -> the ``module:qualname`` ref of the point function
    #: ``compile`` emits tasks for (a callable also works, but imports its
    #: module with the catalogue).
    points: dict[str, Union[str, Callable]]
    #: Metric-name globs that are measured wall-clock (never gateable).
    volatile: tuple[str, ...] = field(default_factory=tuple)

    @property
    def default_gate(self) -> GateSpec:
        return GateSpec(0.0, {pattern: None for pattern in self.volatile})


_REGISTRY: dict[str, BaseExperiment] = {}


def register(exp: BaseExperiment) -> BaseExperiment:
    if exp.name in _REGISTRY:
        raise ValueError(f"duplicate experiment {exp.name!r}")
    _REGISTRY[exp.name] = exp
    return exp


def get_experiment(name: str) -> BaseExperiment:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SchemaError(
            f"unknown experiment {name!r}; "
            f"known: {sorted(_REGISTRY)}"
        ) from None


def experiment_names() -> list[str]:
    return sorted(_REGISTRY)


def serve_operations() -> dict[str, str]:
    """``alias -> module:qualname`` of every registered point function: the
    experiment half of the serve whitelist (:mod:`repro.serve.ops`)."""
    return {
        alias: callable_ref(fn)
        for exp in _REGISTRY.values()
        for alias, fn in exp.points.items()
    }


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

#: Parameter specs shared by every system-level experiment.
_COMMON = (
    ("cores", "int", 16, None, "core count (perfect square)"),
    ("seed", "int", 7, None, "master seed"),
    ("wavelengths", "int", 64, None, "WDM wavelengths per optical channel"),
)


def _exp_config(params: dict):
    from repro.harness.builders import experiment_from_params

    return experiment_from_params(
        cores=params["cores"],
        seed=params["seed"],
        wavelengths=params["wavelengths"],
    )


def metrics_from_rows(
    rows: Sequence[dict], key_cols: Sequence[str]
) -> Metrics:
    """Flatten table rows into ``{"<key>.<column>": value}`` metrics.

    ``key_cols`` name the identifying columns (joined with ``.``); every
    other numeric, non-bool cell becomes one metric.
    """
    out: Metrics = {}
    for row in rows:
        key = ".".join(
            str(row[c]) for c in key_cols if c in row and row[c] != ""
        )
        for col, val in row.items():
            if col in key_cols or isinstance(val, bool):
                continue
            if not isinstance(val, (int, float)):
                continue
            name = f"{key}.{col}" if key else col
            out[name] = val
    return out


def _gmean(xs: Sequence[float]) -> float:
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


# ---------------------------------------------------------------------------
# accuracy (Fig. 4)
# ---------------------------------------------------------------------------
_ACCURACY = "repro.harness.experiments:accuracy_experiment"


def _accuracy_compile(params: dict) -> list[SweepTask]:
    exp = _exp_config(params)
    return [
        SweepTask.make(
            _ACCURACY,
            exp,
            wl,
            scale=params["scale"],
            engine=params["engine"],
        )
        for wl in params["workloads"]
    ]


def _accuracy_post(params: dict, results: list) -> tuple[Rows, Metrics]:
    rows = [
        {
            "workload": r.workload,
            "ref_exec": r.ref_exec_time,
            "naive_est": r.naive_estimate,
            "naive_err_%": round(r.naive.exec_time_error_pct, 2),
            "selfcorr_est": r.self_correcting_estimate,
            "selfcorr_err_%": round(r.self_correcting.exec_time_error_pct, 2),
            "messages": r.extra["trace_messages"],
        }
        for r in results
    ]
    gmean_naive = _gmean([r["naive_err_%"] + 1 for r in rows]) - 1
    gmean_sc = _gmean([r["selfcorr_err_%"] + 1 for r in rows]) - 1
    rows.append(
        {
            "workload": "gmean",
            "ref_exec": "",
            "naive_est": "",
            "naive_err_%": round(gmean_naive, 2),
            "selfcorr_est": "",
            "selfcorr_err_%": round(gmean_sc, 2),
            "messages": "",
        }
    )
    return rows, metrics_from_rows(rows, ("workload",))


register(
    BaseExperiment(
        name="accuracy",
        description="Trace-model accuracy per application: naive vs "
        "self-correcting replay error against the execution-driven "
        "ONOC reference (Fig. 4).",
        schema=specs(
            ("workloads", "list[str]", ALL_WORKLOADS),
            *_COMMON,
            ("scale", "float", 1.0, None, "workload scale factor"),
            ("engine", "str", ENGINE_EVENT, REPLAY_ENGINES, "replay engine"),
        ),
        compile=_accuracy_compile,
        postprocess=_accuracy_post,
        points={"accuracy": _ACCURACY},
    )
)


# ---------------------------------------------------------------------------
# load_latency (Fig. 3)
# ---------------------------------------------------------------------------
_LOAD_LATENCY = "repro.harness.experiments:load_latency_point"


def _load_latency_compile(params: dict) -> list[SweepTask]:
    if len(params["labels"]) != len(params["networks"]):
        raise SchemaError(
            f"labels ({len(params['labels'])}) must pair with networks "
            f"({len(params['networks'])})"
        )
    exp = _exp_config(params)
    return [
        SweepTask.make(
            _LOAD_LATENCY,
            network,
            exp,
            pattern,
            rate,
            message_bytes=params["message_bytes"],
            warmup=params["warmup"],
            measure=params["measure"],
        )
        for pattern in params["patterns"]
        for network in params["networks"]
        for rate in params["rates"]
    ]


def _load_latency_post(params: dict, results: list) -> tuple[Rows, Metrics]:
    rows: Rows = []
    labels = dict(zip(params["networks"], params["labels"]))
    n_rates = len(params["rates"])
    i = 0
    for pattern in params["patterns"]:
        for network in params["networks"]:
            series = results[i : i + n_rates]
            i += n_rates
            for p in series:
                rows.append(
                    {
                        "pattern": pattern,
                        "network": labels[network],
                        "rate": p.injection_rate,
                        "avg_latency": round(p.avg_latency, 1),
                        "p99": p.p99_latency,
                        "throughput": round(p.throughput_flits_cycle, 3),
                        "saturated": p.saturated,
                    }
                )
                if p.saturated:
                    break
    return rows, metrics_from_rows(rows, ("pattern", "network", "rate"))


register(
    BaseExperiment(
        name="load_latency",
        description="Load-latency curves per synthetic pattern, electrical "
        "mesh vs optical networks; each series truncates just past its "
        "first saturated point (Fig. 3).",
        schema=specs(
            ("patterns", "list[str]", ("uniform", "transpose", "hotspot")),
            ("networks", "list[str]", ("electrical", "crossbar")),
            ("labels", "list[str]", ("electrical", "optical")),
            ("rates", "list[float]", (0.02, 0.05, 0.1, 0.2, 0.3, 0.45)),
            ("message_bytes", "int", 64),
            ("warmup", "int", 500),
            ("measure", "int", 3000),
            *_COMMON,
        ),
        compile=_load_latency_compile,
        postprocess=_load_latency_post,
        points={"load_latency_point": _LOAD_LATENCY},
    )
)


# ---------------------------------------------------------------------------
# case_study (Table 3)
# ---------------------------------------------------------------------------
_CASE_STUDY = "repro.harness.experiments:case_study"


def _case_study_compile(params: dict) -> list[SweepTask]:
    exp = _exp_config(params)
    return [
        SweepTask.make(_CASE_STUDY, exp, wl, scale=params["scale"])
        for wl in params["workloads"]
    ]


def _case_study_post(params: dict, results: list) -> tuple[Rows, Metrics]:
    rows = [
        {
            "workload": r.workload,
            "exec_electrical": r.exec_electrical,
            "exec_optical": r.exec_optical,
            "speedup_x": round(r.speedup, 3),
            "lat_elec": round(r.avg_latency_electrical, 1),
            "lat_opt": round(r.avg_latency_optical, 1),
            "lat_reduction_%": round(r.latency_reduction_pct, 1),
        }
        for r in results
    ]
    return rows, metrics_from_rows(rows, ("workload",))


register(
    BaseExperiment(
        name="case_study",
        description="The paper's headline comparison: each application "
        "executed through the full system on the ONOC vs the electrical "
        "baseline (Table 3).",
        schema=specs(
            ("workloads", "list[str]", ALL_WORKLOADS),
            *_COMMON,
            ("scale", "float", 1.0),
        ),
        compile=_case_study_compile,
        postprocess=_case_study_post,
        points={"casestudy": _CASE_STUDY},
    )
)


# ---------------------------------------------------------------------------
# simtime (Table 2)
# ---------------------------------------------------------------------------
_SIMTIME = "repro.harness.experiments:simtime_experiment"


def _simtime_compile(params: dict) -> list[SweepTask]:
    exp = _exp_config(params)
    return [
        SweepTask.make(
            _SIMTIME,
            exp,
            wl,
            engine=params["engine"],
            scale=params["scale"],
        )
        for wl in params["workloads"]
    ]


def _simtime_post(params: dict, results: list) -> tuple[Rows, Metrics]:
    rows = [
        {
            "workload": r.workload,
            "exec_driven_s": round(r.exec_driven_s, 3),
            "capture_run_s": round(r.capture_overhead_s, 3),
            "naive_replay_s": round(r.naive_replay_s, 3),
            "selfcorr_replay_s": round(r.self_correcting_s, 3),
            "replay_speedup_x": round(r.replay_speedup, 2),
        }
        for r in results
    ]
    return rows, metrics_from_rows(rows, ("workload",))


register(
    BaseExperiment(
        name="simtime",
        description="Wall-clock cost of each methodology per workload: "
        "execution-driven vs capture run vs both replay modes (Table 2). "
        "Every metric is a wall-clock measurement, so none are gateable.",
        schema=specs(
            ("workloads", "list[str]", ALL_WORKLOADS),
            *_COMMON,
            ("scale", "float", 1.0),
            ("engine", "str", ENGINE_EVENT, REPLAY_ENGINES),
        ),
        compile=_simtime_compile,
        postprocess=_simtime_post,
        points={"simtime": _SIMTIME},
        volatile=("*",),
    )
)


# ---------------------------------------------------------------------------
# power (Table 4)
# ---------------------------------------------------------------------------
_POWER = "repro.harness.experiments:power_experiment"


def _power_compile(params: dict) -> list[SweepTask]:
    exp = _exp_config(params)
    return [
        SweepTask.make(_POWER, exp, wl)
        for wl in params["workloads"]
    ]


def _power_post(params: dict, results: list) -> tuple[Rows, Metrics]:
    rows: Rows = []
    for wl, (rep_e, rep_o) in zip(params["workloads"], results):
        for rep in (rep_e, rep_o):
            row = {"workload": wl, **rep.as_row()}
            row["static_pct"] = round(
                100
                * rep.static_energy_pj
                / (rep.static_energy_pj + rep.total_dynamic_pj),
                1,
            )
            rows.append(row)
    return rows, metrics_from_rows(rows, ("workload", "network"))


register(
    BaseExperiment(
        name="power",
        description="Energy of the case-study run on each network: static "
        "vs dynamic breakdown, ONOC vs electrical (Table 4).",
        schema=specs(
            ("workloads", "list[str]", ("fft", "randshare")),
            *_COMMON,
        ),
        compile=_power_compile,
        postprocess=_power_post,
        points={"power": _POWER},
    )
)


# ---------------------------------------------------------------------------
# area (Table 5)
# ---------------------------------------------------------------------------
_AREA = "repro.harness.experiments:area_rows"


def _area_compile(params: dict) -> list[SweepTask]:
    return [SweepTask.make(_AREA, _exp_config(params))]


def _area_post(params: dict, results: list) -> tuple[Rows, Metrics]:
    rows = results[0]
    return rows, metrics_from_rows(rows, ("network",))


register(
    BaseExperiment(
        name="area",
        description="DSENT-class area of the electrical baseline and every "
        "optical architecture (Table 5).",
        schema=specs(*_COMMON),
        compile=_area_compile,
        postprocess=_area_post,
        points={"area_rows": _AREA},
    )
)


# ---------------------------------------------------------------------------
# ablation_deps (Fig. 7)
# ---------------------------------------------------------------------------
_ABLATION_DEPS = "repro.harness.experiments:ablation_dep_fraction"


def _ablation_deps_compile(params: dict) -> list[SweepTask]:
    exp = _exp_config(params)
    return [
        SweepTask.make(
            _ABLATION_DEPS,
            exp,
            params["workload"],
            params["fractions"],
            gap_policy=policy,
            scale=params["scale"],
        )
        for policy in params["policies"]
    ]


def _ablation_deps_post(params: dict, results: list) -> tuple[Rows, Metrics]:
    by_policy = dict(zip(params["policies"], results))
    policies = params["policies"]
    rows = [
        {
            "kept_deps": frac,
            **{
                f"{policy}_exec_err_%": round(rep.exec_time_error_pct, 2)
                for policy in policies
                for f2, rep in by_policy[policy]
                if f2 == frac
            },
        }
        for frac, _ in by_policy[policies[0]]
    ]
    return rows, metrics_from_rows(rows, ("kept_deps",))


register(
    BaseExperiment(
        name="ablation_deps",
        description="Accuracy vs fraction of dependency edges kept, per "
        "degraded-gap policy (Fig. 7).",
        schema=specs(
            ("workload", "str", "randshare"),
            ("fractions", "list[float]", (1.0, 0.75, 0.5, 0.25, 0.0)),
            ("policies", "list[str]", ("captured", "neighbor_gap")),
            *_COMMON,
            ("scale", "float", 1.0),
        ),
        compile=_ablation_deps_compile,
        postprocess=_ablation_deps_post,
        points={"ablation_deps": _ABLATION_DEPS},
    )
)


# ---------------------------------------------------------------------------
# ablation_mismatch (Fig. 8)
# ---------------------------------------------------------------------------
_ABLATION_MISMATCH = "repro.harness.experiments:ablation_network_mismatch"


def _ablation_mismatch_compile(params: dict) -> list[SweepTask]:
    exp = _exp_config(params)
    return [
        SweepTask.make(
            _ABLATION_MISMATCH,
            exp,
            params["workload"],
            params["wavelength_counts"],
        )
    ]


def _ablation_mismatch_post(
    params: dict, results: list
) -> tuple[Rows, Metrics]:
    rows = [
        {
            "wavelengths": wl,
            "naive_err_%": round(n.exec_time_error_pct, 2),
            "selfcorr_err_%": round(s.exec_time_error_pct, 2),
        }
        for wl, n, s in results[0]
    ]
    return rows, metrics_from_rows(rows, ("wavelengths",))


register(
    BaseExperiment(
        name="ablation_mismatch",
        description="Accuracy vs capture/target bandwidth mismatch, swept "
        "via the target's wavelength count (Fig. 8).",
        schema=specs(
            ("workload", "str", "lu"),
            ("wavelength_counts", "list[int]", (4, 16, 64, 256)),
            *_COMMON,
        ),
        compile=_ablation_mismatch_compile,
        postprocess=_ablation_mismatch_post,
        points={"ablation_mismatch": _ABLATION_MISMATCH},
    )
)


# ---------------------------------------------------------------------------
# scalability (Fig. 9)
# ---------------------------------------------------------------------------
_SCALABILITY = "repro.harness.experiments:scalability_point"


def _scalability_compile(params: dict) -> list[SweepTask]:
    return [
        SweepTask.make(
            _SCALABILITY,
            cores,
            params["seed"],
            params["workload"],
            with_accuracy=cores <= params["accuracy_max_cores"],
            engine=params["engine"],
        )
        for cores in params["core_counts"]
    ]


def _scalability_post(params: dict, results: list) -> tuple[Rows, Metrics]:
    return list(results), metrics_from_rows(results, ("cores",))


register(
    BaseExperiment(
        name="scalability",
        description="Case study + accuracy repeated at growing core counts "
        "(Fig. 9).  Accuracy (4 extra runs per point) is skipped above "
        "accuracy_max_cores to bound the wall clock.",
        schema=specs(
            ("core_counts", "list[int]", (16, 36, 64)),
            ("workload", "str", "fft"),
            ("seed", "int", 7),
            ("engine", "str", ENGINE_EVENT, REPLAY_ENGINES),
            ("accuracy_max_cores", "int", 36),
        ),
        compile=_scalability_compile,
        postprocess=_scalability_post,
        points={"scalability_point": _SCALABILITY},
    )
)


# ---------------------------------------------------------------------------
# seed_sensitivity (Fig. 13)
# ---------------------------------------------------------------------------
_SEED_ACCURACY = "repro.harness.experiments:seed_accuracy_point"


def _seed_sensitivity_compile(params: dict) -> list[SweepTask]:
    exp = _exp_config(params)
    return [
        SweepTask.make(_SEED_ACCURACY, exp, wl, seed)
        for wl in params["workloads"]
        for seed in params["seeds"]
    ]


def _seed_sensitivity_post(
    params: dict, results: list
) -> tuple[Rows, Metrics]:
    by_workload: dict[str, list] = {}
    for r in results:
        by_workload.setdefault(r.workload, []).append(r)
    rows = []
    for wl in params["workloads"]:
        naive_errs = [r.naive.exec_time_error_pct for r in by_workload[wl]]
        sc_errs = [
            r.self_correcting.exec_time_error_pct for r in by_workload[wl]
        ]
        rows.append(
            {
                "workload": wl,
                "seeds": len(params["seeds"]),
                "naive_mean_%": round(statistics.mean(naive_errs), 2),
                "naive_max_%": round(max(naive_errs), 2),
                "selfcorr_mean_%": round(statistics.mean(sc_errs), 2),
                "selfcorr_max_%": round(max(sc_errs), 2),
            }
        )
    return rows, metrics_from_rows(rows, ("workload",))


register(
    BaseExperiment(
        name="seed_sensitivity",
        description="Accuracy repeated across master seeds: the naive vs "
        "self-correcting gap must be structural, not a lucky seed "
        "(Fig. 13).",
        schema=specs(
            ("workloads", "list[str]", ("lu", "randshare")),
            ("seeds", "list[int]", (7, 11, 23)),
            *_COMMON,
        ),
        compile=_seed_sensitivity_compile,
        postprocess=_seed_sensitivity_post,
        points={"seed_accuracy_point": _SEED_ACCURACY},
    )
)


# ---------------------------------------------------------------------------
# convergence (Fig. 6)
# ---------------------------------------------------------------------------
_CONVERGENCE = "repro.harness.experiments:convergence_experiment"


def _convergence_compile(params: dict) -> list[SweepTask]:
    exp = _exp_config(params)
    return [
        SweepTask.make(
            _CONVERGENCE,
            exp,
            wl,
            max_iterations=params["max_iterations"],
        )
        for wl in params["workloads"]
    ]


def _convergence_post(params: dict, results: list) -> tuple[Rows, Metrics]:
    rows = []
    for wl, (history, ref) in zip(params["workloads"], results):
        for h in history:
            rows.append(
                {
                    "workload": wl,
                    "iteration": h.iteration,
                    "estimate": h.exec_time_estimate,
                    "ref_exec": ref,
                    "err_%": round(
                        abs(h.exec_time_estimate - ref) / ref * 100, 2
                    ),
                }
            )
    return rows, metrics_from_rows(rows, ("workload", "iteration"))


register(
    BaseExperiment(
        name="convergence",
        description="Offline iterative self-correction: estimate vs "
        "fixed-point pass count, against the execution-driven reference "
        "(Fig. 6).",
        schema=specs(
            ("workloads", "list[str]", ("lu", "radix", "randshare")),
            ("max_iterations", "int", 8),
            *_COMMON,
        ),
        compile=_convergence_compile,
        postprocess=_convergence_post,
        points={"convergence": _CONVERGENCE},
        volatile=("*.wall_clock_s",),
    )
)


# ---------------------------------------------------------------------------
# resilience (degradation mitigation)
# ---------------------------------------------------------------------------
_RESILIENCE = "repro.harness.experiments:resilience_point"


def _resilience_compile(params: dict) -> list[SweepTask]:
    exp = _exp_config(params)
    return [
        SweepTask.make(
            _RESILIENCE,
            exp,
            wl,
            params["degrade"],
            params["intensity"],
            mitigation,
            scale=params["scale"],
            engine=params["engine"],
        )
        for wl in params["workloads"]
        for mitigation in params["mitigations"]
    ]


def _resilience_post(params: dict, results: list) -> tuple[Rows, Metrics]:
    rows = [
        {
            "workload": r["workload"],
            "mitigation": r["mitigation"],
            "events": r["events"],
            "exec_stock": r["exec_stock"],
            "exec_degraded": r["exec_degraded"],
            "slowdown_pct": r["slowdown_pct"],
            "penalty_cycles": r["penalty"].get("total_cycles", 0),
            "slowdown_cycles": r["penalty"].get("slowdown_cycles", 0),
            "detour_cycles": r["penalty"].get("detour_cycles", 0),
            "retune_cycles": r["penalty"].get("retune_cycles", 0),
            "affected": r["penalty"].get("messages_affected", 0),
        }
        for r in results
    ]
    return rows, metrics_from_rows(rows, ("workload", "mitigation"))


register(
    BaseExperiment(
        name="resilience",
        description="Mid-replay network degradation under each mitigation "
        "policy: a seeded fault timeseries hits the ONOC while the "
        "self-correcting replay runs, and the policies' typed penalties "
        "are compared against the pristine replay.",
        schema=specs(
            ("workloads", "list[str]", ("fft", "radix")),
            ("degrade", "str",
             "thermal_drift+laser_droop+corruption_bursts"),
            ("intensity", "float", 0.9),
            ("mitigations", "list[str]", MITIGATIONS),
            *_COMMON,
            ("scale", "float", 0.25),
            ("engine", "str", ENGINE_EVENT, REPLAY_ENGINES),
        ),
        compile=_resilience_compile,
        postprocess=_resilience_post,
        points={"resilience_point": _RESILIENCE},
    )
)


# ---------------------------------------------------------------------------
# fault_matrix (error vs trace-fault severity)
# ---------------------------------------------------------------------------


def _fault_matrix_base(params: dict):
    from repro.validate.scenario import Scenario

    return Scenario(
        params["workload"], params["cores"], params["seed"],
        params["scale"], params["capture"], params["target"],
        fault_seed=params["fault_seed"], gap_policy=params["gap_policy"],
    )


def _fault_matrix_cells(params: dict):
    """The deduplicated scenario list + per-family severity grid, shared by
    compile and postprocess so task order is reproducible."""
    from repro.validate.differential import fault_matrix_scenarios

    matrix = fault_matrix_scenarios(
        _fault_matrix_base(params),
        families=tuple(params["families"]) or None,
        severities=tuple(params["severities"]),
        fault_seed=params["fault_seed"],
    )
    unique: dict[str, Any] = {}
    for pts in matrix.values():
        for _, s in pts:
            unique.setdefault(s.name, s)
    return matrix, list(unique.values())


_SCENARIO = "repro.validate.scenario:run_scenario"


def _fault_matrix_compile(params: dict) -> list[SweepTask]:
    _, ordered = _fault_matrix_cells(params)
    return [SweepTask.make(_SCENARIO, s) for s in ordered]


def _fault_matrix_post(params: dict, results: list) -> tuple[Rows, Metrics]:
    from repro.validate.differential import check_fault_matrix_smooth

    matrix, ordered = _fault_matrix_cells(params)
    by_name = {s.name: o for s, o in zip(ordered, results)}
    rows: Rows = []
    for fam, pts in sorted(matrix.items()):
        curve = [(sev, by_name[s.name]) for sev, s in pts]
        breaches = check_fault_matrix_smooth(
            [(sev, o.sc_exec_error_pct) for sev, o in curve],
            params["max_slope"])
        for sev, o in curve:
            rows.append(
                {
                    "family": fam,
                    "severity": sev,
                    "sc_err_%": round(o.sc_exec_error_pct, 2),
                    "naive_err_%": round(o.naive_exec_error_pct, 2),
                    "unreplayed": o.sc_unreplayed,
                    "damaged": o.fault_damaged,
                    "breaches": len(breaches),
                }
            )
    return rows, metrics_from_rows(rows, ("family", "severity"))


register(
    BaseExperiment(
        name="fault_matrix",
        description="Exec-error vs trace-fault severity per fault family on "
        "a capture/target mismatch pair, gated on smooth degradation (no "
        "re-anchoring cliffs) via the per-segment slope bound.",
        schema=specs(
            ("workload", "str", "fft"),
            ("cores", "int", 16),
            ("seed", "int", 16),
            ("scale", "float", 0.1),
            ("capture", "str", "awgr"),
            ("target", "str", "crossbar"),
            ("families", "list[str]", ()),
            ("severities", "list[float]",
             (0.0, 0.1, 0.25, 0.5, 0.75, 1.0)),
            ("fault_seed", "int", 777),
            ("gap_policy", "str", "neighbor_gap"),
            ("max_slope", "float", 900.0),
        ),
        compile=_fault_matrix_compile,
        postprocess=_fault_matrix_post,
        points={"scenario": _SCENARIO},
    )
)


# ---------------------------------------------------------------------------
# latency_error (Fig. 5)
# ---------------------------------------------------------------------------
_LATENCY_FIDELITY = "repro.harness.experiments:latency_fidelity_rows"


def _latency_error_compile(params: dict) -> list[SweepTask]:
    exp = _exp_config(params)
    return [
        SweepTask.make(_LATENCY_FIDELITY, exp, wl)
        for wl in params["workloads"]
    ]


def _latency_error_post(params: dict, results: list) -> tuple[Rows, Metrics]:
    rows = [row for per_workload in results for row in per_workload]
    return rows, metrics_from_rows(rows, ("workload", "mode"))


register(
    BaseExperiment(
        name="latency_error",
        description="Per-message network-latency fidelity of both replay "
        "modes on the ONOC (Fig. 5).",
        schema=specs(
            ("workloads", "list[str]", ("fft", "lu", "prodcons", "randshare")),
            *_COMMON,
        ),
        compile=_latency_error_compile,
        postprocess=_latency_error_post,
        points={"latency_fidelity": _LATENCY_FIDELITY},
    )
)


# ---------------------------------------------------------------------------
# scalability_synth (production-scale synthetic workloads)
# ---------------------------------------------------------------------------
_SYNTH_SCALABILITY = "repro.synth.experiment:synth_scalability_point"


def _scalability_synth_compile(params: dict) -> list[SweepTask]:
    tasks = []
    for topology in params["topologies"]:
        for nodes in params["node_counts"]:
            if topology == "circuit_mesh" and math.isqrt(nodes) ** 2 != nodes:
                continue  # the mesh needs a square node count
            tasks.append(
                SweepTask.make(
                    _SYNTH_SCALABILITY,
                    nodes,
                    params["messages"],
                    topology,
                    params["seed"],
                    pattern=params["pattern"],
                    engine=params["engine"],
                )
            )
    return tasks


def _scalability_synth_post(params: dict, results: list) -> tuple[Rows, Metrics]:
    return list(results), metrics_from_rows(results, ("topology", "nodes"))


register(
    BaseExperiment(
        name="scalability_synth",
        description="Replay throughput + exec estimates on synthetic "
        "workloads beyond the captured corpus: the generator emits one "
        "profile-matched trace per (topology, nodes) cell at production "
        "node counts, replayed naive and self-correcting.  Exec estimates "
        "are deterministic and gateable; wall-clock throughput is volatile.",
        schema=specs(
            ("node_counts", "list[int]", (1024, 4096)),
            ("topologies", "list[str]", ONOC_TOPOLOGIES),
            ("messages", "int", 50_000),
            ("pattern", "str", "uniform"),
            ("seed", "int", 7),
            ("engine", "str", ENGINE_GENERATIONAL, REPLAY_ENGINES),
        ),
        compile=_scalability_synth_compile,
        postprocess=_scalability_synth_post,
        points={"synth_scalability_point": _SYNTH_SCALABILITY},
        volatile=("*.replay_wall_s", "*.msgs_per_s"),
    )
)
