"""Command-line interface: the full methodology without writing Python.

Subcommands::

    capture    run the full system on a network, write the trace
               (JSON or chunked binary, --format)
    replay     replay a trace file on a target network (format autodetected,
               --engine selects event-driven vs generational replay)
    trace      trace-file utilities: convert between JSON and binary,
               print header info without loading the records
    accuracy, casestudy, sweep
               legacy spellings of ``exp run accuracy | case_study |
               load_latency``: their flags map onto catalogue parameters
               and the printed table is the catalogue's rows
    validate   differential validation + invariant checks + golden corpus
    serve      run the resident simulation service (see docs/SERVING.md)
    submit     submit a job to a running service and print the result
    cache      inspect or clear the sweep result cache
    metrics    pretty-print a metrics JSON written with --metrics-out
    info       print the resolved configuration (Table 1)
    exp        declarative experiment layer: list the catalog and configs,
               run a catalogue experiment by name or a YAML/JSON config
               (archiving provenance), diff two archives (``--gate`` for CI
               regression checks) — see docs/EXPERIMENTS_LAYER.md

Sweep-shaped subcommands (``sweep``, ``accuracy``) accept ``--jobs N`` to
shard independent simulations across processes and ``--cache-dir DIR`` (or
``--cache`` for the default location) to reuse previously computed points —
see :mod:`repro.harness.parallel`.

Every subcommand accepts the :mod:`repro.obs` instrumentation flags:
``--metrics`` prints the merged counter/gauge/distribution registry after
the command's own output, ``--metrics-out FILE`` dumps it as JSON (readable
back via ``repro metrics FILE``), and ``--trace-out FILE`` records an event
timeline and writes Chrome-trace JSON for ``chrome://tracing`` /
https://ui.perfetto.dev — see ``docs/OBSERVABILITY.md``.

Run ``python -m repro <subcommand> --help`` for flags.
"""

from __future__ import annotations

import argparse
import math
import pathlib
import re
import sys
from dataclasses import replace

from repro import obs
from repro.config import (
    ENGINE_EVENT,
    GAP_POLICIES,
    GAP_POLICY_NEIGHBOR,
    ONOC_TOPOLOGIES,
    REPLAY_ENGINES,
    TRACE_MODES,
    TRACE_SELF_CORRECTING,
    ExperimentConfig,
    TraceConfig,
)
from repro.harness.parallel import default_cache_dir
from repro.traffic.patterns import PATTERNS


def _common_params(args: argparse.Namespace) -> dict:
    """The catalogue's common parameters from the common CLI flags."""
    if math.isqrt(args.cores) ** 2 != args.cores:
        raise SystemExit(f"--cores must be a perfect square, got {args.cores}")
    return {"cores": args.cores, "seed": args.seed,
            "wavelengths": args.wavelengths}


def build_experiment(args: argparse.Namespace) -> ExperimentConfig:
    """Experiment config from common CLI flags."""
    from repro.harness.builders import experiment_from_params

    return experiment_from_params(**_common_params(args))


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cores", type=int, default=16,
                   help="core count (perfect square; default 16)")
    p.add_argument("--seed", type=int, default=7, help="master seed")
    p.add_argument("--scale", type=float, default=1.0,
                   help="workload scale factor")
    p.add_argument("--wavelengths", type=int, default=64,
                   help="WDM wavelengths per optical channel")


def _add_obs_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--metrics", action="store_true",
                   help="collect repro.obs instrumentation and print the "
                        "merged metrics registry after the command output")
    p.add_argument("--metrics-out", default=None, metavar="FILE",
                   help="write the metrics registry as JSON (pretty-print "
                        "it later with `repro metrics FILE`)")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="record an event timeline and write Chrome-trace "
                        "JSON (open in chrome://tracing or Perfetto)")


def _add_degrade_flags(p: argparse.ArgumentParser,
                       spec_only: bool = False) -> None:
    from repro.config import MITIGATION_NONE, MITIGATIONS
    from repro.resilience import GENERATOR_FAMILIES

    families = "+".join(sorted(GENERATOR_FAMILIES))
    if spec_only:
        spec_help = (f"apply a seeded fault timeseries to every scenario: "
                     f"'+'-joined generator families from {{{families}}}")
    else:
        spec_help = (f"degrade the fabric mid-replay: a fault-timeseries "
                     f"file (CSV/JSON) or a '+'-joined generator spec from "
                     f"{{{families}}} seeded by --seed")
    p.add_argument("--degrade", default=None, metavar="SPEC", help=spec_help)
    p.add_argument("--degrade-intensity", type=float, default=0.5,
                   metavar="F",
                   help="generator intensity in [0,1] (default 0.5)")
    p.add_argument("--mitigation", default=MITIGATION_NONE,
                   choices=MITIGATIONS,
                   help="mitigation policy for degraded resources "
                        "(default none)")


def _add_sweep_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for independent simulations "
                        "(default 1 = serial; 0 = all cores)")
    p.add_argument("--cache-dir", default=None,
                   help="result-cache directory (content-addressed JSON)")
    p.add_argument("--cache", action="store_true",
                   help=f"cache results under the default location "
                        f"({default_cache_dir()}) or $REPRO_CACHE_DIR")


def _runner(args: argparse.Namespace):
    from repro.harness.parallel import SweepRunner

    cache_dir = args.cache_dir
    if cache_dir is None and getattr(args, "cache", False):
        cache_dir = default_cache_dir()
    workers = args.jobs if args.jobs != 0 else None
    return SweepRunner(workers=workers, cache_dir=cache_dir)


def cmd_capture(args: argparse.Namespace) -> int:
    from repro.harness.builders import run_execution_driven

    exp = build_experiment(args)
    res, trace, _ = run_execution_driven(exp, args.workload, args.network,
                                         scale=args.scale)
    assert trace is not None
    out = pathlib.Path(args.out)
    if args.format == "binary":
        from repro.core import tracebin
        tracebin.write_file(trace, out)
    else:
        out.write_text(trace.to_json())
    print(f"captured {len(trace)} messages over {res.exec_time_cycles} cycles "
          f"-> {out} ({out.stat().st_size // 1024} KiB, {args.format})")
    return 0


#: ``replay --target`` / ``sweep --network`` choices: the electrical
#: baseline plus every optical backend the config layer knows.
_NETWORK_CHOICES = ("electrical", *ONOC_TOPOLOGIES)


def _target_factory(args: argparse.Namespace, exp: ExperimentConfig):
    from repro.harness.builders import electrical_factory, optical_factory

    if args.target == "electrical":
        return electrical_factory(exp.noc, exp.seed)
    onoc = replace(exp.onoc, topology=args.target)
    return optical_factory(onoc, exp.seed)


def _resolve_degrade(spec: str, trace, cores: int, seed: int,
                     intensity: float):
    """Fault timeseries from a ``--degrade`` value: an existing CSV/JSON
    file is parsed, anything else is treated as a ``family[+family]``
    generator spec seeded from ``--seed`` with the horizon tied to the
    trace's injection span."""
    from repro.resilience import FaultTimeseries, timeseries_for_trace

    path = pathlib.Path(spec)
    if path.is_file():
        return FaultTimeseries.from_text(path.read_text())
    return timeseries_for_trace(spec, trace, seed, cores, intensity)


def cmd_replay(args: argparse.Namespace) -> int:
    from repro.core import load_trace, replay_trace

    trace = load_trace(pathlib.Path(args.trace))   # JSON or binary, by magic
    cores = trace.meta.get("num_cores", args.cores)
    args.cores = cores
    exp = build_experiment(args)
    fault_events: tuple = ()
    if args.degrade:
        fault_events = _resolve_degrade(
            args.degrade, trace, cores, args.seed,
            args.degrade_intensity).as_tuples()
    result = replay_trace(
        trace, _target_factory(args, exp),
        TraceConfig(mode=args.mode, engine=args.engine,
                    fault_events=fault_events, mitigation=args.mitigation))
    print(f"mode={result.mode} target={args.target} engine={args.engine}")
    print(f"predicted exec time : {result.exec_time_estimate} cycles")
    print(f"messages replayed   : {result.messages_replayed} "
          f"({result.messages_unreplayed} unreplayed)")
    print(f"wall clock          : {result.wall_clock_s:.3f}s "
          f"({result.sim_events} events)")
    res = result.extra.get("resilience")
    if res is not None:
        pen = res["penalty"]
        print(f"degradation         : {res['events']} fault events, "
              f"mitigation={res['mitigation']}")
        print(f"penalty cycles      : {pen['total_cycles']} "
              f"(slowdown {pen['slowdown_cycles']}, detour "
              f"{pen['detour_cycles']}, retune {pen['retune_cycles']}; "
              f"{pen['messages_affected']}/{pen['messages_total']} messages)")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.core import load_trace, tracebin
    from repro.harness.tables import format_table

    src = pathlib.Path(args.file)
    if args.trace_op == "info":
        info = tracebin.trace_info(src)
        skip = ("meta", "blocks", "record_chunk_bytes")
        rows = [{"property": k, "value": v}
                for k, v in info.items() if k not in skip]
        for name, agg in info.get("blocks", {}).items():
            rows.append({"property": f"block.{name}",
                         "value": f"{agg['count']} x {agg['bytes']} B"})
        chunk_bytes = info.get("record_chunk_bytes", [])
        if chunk_bytes:
            shown = ", ".join(str(b) for b in chunk_bytes[:8])
            if len(chunk_bytes) > 8:
                shown += f", ... ({len(chunk_bytes)} chunks)"
            rows.append({"property": "chunk_bytes", "value": shown})
        for k, v in sorted(info.get("meta", {}).items()):
            if isinstance(v, dict):  # e.g. an embedded synth profile
                rows += [{"property": f"meta.{k}.{k2}", "value": v2}
                         for k2, v2 in sorted(v.items())]
            else:
                rows.append({"property": f"meta.{k}", "value": v})
        print(format_table(rows, title=f"trace {src}"))
        return 0
    # convert: whichever format the source is, write the other (or --to).
    trace = load_trace(src)
    to = args.to
    if to is None:
        to = "json" if tracebin.is_binary_trace(src) else "binary"
    out = pathlib.Path(args.out) if args.out else src.with_suffix(
        ".json" if to == "json" else ".rtrc")
    if to == "binary":
        tracebin.write_file(trace, out)
    else:
        out.write_text(trace.to_json())
    print(f"converted {src} -> {out} ({to}, {len(trace)} records, "
          f"{out.stat().st_size // 1024} KiB)")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    from repro.core import is_binary_trace, load_trace
    from repro.core.tracebin import CHUNK_RECORDS
    from repro.harness.tables import format_table
    from repro.synth import (
        SynthProfile,
        default_profile,
        fit_profile,
        generate_to_file,
        trace_stats,
    )

    def _profile_rows(profile):
        return [{"parameter": k, "value": v}
                for k, v in sorted(profile.as_dict().items())]

    if args.synth_op == "generate":
        if args.profile:
            profile = SynthProfile.load(args.profile)
        else:
            profile = default_profile(args.nodes, args.messages,
                                      pattern=args.pattern)
        chunk = (CHUNK_RECORDS if args.chunk_records is None
                 else args.chunk_records)
        out = generate_to_file(profile, args.out, scale=args.scale,
                               seed=args.seed, chunk_records=chunk)
        print(f"generated {out['messages']} messages -> {out['path']} "
              f"({out['file_bytes'] // 1024} KiB, exec_time "
              f"{out['exec_time']}, {out['wall_clock_s']:.2f} s)")
        return 0

    src = pathlib.Path(args.file)
    if args.synth_op == "fit":
        trace = load_trace(src)
        profile = fit_profile(trace, pattern=args.pattern)
        out = pathlib.Path(args.out) if args.out else src.with_suffix(
            ".profile.json")
        out.write_text(profile.to_json())
        print(format_table(_profile_rows(profile),
                           title=f"fitted profile -> {out}"))
        return 0

    # describe: a profile JSON prints its parameters; a trace file prints
    # the fidelity statistics the generator would be held to.
    if not is_binary_trace(src):
        try:
            profile = SynthProfile.load(src)
        except (ValueError, KeyError, TypeError):
            profile = None
        if profile is not None:
            print(format_table(_profile_rows(profile),
                               title=f"profile {src}"))
            return 0
    stats = trace_stats(load_trace(src))
    rows = [{"statistic": k, "value": round(v, 4) if isinstance(v, float)
             else v} for k, v in stats.items()]
    print(format_table(rows, title=f"fidelity statistics {src}"))
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.core import load_trace, profile_trace, sharing_summary
    from repro.harness.tables import format_table

    trace = load_trace(pathlib.Path(args.trace))   # JSON or binary, by magic
    meta = ", ".join(f"{k}={v}" for k, v in trace.meta.items())
    print(f"trace: {args.trace} ({meta})")
    print(format_table(profile_trace(trace).as_rows(), title="Profile"))
    print()
    print(format_table(
        [{"sharing class": k, "lines": v}
         for k, v in sharing_summary(trace).items()],
        title="Line sharing"))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.harness.report import generate_report

    exp = build_experiment(args)
    workloads = [w for w in args.workloads.split(",") if w]
    text = generate_report(exp, workloads, scale=args.scale)
    out = pathlib.Path(args.out)
    out.write_text(text)
    print(f"wrote {out} ({len(text.splitlines())} lines)")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from repro import validate as V

    golden_dir = pathlib.Path(args.golden_dir)
    if args.engines:
        report = V.check_engines(golden_dir)
        for line in report.summary_lines():
            print(line)
        return 0 if report.passed else 1

    if args.regen_golden:
        written = V.regen_golden(golden_dir)
        print(f"regenerated golden corpus: {len(written)} files in "
              f"{golden_dir}")
        for f in written:
            print(f"  {f.name}")
        return 0

    if args.repro:
        scenario = V.load_repro_scenario(pathlib.Path(args.repro))
        outcome = V.run_scenario(scenario, deep=args.deep)
        print(f"replayed repro {scenario.name}: "
              f"{'PASS' if outcome.passed else 'FAIL'}")
        for line in outcome.violations + outcome.envelope_breaches:
            print(f"  {line}")
        return 0 if outcome.passed else 1

    if args.faults == "matrix":
        # Error-vs-severity sweep per fault family on the reference
        # capture/target mismatch pair, gated on smooth degradation: the
        # catalogue's fault_matrix experiment at its schema defaults.
        from repro import exp as E

        out = E.run_experiment(
            E.resolve_config("fault_matrix",
                             {"fault_seed": args.fault_seed,
                              "gap_policy": args.gap_policy}),
            _runner(args))
        lines, passed = V.fault_matrix_verdict(out)
        # results[0] is the shared severity-0 point: the base scenario.
        print(f"fault matrix on {out.results[0].scenario.name} "
              f"(sc exec error by severity, policy={args.gap_policy}):")
        for line in lines:
            print(line)
        return 0 if passed else 1

    if args.smoke:
        scenarios = V.smoke_scenarios()
    else:
        workloads = (tuple(w for w in args.workloads.split(",") if w)
                     if args.workloads else V.SCENARIO_WORKLOADS)
        scenarios = V.generate_scenarios(args.n, args.seed,
                                         workloads=workloads)
    if args.faults or args.gap_policy != GAP_POLICY_NEIGHBOR or args.degrade:
        from dataclasses import replace as _replace
        faults = V.parse_fault_specs(args.faults) if args.faults else ()
        scenarios = [
            _replace(s, faults=faults, fault_seed=args.fault_seed,
                     gap_policy=args.gap_policy,
                     degrade=args.degrade or "",
                     degrade_intensity=args.degrade_intensity,
                     mitigation=args.mitigation)
            for s in scenarios
        ]
    repro_dir = pathlib.Path(args.repro_dir)
    report = V.run_differential(
        scenarios, runner=_runner(args), deep=args.deep,
        repro_dir=repro_dir, do_shrink=not args.no_shrink)
    for line in report.summary_lines():
        print(line)
    if not report.passed:
        print(f"repro files in {repro_dir}:")
        for path in report.repro_paths:
            print(f"  {path}")
        return 1

    if args.smoke or args.check_golden:
        failures = V.check_golden(golden_dir)
        if failures:
            print(f"golden corpus FAILED ({len(failures)}):")
            for f in failures:
                print(f"  {f}")
            return 1
        print(f"golden corpus ok ({len(V.GOLDEN_SCENARIOS)} scenarios, "
              f"{golden_dir})")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import DEFAULT_PORT, SimulationServer

    cache_dir = args.cache_dir
    if cache_dir is None and args.cache:
        cache_dir = default_cache_dir()
    port = args.port if args.port is not None else DEFAULT_PORT
    peers = [p for chunk in (args.peers or "").split(",")
             if (p := chunk.strip())]
    server = SimulationServer(
        host=args.host, port=port, workers=args.workers,
        max_pending=args.max_pending, job_timeout_s=args.timeout,
        cache_dir=str(cache_dir) if cache_dir else None, salt=args.salt,
        node_id=args.node_id, peers=peers, lru_entries=args.lru_entries)

    async def _run() -> None:
        await server.start()
        fabric = (f", fabric node {server.node_id} "
                  f"({len(server.membership.members)} members)"
                  if peers or args.node_id else "")
        print(f"repro.serve listening on {server.host}:{server.port} "
              f"({server.workers} workers, max {server.max_pending} pending, "
              f"cache {'on: ' + str(cache_dir) if cache_dir else 'off'}"
              f"{fabric})",
              flush=True)
        server.install_signal_handlers()
        await server.wait_closed()
        print("repro.serve drained and stopped", flush=True)

    asyncio.run(_run())
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    import json as _json

    from repro.harness.parallel import encode_value
    from repro.serve import DEFAULT_PORT, JobFailed, ServeClient, Shed

    port = args.port if args.port is not None else DEFAULT_PORT
    with ServeClient(host=args.host, port=port) as client:
        if args.ping:
            print(_json.dumps(client.ping(), indent=2, sort_keys=True))
            return 0
        if args.status:
            print(_json.dumps(client.status(), indent=2, sort_keys=True))
            return 0
        if args.list_jobs:
            print(_json.dumps(client.jobs(), indent=2, sort_keys=True))
            return 0
        if args.drain:
            print(_json.dumps(client.drain(), indent=2, sort_keys=True))
            return 0
        if not args.op:
            raise SystemExit("submit: an operation name is required "
                             "(or --ping/--status/--jobs/--drain)")

        def on_event(event: dict) -> None:
            if args.watch and event.get("event") not in ("done",):
                print(f"# {_json.dumps(event, sort_keys=True)}",
                      file=sys.stderr, flush=True)

        try:
            result = client.submit_json(
                args.op, args.params, quiet=not args.watch,
                timeout_s=args.timeout, on_event=on_event)
        except Shed as exc:
            print(f"shed: {exc.reason}", file=sys.stderr)
            return 75       # EX_TEMPFAIL: back off and resubmit
        except JobFailed as exc:
            # The original worker-side traceback, not a bare failed status.
            print(str(exc), file=sys.stderr)
            return 1
        print(_json.dumps(encode_value(result), indent=2, sort_keys=True))
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.harness.parallel import cache_clear, cache_info
    from repro.harness.tables import format_table

    cache_dir = args.dir or default_cache_dir()
    if args.clear:
        removed = cache_clear(cache_dir)
        print(f"cleared {removed} cached results from {cache_dir}")
        return 0
    info = cache_info(cache_dir)
    print(format_table([
        {"property": "directory", "value": info["dir"]},
        {"property": "entries", "value": info["entries"]},
        {"property": "size_kib", "value": info["bytes"] // 1024},
    ], title="Sweep result cache"))
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    snap = obs.load_metrics(args.file)
    print(obs.format_metrics(snap, title=f"metrics ({args.file})"))
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    from repro.harness.tables import config_rows, format_table

    print(format_table(config_rows(build_experiment(args)),
                       title="Table 1: Simulated system configuration"))
    return 0


def cmd_exp_list(args: argparse.Namespace) -> int:
    from repro import exp as E
    from repro.harness.tables import format_table

    rows = []
    for name in E.experiment_names():
        base = E.get_experiment(name)
        rows.append({
            "experiment": name,
            "parameters": len(base.schema.specs),
            # first sentence: a period, then whitespace and a capital
            # ("(Fig. 4)" is not a sentence end)
            "description": re.split(r"(?<=\.)\s+(?=[A-Z])",
                                    base.description)[0],
        })
    print(format_table(rows, title="Experiment catalog"))
    configs_root = pathlib.Path(args.configs)
    if not configs_root.is_dir():
        print(f"\n(no config directory {configs_root})")
        return 0
    crows = []
    for path in E.discover_configs(configs_root):
        try:
            cfg = E.resolve_config(path)
        except E.SchemaError as exc:
            crows.append({"config": str(path), "experiment": "ERROR",
                          "hash": "", "note": str(exc)[:60]})
            continue
        crows.append({"config": str(path), "experiment": cfg.experiment,
                      "hash": cfg.config_hash[:10], "note": ""})
    print()
    print(format_table(crows, title=f"Configs under {configs_root}"))
    return 0


def run_catalogue(args: argparse.Namespace, config: str,
                  overrides: dict) -> int:
    """Resolve ``config`` (a catalogue name or a config file) with
    ``overrides``, run it and print the catalogue's rows: the one function
    behind ``exp run`` and its legacy spellings."""
    from repro import exp as E
    from repro.harness.tables import format_table

    cfg = E.resolve_config(config, overrides)
    tasks = E.compile_config(cfg)
    print(f"{cfg.name}: experiment={cfg.experiment} "
          f"hash={cfg.config_hash[:10]} tasks={len(tasks)}")
    if args.dry_run:
        for t in tasks:
            print(f"  {t.fn}  key={t.cache_key()[:12]}")
        return 0

    if args.serve:
        from repro.serve import DEFAULT_PORT, ServeClient

        host, _, port = args.serve.partition(":")
        client = ServeClient(host=host or "127.0.0.1",
                             port=int(port) if port else DEFAULT_PORT)
        executor: object = E.ServeExecutor(client, timeout_s=args.timeout)
    else:
        client = None
        executor = _runner(args)
    try:
        out = E.run_experiment(cfg, executor,
                               archive_root=args.archive_root,
                               baseline_out=args.baseline_out)
    finally:
        if client is not None:
            client.close()
    print(format_table(out.rows, title=f"{cfg.name} ({cfg.experiment})"))
    if out.stats is not None:
        print(f"tasks: {out.stats.executed} executed, {out.stats.cached} "
              f"cached, {out.elapsed_s:.1f}s")
    if out.archive_dir is not None:
        print(f"archive: {out.archive_dir}")
    if args.baseline_out:
        print(f"baseline: {args.baseline_out}")
    return 0


def cmd_exp_run(args: argparse.Namespace) -> int:
    from repro.exp import parse_set_override

    return run_catalogue(args, args.config, parse_set_override(args.set or []))


def _alias(p: argparse.ArgumentParser, experiment: str, params) -> None:
    """Make subparser ``p`` a legacy spelling of ``exp run <experiment>``:
    ``params(args)`` maps its flags onto catalogue parameters; the
    ``exp run`` options it has no flag for stay at their defaults."""
    p.set_defaults(
        fn=lambda args: run_catalogue(
            args, experiment, {**_common_params(args), **params(args)}),
        jobs=1, cache_dir=None, cache=False, dry_run=False, serve=None,
        timeout=None, archive_root=None, baseline_out=None)


def cmd_exp_diff(args: argparse.Namespace) -> int:
    from repro import exp as E

    a = E.load_archive(args.a)
    b = E.load_archive(args.b)
    gate = None
    if args.tol is not None:
        base_gate = a.gate
        gate = E.GateSpec(args.tol, dict(base_gate.tolerances))
    report = E.diff_archives(a, b, gate=gate)
    print(E.format_diff(report, gated=args.gate))
    if args.gate and not report.gate_ok:
        return 1
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Self-Correction Trace Model ONOC simulator (IPDPSW'12 "
                    "reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capture", help="capture a dependency-annotated trace")
    _add_common(p)
    _add_obs_flags(p)
    p.add_argument("--workload", required=True)
    p.add_argument("--network", choices=("electrical", "optical"),
                   default="electrical")
    p.add_argument("--out", default="trace.json")
    p.add_argument("--format", choices=("json", "binary"), default="json",
                   help="trace file format (binary = chunked out-of-core "
                        "format, see docs/TRACE_FORMAT.md)")
    p.set_defaults(fn=cmd_capture)

    p = sub.add_parser("replay",
                       help="replay a trace file (JSON or binary) on a target")
    _add_common(p)
    _add_obs_flags(p)
    p.add_argument("--trace", required=True)
    p.add_argument("--target", choices=_NETWORK_CHOICES, default="crossbar")
    p.add_argument("--mode", choices=TRACE_MODES, default=TRACE_SELF_CORRECTING)
    p.add_argument("--engine", choices=REPLAY_ENGINES, default=ENGINE_EVENT,
                   help="replay implementation: reference event-driven, or "
                        "vectorized generational (optical targets only)")
    _add_degrade_flags(p)
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser("trace",
                       help="trace-file utilities (convert / info)")
    tsub = p.add_subparsers(dest="trace_op", required=True)
    tp = tsub.add_parser("convert",
                         help="convert a trace between JSON and binary")
    tp.add_argument("file", help="source trace file (format autodetected)")
    tp.add_argument("--to", choices=("json", "binary"), default=None,
                    help="target format (default: the other one)")
    tp.add_argument("--out", default=None,
                    help="output path (default: source with .json/.rtrc)")
    tp.set_defaults(fn=cmd_trace)
    tp = tsub.add_parser("info",
                         help="print header/summary without loading records")
    tp.add_argument("file", help="trace file (JSON or binary)")
    tp.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "synth",
        help="synthetic workload generator (generate / fit / describe)")
    ssub = p.add_subparsers(dest="synth_op", required=True)
    sp = ssub.add_parser(
        "generate",
        help="stream a synthetic trace into the binary container")
    sp.add_argument("--out", required=True, help="output .rtrc path")
    sp.add_argument("--profile", default=None,
                    help="profile JSON from 'repro synth fit' (default: a "
                         "built-in profile for --nodes/--messages)")
    sp.add_argument("--nodes", type=int, default=1024)
    sp.add_argument("--messages", type=int, default=100_000)
    sp.add_argument("--pattern", default="uniform")
    sp.add_argument("--scale", type=float, default=1.0,
                    help="message-count multiplier on the profile")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--chunk-records", type=int, default=None,
                    help="records per RECORDS chunk (default: the "
                         "container's standard chunk size)")
    sp.set_defaults(fn=cmd_synth)
    sp = ssub.add_parser(
        "fit", help="fit a generator profile to a captured trace")
    sp.add_argument("file", help="source trace (JSON or binary)")
    sp.add_argument("--out", default=None,
                    help="profile JSON path (default: <trace>.profile.json)")
    sp.add_argument("--pattern", default=None,
                    help="override the pattern heuristic with this "
                         "catalogue pattern")
    sp.set_defaults(fn=cmd_synth)
    sp = ssub.add_parser(
        "describe",
        help="describe a profile JSON or a trace's fidelity statistics")
    sp.add_argument("file", help="profile JSON, or a trace (JSON/binary)")
    sp.set_defaults(fn=cmd_synth)

    p = sub.add_parser("accuracy",
                       help="alias of `exp run accuracy` (Fig. 4)")
    _add_common(p)
    _add_obs_flags(p)
    _add_sweep_flags(p)
    p.add_argument("--workload", required=True,
                   help="kernel name, or comma-separated list")
    _alias(p, "accuracy", lambda a: {
        "workloads": [w for w in a.workload.split(",") if w],
        "scale": a.scale})

    p = sub.add_parser("casestudy",
                       help="alias of `exp run case_study` (Table 3)")
    _add_common(p)
    _add_obs_flags(p)
    p.add_argument("--workload", required=True)
    _alias(p, "case_study", lambda a: {
        "workloads": [a.workload], "scale": a.scale})

    p = sub.add_parser("sweep",
                       help="alias of `exp run load_latency` for one "
                            "network/pattern (Fig. 3)")
    _add_common(p)
    _add_obs_flags(p)
    _add_sweep_flags(p)
    p.add_argument("--pattern", choices=sorted(PATTERNS), default="uniform")
    p.add_argument("--network", choices=_NETWORK_CHOICES,
                   default="electrical")
    p.add_argument("--rates", default="0.02,0.05,0.1,0.2,0.3")
    _alias(p, "load_latency", lambda a: {
        "patterns": [a.pattern], "networks": [a.network],
        "labels": [a.network],
        "rates": [float(r) for r in a.rates.split(",")]})

    p = sub.add_parser(
        "validate",
        help="differential validation: randomized scenarios, invariants, "
             "golden corpus (see docs/VALIDATION.md)")
    _add_obs_flags(p)
    _add_sweep_flags(p)
    p.add_argument("--smoke", action="store_true",
                   help="fixed cheap scenario tier + golden corpus check "
                        "(the CI gate)")
    p.add_argument("--n", type=int, default=12,
                   help="randomized scenario count (ignored with --smoke)")
    p.add_argument("--seed", type=int, default=7,
                   help="scenario-generation seed (report is deterministic "
                        "in it, for any --jobs)")
    p.add_argument("--deep", action="store_true",
                   help="add metamorphic checks (self-consistency + "
                        "gap-scaling); ~4x replay cost")
    p.add_argument("--workloads", default=None, metavar="W1,W2,...",
                   help="comma-separated workload pool for random scenarios "
                        "(default: the cheap five; the nightly tier adds "
                        "lu,cholesky,randshare)")
    p.add_argument("--no-shrink", action="store_true",
                   help="report failures without minimizing them")
    p.add_argument("--repro-dir", default="validate-repros",
                   help="where failing-scenario repro JSONs are written")
    p.add_argument("--repro", default=None, metavar="FILE",
                   help="re-run one repro JSON written by a previous failure")
    p.add_argument("--golden-dir", default="tests/golden",
                   help="golden corpus location")
    p.add_argument("--check-golden", action="store_true",
                   help="also verify the golden corpus (implied by --smoke)")
    p.add_argument("--regen-golden", action="store_true",
                   help="regenerate the golden corpus and exit")
    p.add_argument("--faults", default=None, metavar="SPEC",
                   help="inject trace faults into every scenario, e.g. "
                        "'drop_deps:0.3,jitter:8'; the special value "
                        "'matrix' runs the per-family severity sweep with "
                        "the smooth-degradation gate instead")
    p.add_argument("--fault-seed", type=int, default=777,
                   help="seed for fault-injection decisions")
    p.add_argument("--gap-policy", default=GAP_POLICY_NEIGHBOR,
                   choices=GAP_POLICIES,
                   help="degraded-gap policy for self-correcting replays "
                        "(default neighbor_gap)")
    p.add_argument("--engines", action="store_true",
                   help="run the generational-vs-event engine differential "
                        "on the golden corpus (all backends x both gap "
                        "policies x fault slice + degraded cells + "
                        "binary/JSON identity) and exit")
    _add_degrade_flags(p, spec_only=True)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser(
        "serve",
        help="run the resident simulation service (NDJSON TCP + HTTP "
             "healthz/metrics/jobs; see docs/SERVING.md)")
    _add_obs_flags(p)
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1; the protocol is "
                        "for trusted clients only)")
    p.add_argument("--port", type=int, default=None,
                   help="TCP port (default 7433; 0 = ephemeral)")
    p.add_argument("--workers", type=int, default=2,
                   help="simulation worker processes (default 2)")
    p.add_argument("--max-pending", type=int, default=32,
                   help="admission-control cap on queued+running jobs; "
                        "submits beyond it are shed (default 32)")
    p.add_argument("--timeout", type=float, default=None,
                   help="default per-job deadline in seconds (none by "
                        "default; requests may set their own)")
    p.add_argument("--cache-dir", default=None,
                   help="result-cache directory shared with sweep runs")
    p.add_argument("--cache", action="store_true",
                   help="cache under the default location or $REPRO_CACHE_DIR")
    p.add_argument("--salt", default="",
                   help="extra cache-key salt (matches SweepRunner's)")
    p.add_argument("--peers", default="",
                   help="comma-separated host:port list of fabric peers; "
                        "this node announces itself to them and joins the "
                        "consistent-hash ring (see docs/SERVING.md)")
    p.add_argument("--node-id", default=None,
                   help="stable fabric node id (default: host:port)")
    p.add_argument("--lru-entries", type=int, default=1024,
                   help="hot in-memory result-cache entries (default 1024)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "submit",
        help="submit one job to a running service and print its result")
    p.add_argument("op", nargs="?", default=None,
                   help="operation alias (echo, scenario_json, accuracy_json, "
                        "casestudy, resolve_config, ...)")
    p.add_argument("--params", default="",
                   help="JSON object of keyword parameters for the operation")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None,
                   help="service port (default 7433)")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-job deadline in seconds")
    p.add_argument("--watch", action="store_true",
                   help="stream progress events to stderr while waiting")
    p.add_argument("--ping", action="store_true", help="liveness probe")
    p.add_argument("--status", action="store_true",
                   help="print service status and counters")
    p.add_argument("--jobs", dest="list_jobs", action="store_true",
                   help="list active + recent jobs")
    p.add_argument("--drain", action="store_true",
                   help="ask the service to drain and shut down")
    p.set_defaults(fn=cmd_submit)

    p = sub.add_parser("cache", help="inspect or clear the sweep result cache")
    _add_obs_flags(p)
    p.add_argument("--dir", default=None,
                   help="cache directory (default: the standard location)")
    p.add_argument("--clear", action="store_true", help="delete all entries")
    p.set_defaults(fn=cmd_cache)

    p = sub.add_parser("metrics",
                       help="pretty-print a metrics JSON dump "
                            "(written with --metrics-out)")
    p.add_argument("file", help="metrics JSON file")
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser("info", help="print the resolved configuration (Table 1)")
    _add_common(p)
    _add_obs_flags(p)
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("analyze",
                       help="profile a captured trace (structure + sharing)")
    _add_obs_flags(p)
    p.add_argument("--trace", required=True)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("report",
                       help="run the evaluation and write a markdown report")
    _add_common(p)
    _add_obs_flags(p)
    p.add_argument("--workloads", default="fft,lu,randshare",
                   help="comma-separated kernel list")
    p.add_argument("--out", default="report.md")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser(
        "exp",
        help="declarative experiments: list / run / diff "
             "(see docs/EXPERIMENTS_LAYER.md)")
    esub = p.add_subparsers(dest="exp_op", required=True)

    ep = esub.add_parser("list",
                         help="list the experiment catalog and the configs "
                              "found under --configs")
    ep.add_argument("--configs", default="benchmarks/experiments",
                    help="config directory to scan "
                         "(default benchmarks/experiments)")
    ep.set_defaults(fn=cmd_exp_list)

    ep = esub.add_parser(
        "run",
        help="run one catalogue experiment or YAML/JSON config and "
             "archive the outcome")
    _add_obs_flags(ep)
    _add_sweep_flags(ep)
    ep.add_argument("config",
                    help="catalogue experiment name (schema defaults) or "
                         "config file (.yaml/.yml/.json)")
    ep.add_argument("--set", action="append", metavar="KEY=VALUE",
                    help="override one parameter (JSON-parsed value; "
                         "repeatable)")
    ep.add_argument("--archive-root", default=None, metavar="DIR",
                    help="write a provenance archive directory under DIR")
    ep.add_argument("--baseline-out", default=None, metavar="FILE",
                    help="also write the manifest alone to FILE (the "
                         "checked-in-baseline format)")
    ep.add_argument("--serve", default=None, metavar="HOST:PORT",
                    help="submit the compiled tasks to a repro.serve node "
                         "instead of running locally")
    ep.add_argument("--timeout", type=float, default=None,
                    help="per-task deadline when using --serve")
    ep.add_argument("--dry-run", action="store_true",
                    help="print the compiled task list and exit")
    ep.set_defaults(fn=cmd_exp_run)

    ep = esub.add_parser(
        "diff",
        help="diff two archives (or baseline manifests): parameter deltas "
             "+ per-metric relative change")
    ep.add_argument("a", help="reference archive dir or baseline file")
    ep.add_argument("b", help="candidate archive dir or baseline file")
    ep.add_argument("--gate", action="store_true",
                    help="apply the tolerance policy and exit non-zero on "
                         "any out-of-tolerance metric")
    ep.add_argument("--tol", type=float, default=None, metavar="PCT",
                    help="override the default tolerance (percent) while "
                         "keeping per-metric glob rules")
    ep.set_defaults(fn=cmd_exp_diff)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    want_metrics = getattr(args, "metrics", False)
    metrics_out = getattr(args, "metrics_out", None)
    trace_out = getattr(args, "trace_out", None)
    if not (want_metrics or metrics_out or trace_out):
        return args.fn(args)

    # Instrumentation must be live before any simulator/network is built —
    # components bind their probes at construction time (see repro.obs).
    was_enabled = obs.enabled()
    obs.reset()
    obs.enable(True)
    tl = obs.enable_timeline() if trace_out else None
    try:
        rc = args.fn(args)
        snapshot = obs.registry().snapshot()
        if want_metrics:
            print()
            print(obs.format_metrics(snapshot))
        if metrics_out:
            path = obs.dump_metrics(metrics_out, snapshot)
            print(f"wrote metrics -> {path}")
        if tl is not None:
            path = tl.write_chrome_trace(trace_out)
            print(f"wrote chrome trace -> {path} "
                  f"({len(tl)} events, {tl.dropped} dropped)")
        return rc
    finally:
        obs.disable_timeline()
        obs.enable(was_enabled)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
