"""Declarative experiment layer: configs, archives, diffs.

The batch front end of the repository.  A YAML/JSON config names a base
experiment from the catalog and overrides its typed parameters (optionally
extending another config); it compiles to the same content-addressed
:class:`~repro.harness.SweepTask` list the hand-written benches build, runs
through a :class:`~repro.harness.SweepRunner` or a ``repro.serve`` node,
and leaves behind a provenance archive that ``repro exp diff`` can compare
— and gate — against any other run.

    from repro.exp import resolve_config, run_experiment
    from repro.harness import SweepRunner

    cfg = resolve_config("benchmarks/experiments/fig4_accuracy.yaml")
    out = run_experiment(cfg, SweepRunner(workers=4), archive_root="runs")
"""

from repro import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "ARCHIVE_SCHEMA": "repro.exp.archive",
        "Archive": "repro.exp.archive",
        "ArchiveError": "repro.exp.archive",
        "load_archive": "repro.exp.archive",
        "load_rows": "repro.exp.archive",
        "provenance": "repro.exp.archive",
        "write_archive": "repro.exp.archive",
        "write_baseline": "repro.exp.archive",
        "ALL_WORKLOADS": "repro.exp.catalog",
        "BaseExperiment": "repro.exp.catalog",
        "experiment_names": "repro.exp.catalog",
        "get_experiment": "repro.exp.catalog",
        "metrics_from_rows": "repro.exp.catalog",
        "ConfigFileError": "repro.exp.config",
        "GateSpec": "repro.exp.config",
        "ResolvedConfig": "repro.exp.config",
        "config_hash": "repro.exp.config",
        "discover_configs": "repro.exp.config",
        "load_config_file": "repro.exp.config",
        "parse_set_override": "repro.exp.config",
        "resolve_config": "repro.exp.config",
        "DiffReport": "repro.exp.diff",
        "MetricDelta": "repro.exp.diff",
        "ParamDelta": "repro.exp.diff",
        "diff_archives": "repro.exp.diff",
        "format_diff": "repro.exp.diff",
        "RunOutcome": "repro.exp.runner",
        "ServeExecutor": "repro.exp.runner",
        "compile_config": "repro.exp.runner",
        "run_experiment": "repro.exp.runner",
        "ParamSchema": "repro.exp.schema",
        "ParamSpec": "repro.exp.schema",
        "SchemaError": "repro.exp.schema",
        "specs": "repro.exp.schema",
    },
)

__all__ = [
    "ALL_WORKLOADS",
    "ARCHIVE_SCHEMA",
    "Archive",
    "ArchiveError",
    "BaseExperiment",
    "ConfigFileError",
    "DiffReport",
    "GateSpec",
    "MetricDelta",
    "ParamDelta",
    "ParamSchema",
    "ParamSpec",
    "ResolvedConfig",
    "RunOutcome",
    "SchemaError",
    "ServeExecutor",
    "compile_config",
    "config_hash",
    "diff_archives",
    "discover_configs",
    "experiment_names",
    "format_diff",
    "get_experiment",
    "load_archive",
    "load_config_file",
    "load_rows",
    "metrics_from_rows",
    "parse_set_override",
    "provenance",
    "resolve_config",
    "run_experiment",
    "write_archive",
    "write_baseline",
]
