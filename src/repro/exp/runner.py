"""Execute a resolved experiment config and archive the outcome.

``run_experiment`` is the one sequencing point of the layer::

    resolved config --compile--> SweepTask list --executor--> results
        --tabulate--> (rows, metrics) --write_archive--> archive dir

The executor is anything with ``run(tasks) -> results`` in submission
order: a :class:`repro.harness.SweepRunner` (local, cached, optionally
multi-process) or a :class:`ServeExecutor` (the same tasks submitted to a
resident ``repro.serve`` node — unchanged, since the node's operation
registry whitelists the experiment functions' dotted references).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Protocol, Union

from repro import obs
from repro.exp.archive import (
    Archive,
    archive_dir_name,
    build_manifest,
    load_archive,
    write_archive,
    write_baseline,
)
from repro.exp.catalog import BaseExperiment, get_experiment
from repro.exp.config import ResolvedConfig
from repro.harness.parallel import (
    SweepStats,
    SweepTask,
    decode_task_call,
    encode_value,
)
from repro.harness.tables import format_table


class Executor(Protocol):
    def run(self, tasks: list[SweepTask]) -> list[Any]: ...


class ServeExecutor:
    """Submit compiled tasks, unchanged, to a ``repro.serve`` node.

    Each task decodes back into its ``(dotted_ref, args, kwargs)`` call and
    goes through :meth:`ServeClient.submit`; the node executes (or recalls
    from the shared content-addressed cache) and returns the result.  Tasks
    run one at a time from this client — concurrency is the node's job, and
    submission order must be preserved for tabulation.
    """

    def __init__(self, client: Any, timeout_s: Optional[float] = None) -> None:
        self.client = client
        self.timeout_s = timeout_s
        self.last_stats = SweepStats()
        self.last_metrics: Optional[dict] = None

    def run(self, tasks: list[SweepTask]) -> list[Any]:
        results = []
        stats = SweepStats()
        for t in tasks:
            fn, args, kwargs = decode_task_call(t)
            results.append(
                self.client.submit(fn, *args, timeout_s=self.timeout_s, **kwargs)
            )
            stats.executed += 1
        self.last_stats = stats
        self.last_metrics = None
        return results


@dataclass(frozen=True)
class RunOutcome:
    """Everything a caller may want after a run."""

    resolved: ResolvedConfig
    rows: list[dict]
    metrics: dict[str, float]
    results: list[Any] = field(repr=False)
    archive_dir: Optional[Path] = None
    stats: Optional[SweepStats] = None
    elapsed_s: float = 0.0

    @property
    def archive(self) -> Archive:
        if self.archive_dir is None:
            raise ValueError("run was not archived")
        return load_archive(self.archive_dir)


def compile_config(resolved: ResolvedConfig) -> list[SweepTask]:
    """The config's task list (also the dry-run surface)."""
    base = get_experiment(resolved.experiment)
    return base.compile(resolved.parameters)


def run_experiment(
    resolved: ResolvedConfig,
    executor: Executor,
    archive_root: Union[None, str, Path] = None,
    baseline_out: Union[None, str, Path] = None,
) -> RunOutcome:
    """Compile, execute, tabulate, and (optionally) archive.

    With ``archive_root`` set, a timestamped archive directory is written
    under it; ``baseline_out`` additionally writes the manifest alone to a
    standalone file (the checked-in-baseline format).
    """
    base: BaseExperiment = get_experiment(resolved.experiment)
    tasks = base.compile(resolved.parameters)
    t0 = time.perf_counter()
    results = executor.run(tasks)
    elapsed = time.perf_counter() - t0
    rows, metrics = base.tabulate(resolved.parameters, results)

    stats = getattr(executor, "last_stats", None)
    obs_snapshot = getattr(executor, "last_metrics", None)
    if obs_snapshot is None and obs.enabled():
        obs_snapshot = obs.registry().snapshot()

    archive_dir: Optional[Path] = None
    created = time.time()
    sweep_stats = (
        {"executed": stats.executed, "cached": stats.cached}
        if stats is not None
        else {}
    )
    if archive_root is not None or baseline_out is not None:
        table_text = format_table(
            rows, title=f"{resolved.name} ({resolved.experiment})"
        )
        from repro.harness.report import provenance_footer

        table_text += "\n\n" + provenance_footer()
        if archive_root is not None:
            archive_dir = Path(archive_root) / archive_dir_name(
                resolved, created
            )
            write_archive(
                archive_dir,
                resolved,
                rows,
                metrics,
                raw_encoded=encode_value(results),
                table_text=table_text,
                obs_snapshot=obs_snapshot,
                sweep_stats=sweep_stats,
                created=created,
            )
        if baseline_out is not None:
            write_baseline(
                baseline_out,
                build_manifest(
                    resolved, metrics, obs_snapshot, sweep_stats, created
                ),
            )

    return RunOutcome(
        resolved=resolved,
        rows=rows,
        metrics=metrics,
        results=results,
        archive_dir=archive_dir,
        stats=stats,
        elapsed_s=elapsed,
    )
