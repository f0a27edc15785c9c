"""``repro.obs`` — unified instrumentation: counters, timelines, probes.

One observability substrate for the whole simulator, replacing the ad-hoc
spots measurements used to live in (per-link dicts on the network, replay
diagnostics in ``ReplayResult.extra``, throughput only in the benchmark
harness).  Three layers:

* a process-global :class:`~repro.obs.registry.Registry` of named
  counters/gauges/distributions, obtained via :func:`metrics`;
* probe factories (:mod:`repro.obs.probes`) that components call at
  construction time — they return ``None`` while instrumentation is
  disabled, so hot paths pay one ``is not None`` branch and nothing else;
* an opt-in :class:`~repro.obs.timeline.Timeline` ring buffer with
  Chrome-trace export for visual debugging.

**Disabled by default.**  :func:`enable` must be called *before* building
simulators/networks (components bind their probes in ``__init__``); the
CLI's ``--metrics``/``--trace-out`` flags and the sweep runner do this for
you.  See ``docs/OBSERVABILITY.md`` for the probe catalogue and workflow.

Parallel sweeps: worker processes fill private registries whose snapshots
are merged deterministically (submission order) by
:class:`repro.harness.parallel.SweepRunner`, so ``--jobs 1`` and
``--jobs N`` produce identical merged metrics.  A snapshot is stored beside
the cached result, never in its key: observing a run cannot change which
run you get.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Union

from repro.obs.registry import (
    NULL_SCOPE,
    Counter,
    Distribution,
    Gauge,
    NullScope,
    Registry,
    Scope,
)
from repro.obs.timeline import DEFAULT_CAPACITY, Timeline
from repro.obs.probes import (
    KernelProbe,
    NetProbe,
    attach_kernel_probe,
    net_probe,
    replay_scope,
)
from repro.obs.report import dump_metrics, format_metrics, load_metrics

__all__ = [
    "Counter",
    "Distribution",
    "Gauge",
    "KernelProbe",
    "NetProbe",
    "NullScope",
    "Registry",
    "Scope",
    "Timeline",
    "attach_kernel_probe",
    "collecting",
    "disable",
    "disable_timeline",
    "dump_metrics",
    "enable",
    "enable_timeline",
    "enabled",
    "format_metrics",
    "load_metrics",
    "metrics",
    "net_probe",
    "registry",
    "replay_scope",
    "reset",
    "timeline",
    "use_registry",
]

# --------------------------------------------------------------------------
# Process-global state.  The simulator is single-threaded by design; worker
# processes get a fresh copy of this module and manage their own state.
# --------------------------------------------------------------------------

_enabled: bool = False
_registry: Registry = Registry()
_timeline: Optional[Timeline] = None


def enable(on: bool = True) -> None:
    """Turn instrumentation on (or off with ``on=False``).

    Must run before simulators/networks are built: components bind their
    probes at construction time and keep the disabled fast path otherwise.
    """
    global _enabled
    _enabled = on


def disable() -> None:
    """Turn instrumentation off (new components bind the no-op path)."""
    enable(False)


def enabled() -> bool:
    """Whether instrumentation is currently on."""
    return _enabled


def registry() -> Registry:
    """The active (process-global) metrics registry."""
    return _registry


def metrics(name: str) -> Union[Scope, NullScope]:
    """A named scope on the active registry (``metrics("net.mesh")``).

    While instrumentation is disabled this returns a shared no-op scope,
    so call sites never need their own enabled/disabled branches.
    """
    if not _enabled:
        return NULL_SCOPE
    return Scope(_registry, name)


def timeline() -> Optional[Timeline]:
    """The active timeline, or ``None`` when tracing is off."""
    return _timeline


def enable_timeline(capacity: int = DEFAULT_CAPACITY) -> Timeline:
    """Start (or restart) timeline tracing; implies :func:`enable`."""
    global _timeline
    enable(True)
    _timeline = Timeline(capacity)
    return _timeline


def disable_timeline() -> None:
    """Stop timeline tracing (counters keep their enabled/disabled state)."""
    global _timeline
    _timeline = None


def reset() -> None:
    """Clear all recorded data (registry and timeline); keeps the enabled
    flag, so a fresh CLI command starts from empty metrics."""
    global _timeline
    _registry.clear()
    if _timeline is not None:
        _timeline = Timeline(_timeline.capacity)


@contextmanager
def use_registry(reg: Registry) -> Iterator[Registry]:
    """Temporarily swap the global registry (sweep-worker isolation).

    The sweep runner executes each task under a private registry so the
    task's metrics can be snapshotted, cached, and merged deterministically
    without contaminating (or being contaminated by) ambient state.
    """
    global _registry
    prev = _registry
    _registry = reg
    try:
        yield reg
    finally:
        _registry = prev


@contextmanager
def collecting(capacity: Optional[int] = None) -> Iterator[Registry]:
    """Enable instrumentation for a ``with`` block on a fresh registry.

    Yields the registry; restores the previous enabled flag, registry, and
    timeline on exit.  Convenience for tests and notebook use.
    """
    global _enabled, _timeline
    prev_enabled, prev_timeline = _enabled, _timeline
    reg = Registry()
    _enabled = True
    if capacity is not None:
        _timeline = Timeline(capacity)
    try:
        with use_registry(reg):
            yield reg
    finally:
        _enabled = prev_enabled
        _timeline = prev_timeline

