"""Simulator-integrated probes: the glue between components and the registry.

Components never touch the registry directly on their hot paths.  Instead,
at construction time they ask for a probe object; when instrumentation is
disabled (the default) the factory returns ``None`` and the component's
fast path pays exactly one ``is not None`` check per call site — the
kernel's run loop included: it is the same loop with or without a probe.

Probe catalogue (metric names as they appear in ``repro metrics`` output):

``kernel.*``
    ``events_fired``/``cycles`` counters,
    ``heap_high_water`` gauge, ``run_wall_s`` and ``events_per_wall_s``
    distributions — published by :class:`KernelProbe` after every
    :meth:`repro.engine.Simulator.run`.
``net.<kind>.*``
    ``injected``/``delivered``/``bytes_delivered`` counters and a
    ``latency`` distribution — published by :class:`NetProbe` from every
    network adapter (``net.electrical``, ``net.crossbar``, ...).
``replay.<mode>.*``
    correction/stall counters promoted out of ``ReplayResult.extra`` —
    published by the replayers via :func:`replay_scope`.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.obs.registry import Scope
from repro.obs.timeline import Timeline


class KernelProbe:
    """Accumulates event-kernel statistics across one simulator's runs.

    With a probe attached, :meth:`repro.engine.Simulator.run` tracks events
    fired, the heap high-water mark, and wall time for each ``run()`` call,
    then reports them here exactly once — also when the run stops early at
    ``until`` or a callback raises; the probe folds them into its
    own totals and, when built against a scope, the metrics registry.
    """

    __slots__ = (
        "scope",
        "events_fired",
        "heap_high_water",
        "wall_s",
        "cycles",
        "runs",
    )

    def __init__(self, scope: Optional[Scope] = None) -> None:
        self.scope = scope
        self.events_fired = 0
        self.heap_high_water = 0
        self.wall_s = 0.0
        self.cycles = 0
        self.runs = 0

    def record_run(
        self,
        events: int,
        heap_high_water: int,
        wall_s: float,
        cycles: int,
    ) -> None:
        """Fold one completed ``run()`` into the totals (and the registry)."""
        self.events_fired += events
        self.heap_high_water = max(self.heap_high_water, heap_high_water)
        self.wall_s += wall_s
        self.cycles += cycles
        self.runs += 1
        scope = self.scope
        if scope is not None:
            scope.counter("events_fired").inc(events)
            scope.counter("cycles").inc(cycles)
            scope.gauge("heap_high_water").set_max(heap_high_water)
            scope.distribution("run_wall_s").observe(wall_s)
            if wall_s > 0:
                scope.distribution("events_per_wall_s").observe(events / wall_s)

    @property
    def events_per_wall_s(self) -> float:
        """Aggregate event throughput over every recorded run."""
        return self.events_fired / self.wall_s if self.wall_s > 0 else 0.0


def attach_kernel_probe(sim, name: str = "kernel") -> Optional[KernelProbe]:
    """Attach a registry-backed :class:`KernelProbe` to ``sim``.

    Returns ``None`` (and attaches nothing) when instrumentation is
    disabled.
    """
    from repro import obs

    if not obs.enabled():
        return None
    probe = KernelProbe(obs.metrics(name))
    sim.attach_probe(probe)
    return probe


class NetProbe:
    """Injection/ejection/latency instrumentation for one network adapter.

    Metric objects are bound once at construction, so the enabled per-
    message cost is two attribute increments and one distribution sample.
    """

    __slots__ = (
        "kind",
        "injected",
        "delivered",
        "bytes_delivered",
        "latency",
        "timeline",
    )

    def __init__(self, kind: str, scope: Scope, timeline: Optional[Timeline]) -> None:
        self.kind = kind
        self.injected = scope.counter("injected")
        self.delivered = scope.counter("delivered")
        self.bytes_delivered = scope.counter("bytes_delivered")
        self.latency = scope.distribution("latency")
        self.timeline = timeline

    def on_inject(self, time: int, msg) -> None:
        """Record one message entering the network."""
        self.injected.inc()
        tl = self.timeline
        if tl is not None:
            tl.record(time, f"node{msg.src}", f"{self.kind}.inject")

    def on_deliver(self, time: int, msg) -> None:
        """Record one message leaving the network."""
        self.delivered.inc()
        self.bytes_delivered.inc(msg.size_bytes)
        self.latency.observe(time - msg.inject_time)
        tl = self.timeline
        if tl is not None:
            tl.record(time, f"node{msg.dst}", f"{self.kind}.deliver")


def net_probe(kind: str) -> Optional[NetProbe]:
    """A :class:`NetProbe` under ``net.<kind>``, or ``None`` when disabled."""
    from repro import obs

    if not obs.enabled():
        return None
    return NetProbe(kind, obs.metrics(f"net.{kind}"), obs.timeline())


def replay_scope(mode: str) -> Optional[Scope]:
    """The ``replay.<mode>`` scope, or ``None`` when disabled."""
    from repro import obs

    if not obs.enabled():
        return None
    return obs.metrics(f"replay.{mode}")


def timeline_or_none() -> Optional[Timeline]:
    """The active timeline, or ``None`` when tracing is off."""
    from repro import obs

    return obs.timeline() if obs.enabled() else None


Probe = Union[KernelProbe, NetProbe]
