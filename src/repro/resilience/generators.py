"""Seeded degradation-family generators.

Three physically motivated families, each a pure function of
``(seed, intensity, horizon, num_nodes, ...)`` — no sequential RNG state,
the same splitmix64 per-decision hashing discipline as the trace-fault
layer (:mod:`repro.validate.faults`), so a generated timeseries is
reproducible across platforms and insensitive to generation order:

``thermal_drift``      microring thermal drift: per-node severity *ramps*
                       — a node's resonance walks off its channel grid
                       over time, degrading its modulator/detector banks.
``laser_droop``        shared-laser power droop: one *global* ramp with
                       seeded step times (ageing + slow thermal drift of
                       the comb source degrades every channel's margin).
``corruption_bursts``  transient link corruption: short on/off bursts of
                       high severity on individual directed links (e.g.
                       crosstalk or a marginal drop filter), each burst
                       closed by an explicit severity-0 restore event.

**Monotonicity contract** (pinned by tests): for a fixed seed and shape,
every per-event severity is non-decreasing in ``intensity``, so sweeping
intensity sweeps degradation monotonically.
"""

from __future__ import annotations

from repro.engine.rng import mix64, unit
from repro.resilience.timeseries import FaultEvent, FaultTimeseries


def _check_args(seed: int, num_nodes: int, horizon: int,
                intensity: float) -> None:
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if num_nodes < 2:
        raise ValueError(f"num_nodes must be >= 2, got {num_nodes}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if not (0.0 <= intensity <= 1.0):
        raise ValueError(f"intensity must be in [0, 1], got {intensity}")


def thermal_drift(seed: int, num_nodes: int, horizon: int,
                  intensity: float = 0.5, steps: int = 4,
                  affected_fraction: float = 0.5) -> FaultTimeseries:
    """Per-node thermal drift ramps.

    A seeded subset of nodes (``affected_fraction``) each get a ``steps``
    step ramp from 0 toward a node-specific peak severity ``<= intensity``,
    with seeded start/spacing so ramps are staggered across the horizon.
    """
    _check_args(seed, num_nodes, horizon, intensity)
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    events: list[FaultEvent] = []
    for node in range(num_nodes):
        if unit(seed, "thermal.pick", node) >= affected_fraction:
            continue
        peak = intensity * (0.5 + 0.5 * unit(seed, "thermal.peak", node))
        start = int(unit(seed, "thermal.start", node) * horizon * 0.5)
        span = max(steps, int(horizon * (0.25 + 0.5 * unit(
            seed, "thermal.span", node))))
        for k in range(1, steps + 1):
            t = min(horizon, start + (span * k) // steps)
            events.append(FaultEvent(t, f"node:{node}", peak * k / steps))
    return FaultTimeseries(_dedup_last(events))


def laser_droop(seed: int, num_nodes: int, horizon: int,
                intensity: float = 0.5, steps: int = 6) -> FaultTimeseries:
    """Global laser power droop: a single concave ramp on ``global``."""
    _check_args(seed, num_nodes, horizon, intensity)
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    events: list[FaultEvent] = []
    start = int(unit(seed, "droop.start") * horizon * 0.25)
    for k in range(1, steps + 1):
        frac = k / steps
        # Concave in time (droop decelerates), linear in intensity.
        sev = intensity * (1.0 - (1.0 - frac) ** 2)
        t = min(horizon, start + ((horizon - start) * k) // steps)
        events.append(FaultEvent(t, "global", sev))
    return FaultTimeseries(_dedup_last(events))


def corruption_bursts(seed: int, num_nodes: int, horizon: int,
                      intensity: float = 0.5,
                      bursts: int = 4) -> FaultTimeseries:
    """Transient link corruption bursts: on/off square pulses.

    Each burst picks a seeded directed link, a start time, and a duration
    (5–20% of the horizon); severity during the burst is high
    (``0.5 + 0.5 * intensity`` scaled by a per-burst draw) and an explicit
    severity-0 event restores the link afterwards.
    """
    _check_args(seed, num_nodes, horizon, intensity)
    if bursts < 1:
        raise ValueError(f"bursts must be >= 1, got {bursts}")
    events: list[FaultEvent] = []
    for b in range(bursts):
        src = mix64(seed, "burst.src", b) % num_nodes
        dst = mix64(seed, "burst.dst", b) % (num_nodes - 1)
        if dst >= src:
            dst += 1
        start = int(unit(seed, "burst.start", b) * horizon * 0.8)
        dur = max(1, int(horizon * (0.05 + 0.15 * unit(seed, "burst.dur", b))))
        sev = intensity * (0.6 + 0.4 * unit(seed, "burst.sev", b))
        target = f"link:{src}-{dst}"
        events.append(FaultEvent(start, target, sev))
        events.append(FaultEvent(min(horizon, start + dur), target, 0.0))
    return FaultTimeseries(_dedup_last(events))


def _dedup_last(events: list[FaultEvent]) -> list[FaultEvent]:
    """Collapse same-(time, target) collisions, last writer wins.

    Generators draw times independently, so collisions are possible (two
    ramp steps rounding to the same cycle); the step-function semantics
    make keeping the later-generated value the right resolution.
    """
    out: dict[tuple[int, str], FaultEvent] = {}
    for e in events:
        out[(e.time, e.target)] = e
    return list(out.values())


GENERATOR_FAMILIES = {
    "thermal_drift": thermal_drift,
    "laser_droop": laser_droop,
    "corruption_bursts": corruption_bursts,
}


def generate_timeseries(family: str, seed: int, num_nodes: int,
                        horizon: int, intensity: float = 0.5,
                        **kwargs) -> FaultTimeseries:
    """Dispatch to a named generator family.

    ``family`` may also be a ``+``-joined combination
    (``"thermal_drift+laser_droop"``): the member timeseries are generated
    with per-family derived seeds and merged.
    """
    names = family.split("+")
    series = FaultTimeseries()
    for name in names:
        fn = GENERATOR_FAMILIES.get(name)
        if fn is None:
            raise ValueError(
                f"unknown degradation family {name!r}; expected one of "
                f"{sorted(GENERATOR_FAMILIES)} (optionally '+'-joined)")
        sub_seed = seed if len(names) == 1 else mix64(seed, "family", name)
        series = series.merged(
            fn(sub_seed, num_nodes, horizon, intensity, **kwargs))
    return series


def timeseries_for_trace(family: str, trace, seed: int, num_nodes: int,
                         intensity: float = 0.5) -> FaultTimeseries:
    """:func:`generate_timeseries` with the horizon tied to ``trace``'s
    injection span, so a (families, seed, nodes, intensity) spec always
    gives the same trace the same fabric weather.  The span is read off the
    columns the replay builds anyway, so a container-loaded trace builds no
    records here."""
    # Imported here: the CLI's flag parser loads this module for its
    # family names and must not load the replay core.
    from repro.core.plan import Columns

    t_inject = Columns.of(trace).t_inject
    horizon = int(t_inject.max()) if len(t_inject) else 1
    return generate_timeseries(family, seed=seed, num_nodes=num_nodes,
                               horizon=max(1, horizon), intensity=intensity)
