"""The degradation overlay: epoch-indexed integer penalty tables.

:class:`DegradationOverlay` is the one artifact both replay engines share.
Building it from a fault timeseries precomputes, for every degradation
*epoch* (the half-open interval between consecutive event times) and every
directed (src, dst) pair, four small integer tables:

``level_pm``    raw degradation level (per mille) — metrics/diversity only
``stretch_pm``  serialization stretch level after mitigation
``echo_pm``     extra serialization (per mille of ``ser``) — the
                ``disable`` policy's store-and-forward retransmission
``occ_add``     flat occupancy add (``reallocate``'s ring re-tune cycles)
``lat_add``     flat delivery-latency add (``disable``'s detour
                propagation + extra conversion pair)

The per-message effect is then a pure integer function of
``(epoch(inject_time), src, dst, ser)``, written once
(:meth:`DegradationOverlay.price`) with operators that take Python ints
and int64 arrays alike::

    occ_extra = ceil(ser*1000 / (1000 - stretch)) - ser     # bandwidth loss
              + ceil(ser * echo / 1000)                     # retransmission
              + occ_add                                     # re-tuning
    lat_extra = lat_add                                     # detour flight

``occ_extra`` extends how long the message *holds its serving resource*
(token channel, source channel, λ-lane) so degradation cascades
contention onto healthy traffic; ``lat_extra`` only delays the delivery.

Neither engine names the overlay.  :meth:`DegradationOverlay.build` — one
call site, in :func:`repro.core.replay.replay_trace` before it picks an
engine — builds the overlay *from* the target's :mod:`repro.onoc.timing`
object and installs :meth:`DegradationOverlay.price` as that object's
``penalty`` rule; the event entities call the rule per message, the
generational models per inject batch.  Same function, same tables: that is
what makes the engines agree under degradation.  Every adjustment is
non-negative, so the generational windowed solver's gain lower bound stays
valid.  The overlay logs the terms of every message it prices and the
accounting (:func:`penalty_summary`) reads that log — so it counts exactly
the messages the degraded fabric served (on a hybrid, the optical layer's).

Epochs are keyed on **injection time**: the degradation a message sees is
the fabric state when it entered the network.  (A message serialized
across an epoch boundary does not re-price mid-flight — a deliberate
simplification that keeps both engines exactly equal.)
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.onoc.timing import CircuitMeshTiming, SerpentineTiming
from repro.resilience.policies import (
    DISABLE_THRESHOLD_PM,
    LEVEL_CAP_PM,
    MITIGATION_DISABLE,
    MITIGATION_NONE,
    MITIGATION_REALLOCATE,
    PenaltyBreakdown,
    REALLOCATE_DEFAULT_SPARE_PM,
    REALLOCATE_RETUNE_CYCLES,
    check_mitigation,
)
from repro.resilience.timeseries import (
    FaultTimeseries,
    TARGET_GLOBAL,
    TARGET_LINK,
    TARGET_NODE,
    TARGET_WAVELENGTH,
    parse_target,
)


def _ceil_div(a, b):
    """Element-wise ``ceil(a / b)`` for non-negative ``a`` and positive
    ``b`` — identical semantics for Python ints and int64 arrays."""
    return -(-a // b)


class DegradationOverlay:
    """Precomputed per-epoch penalty tables for one (timeseries, backend,
    mitigation) triple, plus the log of what they priced.  Build (and
    install) via :meth:`DegradationOverlay.build`."""

    __slots__ = ("onoc", "mitigation", "series", "_times", "level_pm",
                 "_stretch_pm", "_echo_pm", "_occ_add", "_lat_add",
                 "_priced")

    def __init__(self, timing, mitigation: str,
                 series: FaultTimeseries) -> None:
        # The timing object is read while the tables are filled and not
        # kept: ``build`` installs this overlay's pricing *on* that object,
        # so a reference back would tie the two into a cycle.
        self.onoc = timing.cfg
        self.mitigation = check_mitigation(mitigation)
        self.series = series
        n = self.onoc.num_nodes
        self._times = np.asarray(sorted({e.time for e in series.events}),
                                 dtype=np.int64)
        shape = (len(self._times) + 1, n, n)
        # Row 0 is the pristine pre-first-event epoch; row e+1 covers
        # [times[e], times[e+1]).
        self.level_pm = np.zeros(shape, dtype=np.int64)
        self._stretch_pm = np.zeros(shape, dtype=np.int64)
        self._echo_pm = np.zeros(shape, dtype=np.int64)
        self._occ_add = np.zeros(shape, dtype=np.int64)
        self._lat_add = np.zeros(shape, dtype=np.int64)
        # ``(epoch row, slowdown, echo, occ_add, lat_add)`` per ``price``
        # call (ints or arrays).
        self._priced: list[tuple] = []
        self._fill_tables(timing)

    # ------------------------------------------------------------ building
    @classmethod
    def build(
        cls,
        fault_events: Union[FaultTimeseries, Sequence[Sequence]],
        timing,
        mitigation: str = MITIGATION_NONE,
    ) -> Optional["DegradationOverlay"]:
        """Degrade the fabric ``timing`` (a :mod:`repro.onoc.timing`
        object) serves: build the overlay from it and install the overlay's
        pricing as ``timing.penalty``, which is all either replay engine
        sees of a fault timeseries.  Returns the overlay for the result's
        accounting (:func:`resilience_extra`) — ``None``, with ``timing``
        untouched, for an empty timeseries: the stock (byte-identical)
        path."""
        if isinstance(fault_events, FaultTimeseries):
            series = fault_events
        else:
            series = FaultTimeseries.from_tuples(fault_events)
        if not series.events:
            return None
        overlay = cls(timing, mitigation, series)
        timing.penalty = (overlay.price_delivery_only
                          if isinstance(timing, CircuitMeshTiming)
                          else overlay.price)
        return overlay

    @staticmethod
    def _detour_latency(timing) -> np.ndarray:
        """Per-pair ``disable`` detour cost: extra flight time via the
        lowest-numbered healthy relay plus one extra conversion pair.
        (Serpentine distances are used for every backend — a first-order
        penalty model, not backend geometry — so a serpentine backend's own
        ``propagation`` rule prices the flights.)"""
        onoc = timing.cfg
        n = onoc.num_nodes
        if n < 3:
            return np.zeros((n, n), dtype=np.int64)
        if not isinstance(timing, SerpentineTiming):
            timing = SerpentineTiming(onoc)
        prop = timing.propagation
        s, d = np.indices((n, n))
        # Lowest-numbered node that is neither endpoint.
        relay = np.where((s != 0) & (d != 0), 0,
                         np.where((s != 1) & (d != 1), 1, 2))
        via = prop(s, relay) + prop(relay, d)
        out = np.maximum(0, via - prop(s, d)) + 2 * onoc.conversion_cycles
        np.fill_diagonal(out, 0)
        return out

    def _fill_tables(self, timing) -> None:
        onoc = self.onoc
        n = onoc.num_nodes
        W = onoc.num_wavelengths
        glob = 0.0
        node_sev = np.zeros(n)
        link_sev: dict[tuple[int, int], float] = {}
        wl_sev: dict[int, float] = {}
        detour = None
        spare = timing.spare_capacity_pm(REALLOCATE_DEFAULT_SPARE_PM)
        can_detour = n >= 3
        for i, t in enumerate(self._times.tolist()):
            for e in self.series.events:
                if e.time != t:
                    continue
                kind, operand = parse_target(e.target)
                if kind == TARGET_GLOBAL:
                    glob = e.severity
                elif kind == TARGET_NODE:
                    if operand >= n:
                        raise ValueError(
                            f"fault target {e.target!r} out of range for "
                            f"{n} nodes")
                    node_sev[operand] = e.severity
                elif kind == TARGET_LINK:
                    s, d = operand
                    if s >= n or d >= n:
                        raise ValueError(
                            f"fault target {e.target!r} out of range for "
                            f"{n} nodes")
                    link_sev[(s, d)] = e.severity
                else:  # wavelength
                    if operand >= W:
                        raise ValueError(
                            f"fault target {e.target!r} out of range for "
                            f"{W} wavelengths")
                    wl_sev[operand] = e.severity
            base = np.maximum(glob, np.maximum(node_sev[:, None],
                                               node_sev[None, :]))
            for (s, d), sev in link_sev.items():
                base[s, d] = max(base[s, d], sev)
            if wl_sev:
                base = base + timing.wavelength_share(wl_sev)
            lvl = np.minimum(
                LEVEL_CAP_PM,
                np.rint(np.minimum(1.0, base) * 1000).astype(np.int64))
            np.fill_diagonal(lvl, 0)
            self.level_pm[i + 1] = lvl

            row = i + 1
            if self.mitigation == MITIGATION_NONE:
                self._stretch_pm[row] = lvl
            elif self.mitigation == MITIGATION_DISABLE:
                dropped = (lvl >= DISABLE_THRESHOLD_PM) & can_detour
                if detour is None:
                    detour = self._detour_latency(timing)
                self._stretch_pm[row] = np.where(dropped, 0, lvl)
                self._echo_pm[row] = np.where(dropped, 1000, 0)
                self._lat_add[row] = np.where(dropped, detour, 0)
            else:  # reallocate
                self._stretch_pm[row] = np.maximum(0, lvl - spare)
                self._occ_add[row] = np.where(
                    (lvl > 0) & (spare > 0), REALLOCATE_RETUNE_CYCLES, 0)

    # ------------------------------------------------------------- pricing
    @property
    def epoch_times(self) -> list[int]:
        """Epoch boundary times (epoch ``e+1`` starts at ``times[e]``)."""
        return self._times.tolist()

    def price(self, t, src, dst, ser) -> tuple:
        """The ``penalty`` rule of a degraded timing object (see
        :attr:`repro.onoc.timing._Timing.penalty`): ``(occ_extra,
        lat_extra)`` of messages injected at ``t`` on ``src -> dst`` with
        stock serialization ``ser`` — the one place the penalty formula is
        written.  Python ints give NumPy integer scalars, int arrays give
        int64 arrays, the same integers element for element (an epoch
        starts *at* its event time: ``side="right"``).  Logs the terms for
        :func:`penalty_summary`, so call it once per message served."""
        at = (np.searchsorted(self._times, t, side="right"), src, dst)
        slow = _ceil_div(ser * 1000, 1000 - self._stretch_pm[at]) - ser
        echo = _ceil_div(ser * self._echo_pm[at], 1000)
        occ_add, lat_add = self._occ_add[at], self._lat_add[at]
        self._priced.append((at[0], slow, echo, occ_add, lat_add))
        return slow + echo + occ_add, lat_add

    def price_delivery_only(self, t, src, dst, ser) -> tuple:
        """:meth:`price` for the circuit mesh, whose degradation is
        latency-only by contract: both terms delay the payload *delivery*
        and the circuit is torn down on the stock schedule.  Extending the
        segment hold window would amplify precisely the contention the
        generational circuit model documents as unmodelled, breaking the
        engine-equivalence bound (see docs/RESILIENCE.md)."""
        occ_extra, lat_extra = self.price(t, src, dst, ser)
        return 0, occ_extra + lat_extra

    # ----------------------------------------------------------- metrics
    def path_diversity(self, row: int) -> float:
        """Worst-case path diversity of the *raw* fabric in epoch ``row``:
        the minimum over sources of the fraction of destinations whose
        pair level is below the disable threshold."""
        n = self.onoc.num_nodes
        lvl = self.level_pm[row]
        healthy = (lvl < DISABLE_THRESHOLD_PM).sum(axis=1) - 1  # minus self
        return float(healthy.min()) / (n - 1)


def penalty_summary(
    overlay: DegradationOverlay,
) -> tuple[PenaltyBreakdown, list[dict]]:
    """Penalty accounting over the messages ``overlay`` priced.

    :func:`repro.core.replay.replay_trace` calls this (through
    :func:`resilience_extra`) once per replay, whichever engine solved it.
    Returns the typed breakdown plus the per-epoch curve rows the
    resilience bench/metrics export.
    """
    if not overlay._priced:
        return PenaltyBreakdown(mitigation=overlay.mitigation), []
    rows, slow, echo, occ_add, lat_add = (
        np.hstack(col) for col in zip(*overlay._priced))
    detour = echo + lat_add
    total = slow + detour + occ_add
    breakdown = PenaltyBreakdown(
        mitigation=overlay.mitigation,
        slowdown_cycles=int(slow.sum()),
        detour_cycles=int(detour.sum()),
        retune_cycles=int(occ_add.sum()),
        messages_affected=int((total > 0).sum()),
        messages_total=int(rows.size),
    )
    curve: list[dict] = []
    boundaries = [0] + overlay.epoch_times
    for e, t in enumerate(boundaries):
        mask = rows == e
        curve.append({
            "time": int(t),
            "epoch": e,
            "level_max_pm": int(overlay.level_pm[e].max()),
            "path_diversity": overlay.path_diversity(e),
            "messages": int(mask.sum()),
            "penalty_cycles": int(total[mask].sum()),
        })
    return breakdown, curve


def resilience_extra(overlay: DegradationOverlay) -> dict:
    """The ``ReplayResult.extra['resilience']`` payload for one replay:
    the typed penalty breakdown plus the per-epoch timeseries curve.

    Also publishes the ``resilience.*`` obs counters/gauges and the
    Timeline degradation marks (no-ops while instrumentation is off) —
    both engines funnel through here so the exported metrics agree.
    """
    from repro import obs

    breakdown, curve = penalty_summary(overlay)
    scope = obs.metrics("resilience")
    scope.counter("fault_events").inc(len(overlay.series))
    scope.counter("messages_affected").inc(breakdown.messages_affected)
    scope.counter("slowdown_cycles").inc(breakdown.slowdown_cycles)
    scope.counter("detour_cycles").inc(breakdown.detour_cycles)
    scope.counter("retune_cycles").inc(breakdown.retune_cycles)
    scope.counter("penalty_cycles").inc(breakdown.total_cycles)
    scope.gauge("level_max_pm").set_max(int(overlay.level_pm.max()))
    worst_div = min((row["path_diversity"] for row in curve), default=1.0)
    # Gauges merge by max, so export the *loss* of diversity: the merged
    # sweep then reports the worst epoch any shard saw.
    scope.gauge("path_diversity_loss_pct").set_max(
        (1.0 - worst_div) * 100.0)
    epoch_pen = scope.distribution("epoch_penalty_cycles")
    for row in curve:
        epoch_pen.observe(row["penalty_cycles"])
    tl = obs.timeline()
    if tl is not None:
        for e in overlay.series.events:
            tl.record(e.time, "resilience",
                      f"fault.{e.target}={e.severity:g}")
        for row in curve[1:]:
            tl.record(row["time"], "resilience",
                      f"{overlay.mitigation}.penalty="
                      f"{row['penalty_cycles']}")
    return {
        "mitigation": overlay.mitigation,
        "events": len(overlay.series),
        "penalty": breakdown.as_dict(),
        "curve": curve,
    }
