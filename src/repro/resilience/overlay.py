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
``(epoch(inject_time), src, dst, ser)``::

    occ_extra = ceil(ser*1000 / (1000 - stretch)) - ser     # bandwidth loss
              + ceil(ser * echo / 1000)                     # retransmission
              + occ_add                                     # re-tuning
    lat_extra = lat_add                                     # detour flight

``occ_extra`` extends how long the message *holds its serving resource*
(token channel, source channel, λ-lane) so degradation cascades
contention onto healthy traffic; ``lat_extra`` only delays the delivery.
Exception: the circuit mesh applies *both* terms as delivery delay and
tears circuits down on the stock schedule — extending segment holds would
amplify the contention the generational circuit model documents as
unmodelled and break the engine-equivalence bound.
The event backends call :meth:`DegradationOverlay.adjust` per message; the
generational models call :meth:`DegradationOverlay.adjust_vec` on whole
inject batches — both read the same tables, which is what makes the
engines agree under degradation.  Every adjustment is non-negative, so
the generational windowed solver's gain lower bound stays valid.

Epochs are keyed on **injection time**: the degradation a message sees is
the fabric state when it entered the network.  (A message serialized
across an epoch boundary does not re-price mid-flight — a deliberate
simplification that keeps both engines exactly equal.)
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional, Sequence, Union

import numpy as np

from repro.config import ONOC_AWGR, OnocConfig
from repro.onoc.timing import SerpentineTiming, timing_for
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


def spare_capacity_pm(onoc: OnocConfig) -> int:
    """Per-mille capacity ``reallocate`` can shift to a degraded pair.

    AWGR: the cyclic lane assignment strands ``W mod (N-1)`` wavelengths;
    re-tuning a degraded lane onto them recovers their bandwidth share (a
    floor of half the default models borrowing idle headroom from
    neighbouring lanes).  Arbitrated backends re-route over spare
    path/wavelength budget, a fixed fraction of the channel.
    """
    if onoc.topology == ONOC_AWGR:
        leftover = onoc.num_wavelengths % (onoc.num_nodes - 1)
        return max((leftover * 1000) // onoc.num_wavelengths,
                   REALLOCATE_DEFAULT_SPARE_PM // 2)
    return REALLOCATE_DEFAULT_SPARE_PM


class DegradationOverlay:
    """Precomputed per-epoch penalty tables for one (timeseries, backend,
    mitigation) triple.  Build via :meth:`DegradationOverlay.build`."""

    __slots__ = ("onoc", "mitigation", "series", "_times", "_times_list",
                 "level_pm", "_stretch_pm", "_echo_pm", "_occ_add",
                 "_lat_add")

    def __init__(self, onoc: OnocConfig, mitigation: str,
                 series: FaultTimeseries) -> None:
        self.onoc = onoc
        self.mitigation = check_mitigation(mitigation)
        self.series = series
        n = onoc.num_nodes
        times = sorted({e.time for e in series.events})
        self._times = np.asarray(times, dtype=np.int64)
        self._times_list = times
        shape = (len(times) + 1, n, n)
        # Row 0 is the pristine pre-first-event epoch; row e+1 covers
        # [times[e], times[e+1]).
        self.level_pm = np.zeros(shape, dtype=np.int64)
        self._stretch_pm = np.zeros(shape, dtype=np.int64)
        self._echo_pm = np.zeros(shape, dtype=np.int64)
        self._occ_add = np.zeros(shape, dtype=np.int64)
        self._lat_add = np.zeros(shape, dtype=np.int64)
        self._fill_tables()

    # ------------------------------------------------------------ building
    @classmethod
    def build(
        cls,
        fault_events: Union[FaultTimeseries, Sequence[Sequence]],
        onoc: OnocConfig,
        mitigation: str = MITIGATION_NONE,
    ) -> Optional["DegradationOverlay"]:
        """Overlay for ``fault_events``, or ``None`` when the timeseries is
        empty — the caller then takes the stock (byte-identical) path."""
        if isinstance(fault_events, FaultTimeseries):
            series = fault_events
        else:
            series = FaultTimeseries.from_tuples(fault_events)
        if not series.events:
            return None
        return cls(onoc, mitigation, series)

    def _wavelength_matrix(self, wl_sev: dict) -> np.ndarray:
        """Bandwidth-share-weighted wavelength contribution per pair."""
        n = self.onoc.num_nodes
        W = self.onoc.num_wavelengths
        out = np.zeros((n, n))
        if not wl_sev:
            return out
        if self.onoc.topology == ONOC_AWGR:
            # Cyclic λ assignment: lane(s, d) = (d - s) mod n - 1 owns the
            # wavelengths {w : w mod (n-1) == lane} below lpp*(n-1).
            lpp = timing_for(self.onoc).lanes_per_pair
            lane_sum = np.zeros(n - 1)
            for w, sev in wl_sev.items():
                if w < lpp * (n - 1):
                    lane_sum[w % (n - 1)] += sev
            for s in range(n):
                for d in range(n):
                    if s != d:
                        out[s, d] = lane_sum[(d - s) % n - 1] / lpp
        else:
            # Shared WDM channel: each λ carries 1/W of the bandwidth.
            out[:, :] = sum(wl_sev.values()) / W
        return out

    def _detour_latency(self) -> np.ndarray:
        """Per-pair ``disable`` detour cost: extra flight time via the
        lowest-numbered healthy relay plus one extra conversion pair.
        (Serpentine distances are used for every backend — a first-order
        penalty model, not backend geometry.)"""
        onoc = self.onoc
        n = onoc.num_nodes
        if n < 3:
            return np.zeros((n, n), dtype=np.int64)
        prop = SerpentineTiming(onoc).propagation_table
        s, d = np.indices((n, n))
        # Lowest-numbered node that is neither endpoint.
        relay = np.where((s != 0) & (d != 0), 0,
                         np.where((s != 1) & (d != 1), 1, 2))
        via = prop[s, relay] + prop[relay, d]
        out = np.maximum(0, via - prop) + 2 * onoc.conversion_cycles
        np.fill_diagonal(out, 0)
        return out

    def _fill_tables(self) -> None:
        onoc = self.onoc
        n = onoc.num_nodes
        W = onoc.num_wavelengths
        glob = 0.0
        node_sev = np.zeros(n)
        link_sev: dict[tuple[int, int], float] = {}
        wl_sev: dict[int, float] = {}
        detour = None
        spare = spare_capacity_pm(onoc)
        can_detour = n >= 3
        for i, t in enumerate(self._times_list):
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
            raw = np.minimum(1.0, base + self._wavelength_matrix(wl_sev))
            lvl = np.minimum(LEVEL_CAP_PM,
                             np.rint(raw * 1000).astype(np.int64))
            np.fill_diagonal(lvl, 0)
            self.level_pm[i + 1] = lvl

            row = i + 1
            if self.mitigation == MITIGATION_NONE:
                self._stretch_pm[row] = lvl
            elif self.mitigation == MITIGATION_DISABLE:
                dropped = (lvl >= DISABLE_THRESHOLD_PM) & can_detour
                if detour is None:
                    detour = self._detour_latency()
                self._stretch_pm[row] = np.where(dropped, 0, lvl)
                self._echo_pm[row] = np.where(dropped, 1000, 0)
                self._lat_add[row] = np.where(dropped, detour, 0)
            else:  # reallocate
                self._stretch_pm[row] = np.maximum(0, lvl - spare)
                self._occ_add[row] = np.where(
                    (lvl > 0) & (spare > 0), REALLOCATE_RETUNE_CYCLES, 0)

    # ----------------------------------------------------------- querying
    @property
    def epoch_times(self) -> list[int]:
        """Epoch boundary times (epoch ``e+1`` starts at ``times[e]``)."""
        return list(self._times_list)

    def epoch_of(self, t: int) -> int:
        """Table row for injection time ``t`` (0 = pristine prefix)."""
        return bisect_right(self._times_list, t)

    def adjust(self, t: int, src: int, dst: int,
               ser: int) -> tuple[int, int]:
        """Scalar ``(occ_extra, lat_extra)`` for one message (event engine)."""
        e = bisect_right(self._times_list, t)
        stretch = int(self._stretch_pm[e, src, dst])
        echo = int(self._echo_pm[e, src, dst])
        occ_add = int(self._occ_add[e, src, dst])
        lat = int(self._lat_add[e, src, dst])
        occ = occ_add
        if stretch:
            occ += _ceil_div(ser * 1000, 1000 - stretch) - ser
        if echo:
            occ += _ceil_div(ser * echo, 1000)
        return occ, lat

    def _terms(self, t: np.ndarray, src: np.ndarray, dst: np.ndarray,
               ser: np.ndarray) -> tuple[np.ndarray, ...]:
        """Per-message ``(epoch row, slowdown, echo, occ_add, lat_add)`` —
        the vectorized form of :meth:`adjust`'s terms, same integer
        semantics element-for-element."""
        rows = np.searchsorted(self._times, t, side="right")
        ser = ser.astype(np.int64, copy=False)
        return (
            rows,
            _ceil_div(ser * 1000, 1000 - self._stretch_pm[rows, src, dst])
            - ser,
            _ceil_div(ser * self._echo_pm[rows, src, dst], 1000),
            self._occ_add[rows, src, dst],
            self._lat_add[rows, src, dst],
        )

    def adjust_vec(self, t: np.ndarray, src: np.ndarray, dst: np.ndarray,
                   ser: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`adjust` (generational engine)."""
        _, slow, echo, occ_add, lat_add = self._terms(t, src, dst, ser)
        return slow + echo + occ_add, lat_add

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
    injects: Sequence[int],
    srcs: Sequence[int],
    dsts: Sequence[int],
    sizes: Sequence[int],
) -> tuple[PenaltyBreakdown, list[dict]]:
    """Post-hoc penalty accounting over the *final* injection schedule.

    The result assembly (:func:`repro.core.replay._assemble_result`) calls
    this once per replay, whichever engine solved it, with the replayed
    messages' injection times and endpoints.  Returns the typed breakdown
    plus the per-epoch curve rows the resilience bench/metrics export.
    """
    inj = np.asarray(injects, dtype=np.int64)
    src = np.asarray(srcs, dtype=np.int64)
    dst = np.asarray(dsts, dtype=np.int64)
    # The serving backend's serialization: the ``ser`` the engines feed to
    # ``adjust`` (the AWGR's is narrowed to its per-lane λ subset).
    ser = timing_for(overlay.onoc).serialization(
        np.asarray(sizes, dtype=np.int64))
    if inj.size == 0:
        breakdown = PenaltyBreakdown(mitigation=overlay.mitigation)
        return breakdown, []
    rows, slow, echo, occ_add, lat_add = overlay._terms(inj, src, dst, ser)
    detour = echo + lat_add
    total = slow + detour + occ_add
    breakdown = PenaltyBreakdown(
        mitigation=overlay.mitigation,
        slowdown_cycles=int(slow.sum()),
        detour_cycles=int(detour.sum()),
        retune_cycles=int(occ_add.sum()),
        messages_affected=int((total > 0).sum()),
        messages_total=int(inj.size),
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


def resilience_extra(
    overlay: DegradationOverlay,
    injects: Sequence[int],
    srcs: Sequence[int],
    dsts: Sequence[int],
    sizes: Sequence[int],
) -> dict:
    """The ``ReplayResult.extra['resilience']`` payload for one replay:
    the typed penalty breakdown plus the per-epoch timeseries curve.

    Also publishes the ``resilience.*`` obs counters/gauges and the
    Timeline degradation marks (no-ops while instrumentation is off) —
    both engines funnel through here so the exported metrics agree.
    """
    from repro import obs

    breakdown, curve = penalty_summary(overlay, injects, srcs, dsts, sizes)
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
