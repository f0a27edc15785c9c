"""Per-backend timing: the one place each optical backend's arithmetic lives.

A timing object is a pure function of an :class:`~repro.config.OnocConfig`.
It owns, exactly once per backend, everything that turns a message
``(src, dst, size_bytes)`` into cycles:

* the **serialization** rule (lane-narrowed for the AWGR),
* the serpentine **propagation** rule and the release-to-delivery **tail**
  built from it,
* the **resource key** — which FIFO channel a message occupies
  (``dst`` / ``src`` / ``src * n + dst``),
* the crossbar's **token-travel** table,
* the circuit mesh's hop count, setup walk and payload-stream closed form,
* how the backend's wavelengths divide among its (src, dst) pairs
  (:meth:`wavelength_share`, :meth:`spare_capacity_pm`),
* the **penalty** rule of a degraded fabric (``None`` when pristine).

Every method takes Python ints or ``ndarray``s alike, so the event entities
(:mod:`repro.onoc.entity`) call it per message and the vectorized engine
(:mod:`repro.core.generational`) calls it per array off the *same* rules —
the two engines cannot drift.  Nothing here is sized by node *pairs* except
what is inherently per pair (:meth:`wavelength_share`): set-up and memory
are O(nodes + distinct sizes) and every per-message vector is O(messages).
An int call is the event path and answers a plain ``int`` off Python
state — the O(n) position list, the token-travel and mesh-stream lists, the
serialization of each size seen so far — so an entity schedules what it is
given and pays per message only for what changes per message.

:meth:`OnocConfig.serialization_cycles`, :meth:`OnocConfig.propagation_cycles`
and :class:`~repro.onoc.devices.SerpentineLayout` stay the scalar
definitions: an int call *is* the definition, an array call runs the
definition's own float operations in the definition's own order, and
``tests/test_onoc_timing.py`` pins the two bit for bit.

A fault timeseries degrades a replay by installing a :attr:`penalty` rule
on the timing object (``repro.resilience.overlay.DegradationOverlay.build``,
the only writer; nothing here imports it).  Both engines read the rule off the
timing object they already hold, in the ``token_travel = None`` idiom, so
neither scheduler knows the resilience layer exists.

Adding a backend is one timing class here (registered in :data:`TIMINGS`),
one entity in :mod:`repro.onoc` listed in ``repro.onoc.network.BACKENDS``
and one topology constant in :mod:`repro.config`; degradation comes with
the timing class.  The entity states the static facts the power and area
tables read off its class (ring census, worst-loss path, laser channels,
waveguide length, Table 4 label, control-plane energy) — see
:class:`repro.onoc.entity.OpticalEntity`.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from repro.config import (
    ONOC_AWGR,
    ONOC_CIRCUIT_MESH,
    ONOC_CROSSBAR,
    ONOC_SWMR,
    OnocConfig,
)
from repro.onoc.devices import SerpentineLayout, mesh_link_length_cm

__all__ = [
    "AwgrTiming",
    "CircuitMeshTiming",
    "CrossbarTiming",
    "SerpentineTiming",
    "SwmrTiming",
    "TIMINGS",
    "timing_for",
]


def _per_unique(rule, values: np.ndarray) -> np.ndarray:
    """Apply the scalar ``rule`` to an int array via a unique-value table
    (scalar-exact: the same ``math.ceil`` chain as a per-message call) —
    indexed by value when every value is below the array's length, so no
    sort is needed, else by ``np.unique``'s inverse."""
    if len(values) and 0 <= values.min() and values.max() < len(values):
        uniq = np.flatnonzero(np.bincount(values))
        table = np.zeros(int(uniq[-1]) + 1, dtype=np.int64)
        table[uniq] = [rule(v) for v in uniq.tolist()]
        return table[values]
    uniq, inv = np.unique(values, return_inverse=True)
    table = np.fromiter((rule(int(v)) for v in uniq),
                        dtype=np.int64, count=len(uniq))
    return table[inv]


def _ring_travel(ints: list[int], table: np.ndarray, token_at, writer):
    """Token flight from its parking node to ``writer`` along the ring."""
    if isinstance(token_at, np.ndarray) or isinstance(writer, np.ndarray):
        return table[(writer - token_at) % len(table)]
    return ints[(writer - token_at) % len(ints)]


class _Timing:
    """What every backend shares: the config, the serialization rule and
    the shared-WDM-channel wavelength split."""

    #: ``penalty(inject_time, src, dst, ser) -> (occ_extra, lat_extra)`` on a
    #: degraded fabric: ``occ_extra`` more cycles of serialization (the
    #: message holds its serving resource that much longer), ``lat_extra``
    #: more cycles before delivery only.  Ints or arrays alike, never
    #: negative.  ``None`` on a pristine fabric — the engines then run no
    #: penalty arithmetic at all.
    penalty = None

    def __init__(self, cfg: OnocConfig) -> None:
        self.cfg = cfg
        self._ser: dict[int, int] = {}   # size -> cycles, as sizes occur

    def wavelength_share(self, weights: dict[int, float]) -> np.ndarray:
        """``[src, dst]`` bandwidth-share-weighted sum of the per-wavelength
        ``weights`` (``{wavelength: weight}``).  A shared WDM channel
        spreads every pair over all ``W`` wavelengths, ``1/W`` each."""
        n = self.cfg.num_nodes
        return np.full((n, n),
                       sum(weights.values()) / self.cfg.num_wavelengths)

    def spare_capacity_pm(self, budget_pm: int) -> int:
        """Per mille of a pair's bandwidth the fabric can shift onto it when
        it degrades.  Arbitrated backends re-route over spare
        path/wavelength budget: the caller's ``budget_pm`` of the channel."""
        return budget_pm

    def _serialization(self, size_bytes: int) -> int:
        return self.cfg.serialization_cycles(size_bytes)

    def serialization(self, size_bytes):
        """Cycles a message of ``size_bytes`` occupies its channel (for the
        circuit mesh: streams over its established circuit)."""
        if isinstance(size_bytes, np.ndarray):
            return _per_unique(self._serialization, size_bytes)
        ser = self._ser.get(size_bytes)
        if ser is None:
            ser = self._ser[size_bytes] = self._serialization(size_bytes)
        return ser


class SerpentineTiming(_Timing):
    """Timing shared by the backends laid out on the serpentine waveguide.

    A granted transmission is a contention-free circuit: the message holds
    its FIFO channel (:meth:`resource`) for :meth:`serialization` cycles and
    is delivered :meth:`tail` cycles after it releases the channel.
    """

    #: ``token_travel(token_at, writer)`` for token-arbitrated channels;
    #: ``None`` when the writer owns the channel (occupancy = serialization).
    token_travel = None

    def __init__(self, cfg: OnocConfig) -> None:
        super().__init__(cfg)
        self.layout = SerpentineLayout(cfg)
        self.num_resources = cfg.num_nodes
        # ``layout.position_cm(k)`` for every node: the float64 products
        # the scalar definition forms, as a vector for array calls and as
        # Python floats for int calls, so both match it bit for bit.
        self._position_cm = np.arange(cfg.num_nodes) * self.layout.spacing_cm
        self._position_list = self._position_cm.tolist()
        self._conversions = 2 * cfg.conversion_cycles

    def propagation(self, src, dst):
        """Flight cycles ``src -> dst`` along the fixed light direction.

        The scalar definition is
        ``cfg.propagation_cycles(layout.distance_cm(src, dst))``.  Two ints
        run its IEEE-754 operations in its order on the O(n) position list
        and return a plain ``int``; arrays (or an int against an array,
        broadcast) run them on the O(n) position vector, O(messages) in
        time and memory — no ``[src, dst]`` table exists.
        """
        cfg = self.cfg
        if not (isinstance(src, np.ndarray) or isinstance(dst, np.ndarray)):
            pos = self._position_list
            d = pos[dst] - pos[src]
            if d <= 0:
                d += self.layout.total_length_cm
            ns = d / cfg.devices.group_velocity_cm_ns
            return max(1, math.ceil(ns * cfg.clock_ghz))
        d = self._position_cm[dst] - self._position_cm[src]
        d = np.where(d <= 0, d + self.layout.total_length_cm, d)
        ns = d / cfg.devices.group_velocity_cm_ns
        return np.maximum(1, np.ceil(ns * cfg.clock_ghz)).astype(np.int64)

    def tail(self, src, dst):
        """Delivery minus channel release: flight plus the E/O + O/E pair."""
        return self.propagation(src, dst) + self._conversions

    def resource(self, src, dst):
        """Index of the FIFO channel a ``src -> dst`` message occupies."""
        raise NotImplementedError


class CrossbarTiming(SerpentineTiming):
    """Corona MWSR: one token channel per *destination*; a writer first
    waits for the token to travel from the previous writer's node."""

    def __init__(self, cfg: OnocConfig) -> None:
        super().__init__(cfg)
        spacing = self.layout.spacing_cm
        # travel[h]: optical flight over h ring hops plus the configured
        # per-node electrical overhead; 0 when the writer holds the token.
        travel = np.zeros(cfg.num_nodes, dtype=np.int64)
        for h in range(1, cfg.num_nodes):
            travel[h] = (cfg.propagation_cycles(h * spacing)
                         + h * cfg.token_hop_cycles)
        # A partial over the table, not a bound method: a model that holds
        # the rule holds n ints, not the timing object.
        self.token_travel = partial(_ring_travel, travel.tolist(), travel)

    def resource(self, src, dst):
        return dst


class SwmrTiming(SerpentineTiming):
    """Firefly SWMR: one channel per *source*, no write arbitration."""

    def resource(self, src, dst):
        return src


class AwgrTiming(SerpentineTiming):
    """Passive λ-router: one lane per (src, dst) pair carrying only its
    ``num_wavelengths // (num_nodes - 1)`` wavelength subset."""

    def __init__(self, cfg: OnocConfig) -> None:
        if cfg.num_wavelengths < cfg.num_nodes - 1:
            raise ValueError(
                f"AWGR needs >= num_nodes-1 wavelengths to give every lane "
                f"at least one λ; got {cfg.num_wavelengths} for "
                f"{cfg.num_nodes} nodes"
            )
        super().__init__(cfg)
        self.num_resources = cfg.num_nodes * cfg.num_nodes
        self.lanes_per_pair = cfg.num_wavelengths // (cfg.num_nodes - 1)

    def _serialization(self, size_bytes: int) -> int:
        gbps = self.lanes_per_pair * self.cfg.bitrate_gbps
        ns = (size_bytes * 8) / gbps
        return max(1, math.ceil(ns * self.cfg.clock_ghz))

    def resource(self, src, dst):
        return src * self.cfg.num_nodes + dst

    def wavelength_share(self, weights: dict[int, float]) -> np.ndarray:
        """Cyclic λ assignment: ``lane(s, d) = (d - s) mod n - 1`` owns the
        wavelengths ``{w : w mod (n-1) == lane}`` below
        ``lanes_per_pair * (n-1)``, ``1/lanes_per_pair`` of the pair's
        bandwidth each; the wavelengths above are stranded."""
        n, lpp = self.cfg.num_nodes, self.lanes_per_pair
        lane_sum = np.zeros(n - 1)
        for w, weight in weights.items():
            if w < lpp * (n - 1):
                lane_sum[w % (n - 1)] += weight
        s, d = np.indices((n, n))
        out = lane_sum[(d - s) % n - 1] / lpp
        np.fill_diagonal(out, 0.0)
        return out

    def spare_capacity_pm(self, budget_pm: int) -> int:
        """The ``W mod (N-1)`` stranded wavelengths: re-tuning a degraded
        lane onto them recovers their bandwidth share (a floor of half the
        budget models borrowing idle headroom from neighbouring lanes)."""
        stranded = self.cfg.num_wavelengths % (self.cfg.num_nodes - 1)
        return max((stranded * 1000) // self.cfg.num_wavelengths,
                   budget_pm // 2)


class CircuitMeshTiming(_Timing):
    """Circuit-switched mesh: XY hop count, the uncontended setup walk and
    the payload stream, whose sum is the contention-free closed form

        deliver = inject + R + hops*(L+R)                 (setup walk)
                  + hops*L + 1 + 2*conversion + prop      (ack, stream)
                  + ser
    """

    def __init__(self, cfg: OnocConfig) -> None:
        super().__init__(cfg)
        self.side = cfg.mesh_side
        self.link_length_cm = mesh_link_length_cm(cfg)
        # Flight over h mesh links, up to the XY diameter.
        self._prop = np.zeros(max(1, 2 * (self.side - 1)) + 1, dtype=np.int64)
        for h in range(1, len(self._prop)):
            self._prop[h] = cfg.propagation_cycles(h * self.link_length_cm)
        # stream_cycles per hop count, for int calls.
        self._stream = self.stream_cycles(
            np.arange(len(self._prop))).tolist()

    def hops(self, src, dst):
        """Length of the XY route."""
        side = self.side
        return abs(src % side - dst % side) + abs(src // side - dst // side)

    def setup_cycles(self, hops):
        """Uncontended control-plane walk from injection to path complete."""
        cfg = self.cfg
        return (cfg.setup_router_latency
                + hops * (cfg.setup_link_latency + cfg.setup_router_latency))

    def stream_cycles(self, hops):
        """Path complete to delivery, less serialization: the ack's return,
        the E/O + O/E pair and the flight over the whole circuit."""
        if not isinstance(hops, np.ndarray):
            return self._stream[hops]
        cfg = self.cfg
        return (hops * cfg.setup_link_latency + 1
                + 2 * cfg.conversion_cycles + self._prop[hops])

    def latency(self, src, dst, ser):
        """Contention-free delivery latency given serialization ``ser``."""
        hops = self.hops(src, dst)
        return self.setup_cycles(hops) + self.stream_cycles(hops) + ser


#: Timing class per ``OnocConfig.topology`` (every ``ONOC_TOPOLOGIES`` entry).
TIMINGS = {
    ONOC_CROSSBAR: CrossbarTiming,
    ONOC_CIRCUIT_MESH: CircuitMeshTiming,
    ONOC_SWMR: SwmrTiming,
    ONOC_AWGR: AwgrTiming,
}


def timing_for(cfg: OnocConfig):
    """The timing object of ``cfg.topology``."""
    return TIMINGS[cfg.topology](cfg)
