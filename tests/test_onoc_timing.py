"""The timing layer against the scalar definitions it is built from.

Both replay engines read :mod:`repro.onoc.timing`, so "two independent
copies agree" no longer guards this arithmetic; these tests do.  Every
rule is compared with ``OnocConfig.serialization_cycles`` /
``propagation_cycles``, ``SerpentineLayout`` and the event entities'
observed latencies — exhaustively up to 256 nodes, on sampled rows
(wrap-around pairs and the ``s == d`` full lap included) at 1024 and
4096 — and every method is checked to give the same answer for a Python
int as for a length-1 array.  Bit identity is the pin: the array form of
the propagation rule is the scalar definition's own float operations, and
the int form (the event path) answers exactly ``int``.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.config import (
    ONOC_AWGR,
    ONOC_CIRCUIT_MESH,
    ONOC_CROSSBAR,
    ONOC_TOPOLOGIES,
    OnocConfig,
)
from repro.engine import Simulator
from repro.net import Message
from repro.onoc import OpticalAwgr, OpticalCrossbar, SerpentineLayout
from repro.onoc.devices import mesh_link_length_cm
from repro.onoc.timing import TIMINGS, timing_for
from repro.synth import synth_onoc

SERPENTINE = tuple(t for t in ONOC_TOPOLOGIES if t != ONOC_CIRCUIT_MESH)
SIZES = (1, 8, 64, 72, 720, 4096)


def _rows(n: int) -> list[int]:
    """Every source at small sizes; first, last and a spread above."""
    return list(range(n)) if n <= 256 else [0, 1, 17, 511, 512, 1000, n - 1]


def _onoc(topology: str, n: int) -> OnocConfig:
    # A non-zero token overhead so that term of the travel table is live.
    return replace(synth_onoc(topology, n), token_hop_cycles=3)


def test_every_topology_has_a_timing_class():
    assert set(TIMINGS) == set(ONOC_TOPOLOGIES)
    for topology in ONOC_TOPOLOGIES:
        assert type(timing_for(_onoc(topology, 16))) is TIMINGS[topology]


@pytest.mark.parametrize("n", (16, 64, 256, 1024, 4096))
@pytest.mark.parametrize("topology", SERPENTINE)
def test_pair_table_matches_scalar_propagation(topology, n):
    """There is no pair table: what is pinned is that the array rule
    answers every pair exactly as the scalar definition does."""
    cfg = _onoc(topology, n)
    timing, layout = timing_for(cfg), SerpentineLayout(cfg)
    dsts = np.arange(n)
    for s in _rows(n):
        want = [cfg.propagation_cycles(layout.distance_cm(s, d))
                for d in range(n)]                # d < s wraps, d == s laps
        got = timing.propagation(s, dsts)
        assert got.dtype == np.int64 and got.tolist() == want
        assert (timing.tail(s, dsts)
                == np.asarray(want) + 2 * cfg.conversion_cycles).all()


@pytest.mark.parametrize("topology", SERPENTINE)
def test_propagation_int_array_and_mixed_calls_agree(topology):
    timing = timing_for(_onoc(topology, 64))
    srcs = np.asarray([0, 63, 40, 5, 9], dtype=np.int64)
    dsts = np.asarray([1, 0, 7, 6, 9], dtype=np.int64)   # 9 -> 9: full lap
    want = [timing.propagation(int(s), int(d)) for s, d in zip(srcs, dsts)]
    assert all(type(w) is int for w in want)      # ints stay off NumPy
    assert type(timing.tail(40, 7)) is int
    assert timing.propagation(srcs, dsts).tolist() == want
    for i, (s, d) in enumerate(zip(srcs.tolist(), dsts.tolist())):
        assert timing.propagation(srcs[i:i + 1], dsts[i:i + 1]).tolist() == [
            want[i]]
        # An int against an array broadcasts through the array path.
        assert timing.propagation(s, dsts)[i] == want[i]
        assert timing.propagation(srcs, d)[i] == want[i]


@pytest.mark.parametrize("n", (16, 64, 1024))
@pytest.mark.parametrize("topology", ONOC_TOPOLOGIES)
def test_serialization_matches_scalar_rule(topology, n):
    cfg = _onoc(topology, n)
    timing = timing_for(cfg)
    if topology == ONOC_AWGR:
        # Only the lane's λ subset carries the message.
        gbps = (cfg.num_wavelengths // (n - 1)) * cfg.bitrate_gbps

        def rule(size: int) -> int:
            return max(1, math.ceil(size * 8 / gbps * cfg.clock_ghz))

        net = OpticalAwgr(Simulator(seed=1), cfg)
        assert [net.timing.serialization(s) for s in SIZES] == [
            rule(s) for s in SIZES]
        assert rule(720) > cfg.serialization_cycles(720)
    else:
        rule = cfg.serialization_cycles
    want = [rule(s) for s in SIZES]
    assert [timing.serialization(s) for s in SIZES] == want
    # Repeats and arbitrary order exercise the unique-size lookup.
    sizes = np.asarray(SIZES[::-1] + SIZES, dtype=np.int64)
    assert timing.serialization(sizes).tolist() == want[::-1] + want


def _travel_rule(cfg: OnocConfig, hops: int) -> int:
    """Token flight over ``hops`` ring hops: the scalar definition."""
    if not hops:
        return 0                                  # the writer holds it
    spacing = SerpentineLayout(cfg).spacing_cm
    return cfg.propagation_cycles(hops * spacing) + hops * cfg.token_hop_cycles


@pytest.mark.parametrize("n", (16, 64, 1024))
def test_token_travel_matches_the_crossbar_entity(n):
    cfg = _onoc(ONOC_CROSSBAR, n)
    timing = timing_for(cfg)
    writers = np.arange(n)
    for parked in _rows(n):
        want = [_travel_rule(cfg, (w - parked) % n)    # ring distance, wrapping
                for w in range(n)]
        assert timing.token_travel(parked, writers).tolist() == want
    # The entity waits exactly that travel before it serializes.
    for parked, w in ((0, 0), (3, n - 1), (n - 1, 3), (5, 5)):
        sim = Simulator(seed=1)
        net = OpticalCrossbar(sim, cfg)
        dst = (w + 1) % n
        net.channels[dst].token_at = parked
        done = []
        net.set_delivery_handler(done.append)
        net.send(Message(w, dst, 72))
        sim.run()
        assert done[0].latency == (_travel_rule(cfg, (w - parked) % n)
                                   + timing.serialization(72)
                                   + timing.tail(w, dst))
        assert net.channels[dst].token_at == w


@pytest.mark.parametrize("n", (16, 64))
@pytest.mark.parametrize("topology", SERPENTINE)
def test_int_path_is_the_scalar_definition(topology, n):
    """The event entities' path: ints (and NumPy integer scalars) in,
    exactly ``int`` out, equal to the scalar definition for every pair and
    every size — a cached size answers as its first resolution did."""
    cfg = _onoc(topology, n)
    timing, layout = timing_for(cfg), SerpentineLayout(cfg)
    conversions = 2 * cfg.conversion_cycles
    for s in range(n):
        for d in range(n):
            want = cfg.propagation_cycles(layout.distance_cm(s, d)) + conversions
            for got in (timing.tail(s, d),
                        timing.tail(np.int64(s), np.int64(d))):
                assert type(got) is int and got == want
            if timing.token_travel is not None:
                want = _travel_rule(cfg, (d - s) % n)
                for got in (timing.token_travel(s, d),
                            timing.token_travel(np.int64(s), np.int64(d))):
                    assert type(got) is int and got == want
    if topology == ONOC_AWGR:
        gbps = timing.lanes_per_pair * cfg.bitrate_gbps

        def rule(size: int) -> int:
            return max(1, math.ceil(size * 8 / gbps * cfg.clock_ghz))
    else:
        rule = cfg.serialization_cycles
    for size in range(1, 4097):
        want = rule(size)
        for got in (timing.serialization(size), timing.serialization(size),
                    timing.serialization(np.int64(size))):
            assert type(got) is int and got == want
    fresh = timing_for(cfg)                       # first resolved from NumPy
    for size in (1, 72, 4096):
        for got in (fresh.serialization(np.int32(size)),
                    fresh.serialization(size)):
            assert type(got) is int and got == rule(size)


@pytest.mark.parametrize("n", (16, 64))
def test_mesh_stream_int_path_is_the_scalar_definition(n):
    cfg = _onoc(ONOC_CIRCUIT_MESH, n)
    timing, link = timing_for(cfg), mesh_link_length_cm(cfg)
    for h in range(2 * (cfg.mesh_side - 1) + 1):
        want = (h * cfg.setup_link_latency + 1 + 2 * cfg.conversion_cycles
                + (cfg.propagation_cycles(h * link) if h else 0))
        for got in (timing.stream_cycles(h), timing.stream_cycles(np.int64(h))):
            assert type(got) is int and got == want
        assert timing.stream_cycles(np.asarray([h])).tolist() == [want]


@pytest.mark.parametrize("topology", SERPENTINE)
def test_resource_keys(topology):
    n = 16
    timing = timing_for(_onoc(topology, n))
    src, dst = np.divmod(np.arange(n * n), n)
    want = {ONOC_CROSSBAR: dst, "swmr_crossbar": src,
            ONOC_AWGR: src * n + dst}[topology]
    assert (timing.resource(src, dst) == want).all()
    assert timing.num_resources == int(want.max()) + 1


@pytest.mark.parametrize("n", (16, 64, 1024))
def test_circuit_mesh_closed_form(n):
    cfg = _onoc(ONOC_CIRCUIT_MESH, n)
    timing = timing_for(cfg)
    side, link = cfg.mesh_side, mesh_link_length_cm(cfg)
    r, lnk = cfg.setup_router_latency, cfg.setup_link_latency
    dsts = np.arange(n)
    ser = cfg.serialization_cycles(72)
    for s in _rows(n):
        hops = [abs(s % side - d % side) + abs(s // side - d // side)
                for d in range(n)]
        assert timing.hops(s, dsts).tolist() == hops
        want = [r + h * (lnk + r)                          # setup walk
                + h * lnk + 1                              # ack
                + 2 * cfg.conversion_cycles + ser
                + (cfg.propagation_cycles(h * link) if h else 0)
                for h in hops]
        assert timing.latency(s, dsts, ser).tolist() == want


@pytest.mark.parametrize("topology", ONOC_TOPOLOGIES)
def test_scalar_call_equals_length_one_array(topology):
    timing = timing_for(_onoc(topology, 64))
    one = lambda v: np.asarray([v], dtype=np.int64)  # noqa: E731
    for s, d, size in ((0, 1, 72), (63, 0, 8), (40, 7, 720), (5, 6, 1)):
        ser = timing.serialization(size)
        assert timing.serialization(one(size)).tolist() == [ser]
        if topology == ONOC_CIRCUIT_MESH:
            h = timing.hops(s, d)
            assert timing.hops(one(s), one(d)).tolist() == [h]
            for fn in (timing.setup_cycles, timing.stream_cycles):
                assert fn(one(h)).tolist() == [fn(h)]
            assert (timing.latency(one(s), one(d), one(ser)).tolist()
                    == [timing.latency(s, d, ser)])
            continue
        for fn in (timing.tail, timing.resource):
            assert fn(one(s), one(d)).tolist() == [fn(s, d)]
        if timing.token_travel is not None:
            assert (timing.token_travel(one(s), one(d)).tolist()
                    == [timing.token_travel(s, d)])
