"""The timing layer against the scalar definitions it is built from.

Both replay engines read :mod:`repro.onoc.timing`, so "two independent
copies agree" no longer guards this arithmetic; these tests do.  Every
rule is compared with ``OnocConfig.serialization_cycles`` /
``propagation_cycles``, ``SerpentineLayout`` and the event entities' own
accessors — exhaustively up to 256 nodes, on sampled rows (wrap-around
pairs and the ``s == d`` full lap included) at 1024 and 4096 — and every
method is checked to give the same answer for a Python int as for a
length-1 array.  Bit identity is the pin: the array form of the
propagation rule is the scalar definition's own float operations.
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


@pytest.mark.parametrize("n", (16, 64, 1024))
def test_token_travel_matches_the_crossbar_entity(n):
    cfg = _onoc(ONOC_CROSSBAR, n)
    timing, layout = timing_for(cfg), SerpentineLayout(cfg)
    net = OpticalCrossbar(Simulator(seed=1), cfg)
    writers = np.arange(n)
    for parked in _rows(n):
        want = []
        for w in range(n):
            hops = (w - parked) % n               # ring distance, wrapping
            want.append(cfg.propagation_cycles(hops * layout.spacing_cm)
                        + hops * cfg.token_hop_cycles if hops else 0)
        assert timing.token_travel(parked, writers).tolist() == want
        ch = net.channels[0]
        ch.token_at = parked
        assert [net._token_travel(ch, w) for w in (0, parked, n - 1)] == [
            want[0], 0, want[n - 1]]


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
