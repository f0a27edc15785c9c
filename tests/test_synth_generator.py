"""The block-computed, rank-merged generator against its per-record
definition.

``repro.synth.generator`` computes every chain's records in NumPy blocks,
ranks each block's final window in NumPy and writes ``RecordChunk`` columns
straight into the container.  All of it is the same arithmetic as the
definitions kept here as references — the four-part hash, one float
accumulation per ``size_mix`` entry, the ``math.log`` gap draw, and the
per-record heap generator as it stood before the block rewrite — so the
pin is equality: every field of every record on a grid of profile
shapes, the container bytes against ``tracebin.dumps(generate(...))``,
and the four container digests the benchmark spine checks.
"""

from __future__ import annotations

import hashlib
import heapq
import io
import json
import math
import re
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import tracebin
from repro import cli
from repro.core.trace import Trace, TraceRecord
from repro.synth import (
    default_profile,
    fit_profile,
    generate,
    generate_to_file,
    iter_records,
)
from repro.engine.rng import fold, mix64
from repro.synth import generator
from repro.synth.generator import (
    _Seeded,
    _Streams,
    _draw_gaps,
    _draw_size,
    _seed_words,
    _size_thresholds,
    _unit,
)
from repro.synth.profile import SynthProfile
from repro.traffic.patterns import PATTERNS, hotspot

_MASK64 = (1 << 64) - 1
TAGS = ("size", "fan", "fgap", "gap", "root", "src", "chain")
EDGES = (0, 1, 2, 63, 1 << 31, 1 << 63, _MASK64)
REPO = Path(__file__).parent.parent
GOLDEN = sorted((REPO / "tests" / "golden").glob("*.trace.json"))


def _mix64_reference(*parts) -> int:
    """The four-part hash as first written: every part, every call."""
    x = 0x9E3779B97F4A7C15
    for p in parts:
        if isinstance(p, str):
            p = int.from_bytes(p.encode("utf-8"), "little")
        x = (x ^ (p & _MASK64)) & _MASK64
        x = (x * 0xBF58476D1CE4E5B9) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        x ^= x >> 31
    return x & _MASK64


def _draw_size_reference(profile, u):
    """The size draw as first written: one float accumulation per
    ``size_mix`` entry, every call."""
    total = sum(w for _, w in profile.size_mix)
    acc = 0.0
    for size, weight in profile.size_mix:
        acc += weight / total
        if u < acc:
            return size
    return profile.size_mix[-1][0]


def _iter_records_reference(profile, scale=1.0, seed=0):
    """The per-record generator: the heap loop, push order and per-chain
    rng order exactly as they stood before the block rewrite, with every
    decision hashed from all four parts and one ``TraceRecord`` built per
    message."""
    def unit(tag, c, step):
        return _mix64_reference(seed, tag, c, step) / float(1 << 64)

    def draw_gap(u):
        scale_ = max(0.0, profile.gap_mean - 1.0)
        gap = 1 + int(-math.log(1.0 - u) * scale_)
        return min(profile.gap_max, gap)

    def latency(size):
        return profile.base_latency + size // 16

    def dest(src, rng):
        d = int(PATTERNS[profile.pattern](src, profile.num_nodes, rng))
        if d == src:
            d = (d + 1) % profile.num_nodes
        return d

    n_messages = profile.scaled_messages(scale)
    n = profile.num_nodes
    chains = min(profile.chains, n_messages)
    rngs = [np.random.Generator(np.random.PCG64(
        _mix64_reference(seed, "chain", c))) for c in range(chains)]

    heap: list[tuple] = []
    uid = 0
    for c in range(chains):
        t0 = _mix64_reference(seed, "root", c) % profile.root_spread
        src = _mix64_reference(seed, "src", c) % n
        heapq.heappush(heap, (t0, 0, uid, (c, 0, src, -1, t0)))
        uid += 1

    emitted = 0
    while emitted < n_messages:
        t, flag, _, item = heapq.heappop(heap)
        if flag == 0:
            c, step, cur, cause_id, gap = item
            dst = dest(cur, rngs[c])
            size = _draw_size_reference(profile, unit("size", c, step))
            t_del = t + latency(size)
            msg_id = emitted
            yield TraceRecord(
                msg_id=msg_id, key=(cur, dst, "data", msg_id, 0),
                src=cur, dst=dst, size_bytes=size, kind="data",
                t_inject=t, t_deliver=t_del, cause_id=cause_id, gap=gap)
            emitted += 1
            if unit("fan", c, step) < profile.fanout_prob:
                third = dest(dst, rngs[c])
                g2 = draw_gap(unit("fgap", c, step))
                heapq.heappush(heap, (t_del + g2, 1, uid,
                                      (dst, third, 64, msg_id, g2)))
                uid += 1
            g = draw_gap(unit("gap", c, step))
            heapq.heappush(heap, (t_del + g, 0, uid,
                                  (c, step + 1, dst, msg_id, g)))
            uid += 1
        else:
            src, dst, size, cause_id, gap = item
            t_del = t + latency(size)
            msg_id = emitted
            yield TraceRecord(
                msg_id=msg_id, key=(src, dst, "ctrl", msg_id, 0),
                src=src, dst=dst, size_bytes=size, kind="ctrl",
                t_inject=t, t_deliver=t_del, cause_id=cause_id, gap=gap)
            emitted += 1


# ------------------------------------------------------------------ hashing

def test_folded_prefix_is_the_four_part_hash():
    steps = EDGES + (7, 140_000)
    step_row = np.array(steps, dtype=np.uint64)[None, :]
    chain_col = np.array(EDGES, dtype=np.uint64)[:, None]
    for tag in TAGS:
        for seed in EDGES + (11, -1):
            want = [[_mix64_reference(seed, tag, chain, step)
                     for step in steps] for chain in EDGES]
            # One scalar round per part ...
            for chain, row in zip(EDGES, want):
                prefix = mix64(seed, tag, chain)
                assert prefix == _mix64_reference(seed, tag, chain)
                for step, cell in zip(steps, row):
                    assert fold(prefix, step) == cell
                    assert mix64(seed, tag, chain, step) == cell
            # ... and the same rounds over uint64 arrays: chains folded
            # into the scalar (seed, tag) state, steps broadcast against
            # the per-chain prefixes, as the generator's blocks do.
            prefixes = fold(mix64(seed, tag), chain_col)
            assert prefixes.dtype == np.uint64
            assert fold(prefixes, step_row).tolist() == want
            assert _unit(prefixes, step_row).tolist() == [
                [cell / float(1 << 64) for cell in row] for row in want]


def test_hoisted_size_thresholds_draw_the_same_sizes():
    for mix in (((64, 0.7), (512, 0.3)),
                ((8, 1.0), (72, 3.0), (720, 0.1), (4096, 2.9)),
                ((64, 0.1),) * 10):
        profile = default_profile(16, 100, size_mix=mix)
        thresholds = _size_thresholds(profile)
        units = [k / 2000 for k in range(2001)]   # 1.0: past every share
        units += thresholds[0].tolist()           # the boundaries themselves
        assert _draw_size(thresholds, np.array(units)).tolist() == [
            _draw_size_reference(profile, u) for u in units]


def test_unit_draw_of_one_takes_the_gap_limit():
    """``_unit`` is exactly 1.0 for the 1024 hashes from 2^64 - 1024 up,
    where the gap formula has no logarithm (it raised ``math domain
    error``); the draw takes the limit of its neighbours and no other
    draw moves."""
    top = np.array([_MASK64 - 1023, _MASK64], dtype=np.uint64)
    assert (top.astype(np.float64) / float(1 << 64)).tolist() == [1.0, 1.0]
    below = math.nextafter(1.0, 0.0)
    p = default_profile(16, 100)
    assert _draw_gaps(p, [below, 1.0]).tolist() == [p.gap_max, p.gap_max]
    flat = replace(p, gap_mean=1.0)               # scale 0: every draw is 1
    assert _draw_gaps(flat, [0.0, below, 1.0]).tolist() == [1, 1, 1]
    wide = replace(p, gap_max=10**6)              # the clip is out of reach
    assert _draw_gaps(wide, [0.25, below, 1.0]).tolist() == [
        1 + int(-math.log(0.75) * 17.0), 1 + int(-math.log(2.0 ** -53) * 17.0),
        10**6]


def _draw_gap_reference(profile, u):
    """The gap draw as the scalar definition: ``math.log``, one unit at a
    time."""
    scale = max(0.0, profile.gap_mean - 1.0)
    if u == 1.0:
        return profile.gap_max if scale > 0.0 else 1
    return min(profile.gap_max, 1 + int(-math.log(1.0 - u) * scale))


def test_vectorised_gap_draw_is_the_scalar_definition():
    """``np.log`` over 2 * 10^6 hashed units draws the gaps ``math.log``
    draws, at the default scale (17) and a small one.  ``np.log`` may
    differ in the last bit; only where the scaled value is near an integer
    can that move ``int()``, and those cells are redrawn with ``math.log``."""
    prefix = fold(mix64(7, "gap"), np.arange(2, dtype=np.uint64))[:, None]
    units = _unit(prefix, np.arange(10**6, dtype=np.uint64)).ravel()
    for profile in (default_profile(16, 100),
                    default_profile(16, 100, gap_mean=1.5, gap_max=7)):
        want = [_draw_gap_reference(profile, u) for u in units.tolist()]
        assert _draw_gaps(profile, units).tolist() == want


def test_gap_draw_redraws_the_guard_band_with_math_log(monkeypatch):
    """Units whose scaled value lies a few ulps either side of an integer:
    every one is in the guard band, is redrawn with ``math.log``, and
    draws the scalar definition's gap."""
    profile = default_profile(16, 100)
    scale = profile.gap_mean - 1.0
    units = []
    for k in range(1, 90):
        u = -math.expm1(-k / scale)       # -log(1 - u) * scale is ~k
        for _ in range(4):
            u = math.nextafter(u, 0.0)
        for _ in range(9):
            units.append(u)
            u = math.nextafter(u, 1.0)
    scaled = -np.log(1.0 - np.array(units)) * scale
    assert (np.abs(scaled - np.rint(scaled)) < 1e-9 * scaled).all()
    want = [_draw_gap_reference(profile, u) for u in units]
    assert len(set(want)) > 80 and {w - k for w, k in zip(
        want, np.repeat(np.arange(1, 90), 9).tolist())} == {0, 1}

    calls = []

    def log(x):
        calls.append(x)
        return math.log(x)

    monkeypatch.setattr(generator, "math", SimpleNamespace(log=log))
    assert _draw_gaps(profile, units).tolist() == want
    assert len(calls) == len(units)


# ----------------------------------------------- identity, record by record

def _golden_fit(path: Path):
    return fit_profile(Trace.from_json(path.read_text()))


_ODD = dict(base_latency=1, gap_mean=1.0, gap_max=3, root_spread=1, chains=5,
            size_mix=((1, .5), (16, .2), (700, .3)), fanout_prob=0.6)

#: Every decision ties: each cycle's bucket holds many chain steps and
#: children at once, and a push lands exactly two cycles on.
_TIES = dict(root_spread=1, base_latency=1, gap_mean=1.0, gap_max=1,
             fanout_prob=0.9)

#: Four chains of ~1500 destination draws each, half of the steps fanning
#: out: a block asks each chain for a different, often odd, count.
_STRADDLE = dict(chains=4, fanout_prob=0.5)

#: Every chain in lockstep: one size, unit gaps, one root cycle, so a
#: cycle's ties run back to the roots and chain order decides them all.
_LOCKSTEP = dict(root_spread=1, base_latency=1, gap_mean=1.0, gap_max=1,
                 size_mix=((64, 1.0),))

IDENTITY_GRID = [
    pytest.param(lambda: default_profile(1024, 20_000), 1.0, id="uniform-1024"),
    pytest.param(lambda: default_profile(1000, 20_000), 1.0, id="uniform-1000"),
    pytest.param(lambda: default_profile(64, 6000, **_STRADDLE), 1.0,
                 id="uniform-fanout-straddles-refill"),
    pytest.param(lambda: default_profile(1024, 20_000, pattern="hotspot"),
                 1.0, id="hotspot-1024"),
    pytest.param(lambda: default_profile(1000, 20_000, pattern="hotspot"),
                 1.0, id="hotspot-1000"),
    *(pytest.param(lambda g=g: _golden_fit(g), 20.0,
                   id=f"fit-{g.name.split('-')[0]}-x20") for g in GOLDEN),
    pytest.param(lambda: default_profile(64, 6000, **_ODD), 1.0,
                 id="unit-gaps-three-sizes"),
    pytest.param(lambda: default_profile(64, 5000, fanout_prob=0.0), 1.0,
                 id="no-fanout"),
    pytest.param(lambda: default_profile(64, 5000, fanout_prob=0.9), 1.0,
                 id="max-fanout"),
    *(pytest.param(lambda pat=pat: default_profile(64, 3000, pattern=pat),
                   1.0, id=pat)
      for pat in ("bit_complement", "bit_reverse", "transpose", "neighbor",
                  "tornado")),
    pytest.param(lambda: default_profile(256, 40), 1.0,
                 id="fewer-messages-than-chains"),
    pytest.param(lambda: default_profile(64, 5000, **_TIES), 1.0,
                 id="ties-everywhere"),
    *(pytest.param(lambda f=f: default_profile(64, 5000, fanout_prob=f,
                                               **_LOCKSTEP), 1.0,
                   id=f"lockstep-fanout-{f}") for f in (0.0, 0.5)),
    pytest.param(lambda: default_profile(64, 5000, chains=1), 1.0,
                 id="one-chain"),
    pytest.param(lambda: default_profile(256, 12_000), 0.37, id="scaled-down"),
]


@pytest.mark.parametrize("make_profile, scale", IDENTITY_GRID)
def test_every_record_equals_the_per_record_reference(make_profile, scale):
    profile = make_profile()
    got = list(iter_records(profile, scale=scale, seed=5))
    want = list(_iter_records_reference(profile, scale=scale, seed=5))
    assert len(got) == len(want) == profile.scaled_messages(scale)
    for a, b in zip(got, want):
        assert a == b           # frozen dataclass: every field, key included


def _block_draws(n, seed, hot):
    """``_Streams.take`` against ``hotspot(0, n, rng)`` (``hot``) or
    ``integers(0, n)`` calls, one scalar stream per chain, over eight
    blocks of ragged per-chain counts (zeros and odd counts included, so
    that buffered halves and words drawn ahead cross blocks): from fresh
    streams, and from streams of which three start after an ``integers``
    (which leaves a buffered 32-bit half behind: the next 32-bit draw takes
    it, a 64-bit one ignores it) and a ``random()`` (which must not touch
    it)."""
    rng = np.random.default_rng([n, seed])
    counts = rng.integers(0, 7, (8, 5)) * (rng.random((8, 5)) < 0.7)
    draw = ((lambda g: hotspot(0, n, g)) if hot
            else (lambda g: int(g.integers(0, n))))
    for midway in (False, True):
        bitgens = [np.random.PCG64(seed + c) for c in range(5)]
        scalar = [np.random.Generator(np.random.PCG64(seed + c))
                  for c in range(5)]
        for c in range(0, 5, 2) if midway else ():
            for g in (np.random.Generator(bitgens[c]), scalar[c]):
                g.integers(0, 16)          # 16 rejects nothing: a half is left
                g.random()
        state = [b.state for b in bitgens]
        assert [s["has_uint32"] for s in state] == [midway, 0] * 2 + [midway]
        streams = _Streams(bitgens, n, hot, [
            s["uinteger"] if s["has_uint32"] else -1 for s in state])
        for block in counts:
            assert streams.take(block).tolist() == [
                draw(scalar[c]) for c, k in enumerate(block.tolist())
                for _ in range(k)]


#: Bounds of ``integers(0, n)``: every branch of NumPy's bounded draw.
_BOUNDS = [1, 3, 16, 37, 1000, 1024, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1,
           2**33 + 5]


@pytest.mark.parametrize("n", _BOUNDS)
def test_batched_integers_are_the_scalar_stream(n):
    """``integers(0, n, size=k)`` consumes PCG64 exactly as ``k`` scalar
    ``integers(0, n)`` calls (2^31 + 1 rejects about half its candidates),
    odd ``k`` included.  A NumPy that changes bounded-integer consumption
    fails here before any container digest does; so does one that changes
    the buffered ``next_uint32`` or Lemire's method, which the generator's
    ``uniform`` block draws convert raw words with."""
    batched, scalar = (np.random.Generator(np.random.PCG64(7))
                       for _ in range(2))
    for k in (1, 2, 7, 64, 3):
        assert batched.integers(0, n, size=k).tolist() == [
            int(scalar.integers(0, n)) for _ in range(k)]
        assert batched.bit_generator.state == scalar.bit_generator.state
    for seed in (9, 21, 4242):
        _block_draws(n, seed, hot=False)


@pytest.mark.parametrize("seed", [9, 21, 4242])
@pytest.mark.parametrize("n", _BOUNDS)
def test_hotspot_stream_is_the_scalar_stream(n, seed):
    """The generator's ``hotspot`` block draws read PCG64's raw words as
    ``hotspot``'s ``random()`` and ``integers(0, n)`` calls do.  2^31 + 1
    and 2^32 + 1 reject about half their candidates.  A NumPy that changes
    ``next_double`` or the buffered ``next_uint32`` fails here before any
    container digest does."""
    _block_draws(n, seed, hot=True)


def test_seed_words_are_numpys_seed_sequence():
    """All chains' ``SeedSequence`` hashing in one pass: the state words
    and the seeded ``PCG64`` equal NumPy's for seeds at the 32- and 64-bit
    edges and 2,500 hashed ones."""
    edges = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]
    seeds = np.array(edges, np.uint64)
    seeds = np.concatenate((seeds, fold(mix64(3, "chain"),
                                        np.arange(2500, dtype=np.uint64))))
    words = _seed_words(seeds)
    assert words.shape == (len(seeds), 4) and words.dtype == np.uint64
    for s, row in zip(seeds.tolist(), words):
        want = np.random.SeedSequence(s).generate_state(4, np.uint64)
        assert row.tolist() == want.tolist()
        assert (np.random.PCG64(_Seeded(row)).state
                == np.random.PCG64(s).state)


@pytest.mark.parametrize("pattern", ["uniform", "hotspot"])
def test_block_draws_across_many_small_blocks(monkeypatch, pattern):
    """Blocks four steps wide: every chain's buffered half and words drawn
    ahead cross hundreds of block boundaries, and the records are still the
    reference's."""
    profile = default_profile(1000, 6000, chains=16, pattern=pattern)
    monkeypatch.setattr(generator, "_BLOCK_CELLS", 64)
    assert list(iter_records(profile, seed=7)) == list(
        _iter_records_reference(profile, seed=7))


def test_stream_patterns_are_never_called(monkeypatch):
    """``uniform`` and ``hotspot`` destinations come from their streams:
    with both pattern functions raising, the merge still emits the same
    records."""
    profiles = [default_profile(1024, 20_000, pattern=pat)
                for pat in ("hotspot", "uniform")]
    want = [list(iter_records(p, seed=5)) for p in profiles]

    def called(*args):
        raise AssertionError("a stream pattern was called per message")

    for name in ("hotspot", "uniform"):
        monkeypatch.setitem(PATTERNS, name, called)
    assert [list(iter_records(p, seed=5)) for p in profiles] == want


def test_golden_corpus_is_on_the_grid():
    assert len(GOLDEN) == 4
    assert {_golden_fit(g).chains for g in GOLDEN} == {4, 16}


def test_blocks_are_hashed_once_and_dropped_behind_the_slowest_chain(
        monkeypatch):
    """Blocks four steps wide under a ~1100-step trace, so the chains drift
    across several blocks at once: each block is entered exactly once and
    in order, and the pending pool follows the spread between the slowest
    and the fastest chain, not the trace: a record leaves it once it
    injects before the slowest chain's next step."""
    spies = []

    class Spy(generator._Decisions):
        def __init__(self, *args):
            super().__init__(*args)
            self.entered, self.peak = [], 0
            spies.append(self)

        def enter(self, block):
            super().enter(block)
            self.entered.append(block)
            self.peak = max(self.peak, self.pending.shape[1])

    profile = default_profile(64, 20_000, chains=16)
    want = list(_iter_records_reference(profile, seed=3))
    monkeypatch.setattr(generator, "_BLOCK_CELLS", 64)
    monkeypatch.setattr(generator, "_Decisions", Spy)
    got = [r for chunk in generator._iter_chunks(profile, 1.0, 3, 16)
           for r in chunk.to_records()]
    assert got == want
    (spy,) = spies
    assert spy.span == 4
    assert len(spy.entered) > 250
    assert spy.entered == list(range(len(spy.entered)))
    cells = spy.span * spy.chains
    assert 3 * cells <= spy.peak <= 16 * cells < len(want) // 16


# ---------------------------------------------------------- container bytes

def _block_types(blob: bytes) -> list[str]:
    return [b["type"] for b in tracebin.scan_blocks(io.BytesIO(blob))["blocks"]]


@pytest.mark.parametrize("chunk_records, messages", [
    (7, 2100), (4096, 8192), (None, tracebin.CHUNK_RECORDS)])
@pytest.mark.parametrize("fanout_prob", [0.0, 0.3])
def test_streamed_container_is_the_dumped_trace(tmp_path, chunk_records,
                                                messages, fanout_prob):
    """``messages`` is a whole number of chunks: no empty trailing block."""
    kwargs = {} if chunk_records is None else {"chunk_records": chunk_records}
    size = chunk_records or tracebin.CHUNK_RECORDS
    profile = default_profile(64, messages, fanout_prob=fanout_prob)
    path = tmp_path / "s.rtrc"
    generate_to_file(profile, path, seed=8, **kwargs)
    blob = path.read_bytes()
    assert blob == tracebin.dumps(generate(profile, seed=8), **kwargs)

    types = _block_types(blob)
    assert types.count("RECORDS") == messages // size
    kinds = tracebin.load_trace(path).chunk.kinds
    if fanout_prob == 0.0:
        assert types.count("KINDS") == 1 and kinds == ("data",)
    else:
        # The first seven records are roots, so at seven a chunk "ctrl"
        # first shows up in a later chunk than "data" and gets its own
        # KINDS block; a large first chunk names both at once.
        assert types.count("KINDS") == (2 if size == 7 else 1)
        assert kinds == ("data", "ctrl")


@pytest.mark.parametrize("chunk_records", [1, 3])
def test_chunk_boundaries_inside_one_cycle(tmp_path, chunk_records):
    """On the tie-heavy profile a cycle's bucket holds many records, so
    most chunk boundaries fall inside one: the container is still the
    dumped trace, record for record the reference's."""
    profile = default_profile(16, 600, **_TIES)
    path = tmp_path / "ties.rtrc"
    generate_to_file(profile, path, seed=4, chunk_records=chunk_records)
    trace = generate(profile, seed=4)
    assert path.read_bytes() == tracebin.dumps(trace, chunk_records)
    assert trace.records == list(_iter_records_reference(profile, seed=4))
    t = [r.t_inject for r in trace.records]
    inside = [i for i in range(chunk_records, len(t), chunk_records)
              if t[i] == t[i - 1]]
    assert len(inside) > len(t) // chunk_records // 2


def _refused_file(tmp_path):
    path = tmp_path / "keep.rtrc"
    generate_to_file(default_profile(16, 100), path, seed=1)
    return path, path.read_bytes()


@pytest.mark.parametrize("chunk_records", [0, -5])
def test_refused_chunk_size_leaves_the_file_alone(tmp_path, chunk_records):
    path, before = _refused_file(tmp_path)
    with pytest.raises(ValueError, match="chunk_records must be positive"):
        generate_to_file(default_profile(16, 100), path,
                         chunk_records=chunk_records)
    assert path.read_bytes() == before
    with pytest.raises(ValueError, match="chunk_records must be positive"):
        cli.main(["synth", "generate", "--out", str(path), "--nodes", "16",
                  "--messages", "100", "--chunk-records", str(chunk_records)])
    assert path.read_bytes() == before


@pytest.mark.parametrize("scale", [-1.0, 0.0, math.nan, math.inf])
def test_a_scale_that_is_not_positive_and_finite_is_refused(tmp_path, scale):
    profile = default_profile(16, 100)
    path, before = _refused_file(tmp_path)
    for call in (lambda: profile.scaled_messages(scale),
                 lambda: generate(profile, scale=scale),
                 lambda: list(iter_records(profile, scale=scale)),
                 lambda: generate_to_file(profile, path, scale=scale)):
        with pytest.raises(ValueError, match=f"scale must be positive and "
                                             f"finite, got {scale!r}"):
            call()
    assert path.read_bytes() == before


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
@pytest.mark.parametrize("fields", [
    dict(base_latency=2**62),
    dict(gap_max=2**62, gap_mean=2.0**62),
    dict(gap_max=2**63 - 1, gap_mean=1e19),
    # One chain whose second injection time wraps past 2^63: no record
    # has a time ``check`` refuses, but it injects before its cause.
    dict(chains=1, messages=3, root_spread=2**62 - 7,
         base_latency=2**62 - 100, gap_max=2**62 - 1, gap_mean=2.0**63,
         fanout_prob=0.0)],
    ids=["latency-2^62", "gap-2^62", "gap-2^63", "wrapped-time"])
def test_streamed_file_refuses_what_generate_refuses(tmp_path, fields):
    """The container writer refuses with ``generate``'s error and leaves
    the path as it was: no file, or the one that was there."""
    profile = SynthProfile(**{**dict(num_nodes=64, messages=2000, chains=8),
                              **fields})
    with pytest.raises(ValueError) as refused:
        generate(profile)
    path, before = _refused_file(tmp_path)
    for target in (tmp_path / "new.rtrc", path):
        with pytest.raises(type(refused.value),
                           match=re.escape(str(refused.value))):
            generate_to_file(profile, target)
    assert not (tmp_path / "new.rtrc").exists()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.rtrc"]


def test_times_past_2_62_beyond_the_last_record_are_not_refused():
    """A block computes steps past the trace's end.  Here their times pass
    2^62 from the fifth step on, and the chain's next time after the block
    wraps past 2^63, while the four records the trace holds stay below
    2^62: the trace is generated as the reference generates it.  One
    record more, whose time is past 2^62, is refused with the record
    check's text."""
    profile = SynthProfile(num_nodes=64, messages=4, chains=1,
                           base_latency=2**60, gap_mean=1.0, gap_max=1,
                           size_mix=((64, 1.0),), fanout_prob=0.0,
                           root_spread=1)
    assert generator._Decisions(profile, 1.0, 0).span == 8
    assert list(iter_records(profile)) == list(
        _iter_records_reference(profile))
    with pytest.raises(ValueError,
                       match=r"^record 4 has a time beyond 2\^62 cycles$"):
        generate(replace(profile, messages=5))


def test_chunks_with_their_own_kind_tables_land_in_call_order(tmp_path):
    trace = generate(default_profile(16, 400, fanout_prob=0.5), seed=2)
    records = trace.records
    ctrl = next(i for i, r in enumerate(records) if r.kind == "ctrl")
    assert ctrl > 5
    # The chunk's own table starts with "ctrl"; the file's, by then, with
    # "data" — the writer maps one onto the other.
    chunk = tracebin.RecordChunk.from_records(records[ctrl:])
    assert chunk.kinds == ("ctrl", "data")

    out = io.BytesIO()
    writer = tracebin.BinaryTraceWriter(out, meta=trace.meta)
    writer.add_chunk(tracebin.RecordChunk.from_records(records[:5]))
    writer.add_chunk(tracebin.RecordChunk.from_records(records[5:ctrl]))
    writer.add_chunk(chunk)
    writer.add_chunk(tracebin.RecordChunk.from_records([]))
    writer.add_markers(trace.end_markers)
    writer.close(trace.exec_time)

    assert _block_types(out.getvalue()) == [
        "META", "KINDS", "RECORDS", "RECORDS", "KINDS", "RECORDS",
        "MARKERS", "END"]
    sizes = [len(c) for c in tracebin.iter_chunks(io.BytesIO(out.getvalue()))]
    assert sizes == [5, ctrl - 5, len(records) - ctrl]
    loaded = tracebin.loads(out.getvalue())
    assert loaded.records == records
    assert loaded.end_markers == trace.end_markers


def test_benchmark_container_digest_is_unchanged(tmp_path):
    """sha256 of the ``synth_generational_1k`` container, recorded at the
    commit before the prefix hashing went in — and the pin the benchmark
    spine checks, which is why it must equal ``expected.json``'s."""
    recorded = ("5792e0b363aec713bed7ced1b9c0b594"
                "b16db15ae21050c748bbf6e3980663a2")
    path = tmp_path / "uniform.rtrc"
    generate_to_file(default_profile(1024, 50_000, pattern="uniform"),
                     path, seed=11)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == recorded
    expected = json.loads(
        (REPO / "benchmarks" / "pipeline" / "expected.json").read_text())
    assert expected["seed"] == 11
    assert (expected["pins"]["full"]["synth_generational_1k"]
            ["container.sha256"] == recorded)


@pytest.mark.parametrize("sizes, workload, pattern, messages", [
    ("smoke", "synth_generational_1k", "uniform", 10_000),
    ("smoke", "synth_stream_300k", "hotspot", 10_000),
    ("full", "synth_stream_300k", "hotspot", 300_000)])
def test_other_spine_container_pins_regenerate(tmp_path, sizes, workload,
                                               pattern, messages):
    """The spine's three other ``container.sha256`` pins, read here and
    never written: regenerated at the spine's own sizes and seed."""
    expected = json.loads(
        (REPO / "benchmarks" / "pipeline" / "expected.json").read_text())
    path = tmp_path / "container.rtrc"
    generate_to_file(default_profile(1024, messages, pattern=pattern),
                     path, seed=expected["seed"])
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == expected["pins"][sizes][workload]["container.sha256"])
