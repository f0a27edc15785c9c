"""Streaming synthetic trace generator (block-computed, calendar-merged).

The generator turns a :class:`~repro.synth.profile.SynthProfile` into a
valid dependency-annotated trace of any size without ever holding the
trace in memory: each chain is an independent sequential process whose
next injection time is always known (last delivery + a drawn gap), so a
calendar merge across chains emits records *already in canonical
``(t_inject, msg_id)`` order* — exactly what the streaming readers and
``stream_naive_summary`` assume.

Determinism: every random decision is a pure splitmix64 hash of
``(seed, tag, chain, step)`` (as in ``repro.validate.faults``) plus one
PCG64 stream per chain for the patterns that need an rng, consumed in
fixed per-chain order: same profile + seed, byte-identical output.  The
streams cost nothing per chain but one ``random_raw`` call per block:
every chain's ``SeedSequence`` hashing is one NumPy pass, and
:class:`_Streams` converts the raw words for all chains at once into
what ``integers(0, n)`` / ``random()`` calls would have returned.

Nothing about a chain's own records depends on the merge, so
:class:`_Decisions` computes them in NumPy blocks of all chains x
``span`` steps, and the merge — the only per-record Python — decides the
order and nothing else.  Each chunk's columns are gathered into a
:class:`~repro.core.trace.RecordChunk`: no ``TraceRecord`` exists
between hash and file.  Resident state is O(chains x live step spread +
pending children + nodes + one chunk), never the trace
(``benchmarks/bench_scale.py`` gates the generator's peak RSS).

Capture invariants hold by construction: roots carry ``gap ==
t_inject``, every dependent injects at exactly ``cause.t_deliver + gap``
with ``gap >= 1``, causes always precede dependents (acyclicity), and
the end markers chain to the last delivery per node.
"""

from __future__ import annotations

import array
import heapq
import math
import os
import time
from pathlib import Path
from typing import Iterator, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from repro.core.trace import EndMarker, RecordChunk, Trace, TraceRecord
from repro.core.tracebin import BinaryTraceWriter, CHUNK_RECORDS
from repro.engine.rng import fold, mix64
from repro.synth.profile import SynthProfile
from repro.traffic.patterns import PATTERNS

#: Upper bound on the (chain, step) cells hashed ahead in one block.
_BLOCK_CELLS = 16384

#: A fan-out child is a fixed-size control message.
_CTRL_BYTES = 64

#: The generator's kind table: a chain record is "data", a fan-out child
#: "ctrl".
_KINDS = ("data", "ctrl")

_M32 = 0xFFFFFFFF


#: ``SeedSequence``'s hash constants (``numpy/random/bit_generator.pyx``):
#: its ``hashmix`` call ``i`` XORs in ``init * mult**i`` and multiplies by
#: the next one, the pool's sequence and the output's.
_MIXING, _DRAWING = (
    np.array([init * mult**i % 2**32 for i in range(17)], np.uint32)[:, None]
    for init, mult in ((0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED)))


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` of every uint64
    seed ``s``, a row each: its 32-bit halves and two zeros hashed into a
    pool, mixed all-to-all, then drawn out as eight words."""
    def hashmix(v, const):              # one hash per row of ``const[1:]``
        v = (v ^ const[:-1]) * const[1:]
        return v ^ (v >> 16)

    pool = hashmix(np.stack((seeds & _M32, seeds >> 32, 0 * seeds, 0 * seeds)
                            ).astype(np.uint32), _MIXING[:5])
    for i in range(4):
        j = [k for k in range(4) if k != i]
        r = (pool[j] * np.uint32(0xCA01F9DD) - np.uint32(0x4973F715)
             * hashmix(pool[i], _MIXING[4 + 3 * i:8 + 3 * i]))
        pool[j] = r ^ (r >> 16)
    words = hashmix(pool[[0, 1, 2, 3] * 2], _DRAWING[:9])
    return words.T.astype("<u4", order="C").view("<u8").astype(np.uint64)


class _Seeded(ISeedSequence):
    """A ``SeedSequence`` whose state words :func:`_seed_words` computed."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


#: ``hotspot``'s parse: the state after a word, by the word's ``hot * 4 +
#: low half kept * 2 + high half kept``, as a map of the state before it
#: coded ``sum(after[s] << 2 * s)``; ``_THEN[a, b]`` is ``b``, then ``a``.
_SHIFT = 2 * np.arange(4, dtype=np.uint8)
_NEXT = (np.array([[3, 0, 3, 3], [3, 0, 3, 0], [3, 0, 3, 2], [3, 0, 3, 1],
                   [0, 1, 2, 3], [0, 1, 2, 0], [0, 1, 2, 2], [0, 1, 2, 1]],
                  np.uint8) << _SHIFT).sum(1, dtype=np.uint8)
_MAPS = np.arange(256, dtype=np.uint8)[:, None] >> _SHIFT & 3
_THEN = (_MAPS[:, _MAPS] << _SHIFT).sum(-1, dtype=np.uint8)


class _Streams:
    """Every chain's PCG64 stream read as ``uniform`` or ``hotspot``
    destinations, a block of all chains at a time: one ``random_raw`` call
    per chain, then NumPy on the words, consumed as the calls consume them.
    ``random()`` is ``(u >> 11) * 2**-53`` of a word ``u``; ``integers(0,
    n)`` takes nothing for ``n == 1``, whole words above 2^32, and else
    Lemire's method on ``next_uint32``: a fresh word's low half, then its
    buffered high half, which ``random()`` leaves be.  Chain ``c``'s unread
    stream is halves ``[_at[c], 2 * _end[c])`` of ``_words``, an odd ``_at``
    holding the buffered half (``half`` starts a chain with one).  Words
    are drawn ahead, enough unless Lemire rejects (then the block is read
    again with more).  ``hotspot`` parses the words: before one a chain
    decides with no buffered half (state 0), with one Lemire keeps (1) or
    rejects (2), or awaits an integer word (3); a word's hot test and its
    halves' verdicts map each state to the next (:data:`_NEXT`), and a
    doubling scan composes the maps along each chain."""

    def __init__(self, bitgens: list, n: int, hotspot: bool,
                 half=None) -> None:
        self._bitgens, self._n, self._narrow = bitgens, n, n - 1 <= _M32
        self._hot = hotspot and (0.1 if n > 1 else 1.0)  # n == 1: 0 anyway
        half = np.full(len(bitgens), -1 if half is None else half, np.int64)
        self._words = (half[half >= 0] << 32).astype(np.uint64)
        self._end = np.cumsum(half >= 0)
        self._at = 2 * self._end - (half >= 0)

    def take(self, counts: np.ndarray) -> np.ndarray:
        """Every chain's next ``counts[c]`` destinations, chain after chain."""
        if not counts.any() or self._n == 1 and not self._hot:
            return np.zeros(counts.sum(), np.int64)
        per = 1 if self._hot or not self._narrow else 2  # elements per word
        need = counts + (counts + 1) // 2 if self._hot else counts
        while True:
            unread = per * self._end - (per * self._at + 1) // 2
            self._refill(np.maximum(need - unread + per - 1, 0) // per)
            w, end, held = self._words, self._end, self._at % 2 == 1
            start = self._at // 2
            lengths = end - start
            if per == 2:        # each word's low, then high half
                value, emit = self._lemire(w.astype("<u8", copy=False).view(
                    "<u4").astype(np.uint64))
                at = np.arange(len(emit))
                emit &= at >= np.repeat(self._at, 2 * lengths)
            else:               # a buffered half's word is not read
                at, first = np.arange(len(w)), np.repeat(start, lengths)
                own = (at == first) & np.repeat(held, lengths)
                hi, hi_ok = self._lemire(w >> 32 if self._narrow else w)
                value, emit = hi, hi_ok & ~own
            if self._hot:
                lo, lo_ok = self._lemire(w & _M32)
                lo_ok &= self._narrow & ~own
                hot = (w >> 11) * 2.0**-53 < self._hot
                maps = np.where(own, 0xE4, _NEXT[hot * 4 + lo_ok * 2 + hi_ok])
                d = 1
                while d < lengths.max():
                    maps[d:] = np.where(at[d:] - first[d:] >= d,
                                        _THEN[maps[d:], maps[:-d]], maps[d:])
                    d *= 2
                s0 = np.where(own & self._narrow, 2 - hi_ok, 0)[first]
                state = maps >> 2 * s0 & 3
                pre = np.where(at == first, s0, np.roll(state, 1))
                # The held half is the high one of the latest awaited word
                # whose low half was kept.  Emitted: 0 if hot, the held half
                # if deciding from 1, if awaited the low, else high half.
                last = np.maximum.accumulate(np.where(
                    (pre == 3) & lo_ok | own, at, -1))
                emit = np.where(pre == 3, lo_ok | hi_ok,
                                hot | (pre == 1)) & ~own
                value = np.where(pre == 3, np.where(lo_ok, lo, hi),
                                 np.where(hot, 0, hi[last]))
            done = np.concatenate(([0], np.cumsum(emit)))
            skip = (per * self._at + 1) // 2       # a chain's first unread
            e = np.searchsorted(done[1:], done[skip] + counts)
            e = np.where(counts > 0, e, skip - 1)     # and last read element
            if (e < per * end).all():
                break
            need = need + np.where(e < per * end, 0, counts + 2)
        if per == 2:
            self._at = e + 1
        else:       # word e, consumed, takes over the buffered half
            keep = (state[e] % 3 > 0 if self._hot and self._narrow
                    else held) & (counts > 0)
            w[e[keep]] = w[(last[e] if self._hot else start)[keep]]
            self._at = np.where(counts > 0, 2 * e + 2 - keep, self._at)
        return value[emit & (at <= np.repeat(e, per * lengths))]

    def _lemire(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(x * n) >> bits``, and whether Lemire's method keeps it: not
        where the low ``bits`` of the product fall under ``(2^bits - n) %
        n``.  Above 32 bits the high word of the 128-bit product is summed
        from 32-bit limbs; the wrapped product is its low word."""
        n = np.uint64(self._n)
        low = x * n
        if self._narrow:
            return (low >> 32).astype(np.int64), (
                low & _M32) >= (2**32 - self._n) % self._n
        xl, xh, nl, nh = x & _M32, x >> 32, n & _M32, n >> 32
        cross = (xl * nl >> 32) + (xh * nl & _M32) + xl * nh
        high = xh * nh + (xh * nl >> 32) + (cross >> 32)
        return high.astype(np.int64), low >= (2**64 - self._n) % self._n

    def _refill(self, more: np.ndarray) -> None:
        """Chain ``c``'s unread words (from a buffered half's), then
        ``more[c]`` fresh ones."""
        first = self._at // 2
        left = self._end - first
        unread = np.arange(len(self._words)) >= np.repeat(
            first, np.diff(self._end, prepend=0))
        chain = np.arange(len(more))
        order = np.argsort(np.concatenate((chain.repeat(left),
                                           chain.repeat(more))), kind="stable")
        self._words = np.concatenate([self._words[unread]] + [
            bitgen.random_raw(k) for bitgen, k in zip(self._bitgens,
                                                      more.tolist()) if k]
            )[order]
        self._end = np.cumsum(left + more)
        self._at = 2 * (self._end - left - more) + self._at % 2


def _unit(prefix: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Uniform [0, 1] draws from the hashes of ``(*parts, step)``, given
    ``prefix = mix64(*parts)`` as ``uint64``.  ``astype`` rounds to
    nearest exactly as ``int / float`` does, so the 1024 hashes from
    2^64 - 1024 up come out as 1.0 in both."""
    return fold(prefix, steps).astype(np.float64) / float(1 << 64)


def _draw_gaps(profile: SynthProfile, units) -> np.ndarray:
    """Truncated-exponential compute gaps ``min(gap_max, 1 + int(-math.log(1
    - u) * scale))``: mean ~``gap_mean``, >= 1.  ``np.log`` may differ from
    ``math.log`` in the last bit, which moves ``int()`` only near an
    integer, so cells within 1e-9 (relative) of one are redrawn with
    ``math.log``.  ``u == 1.0`` (see :func:`_unit`) has no logarithm and
    takes the limit of its neighbours."""
    units = np.asarray(units, dtype=np.float64)
    scale = max(0.0, profile.gap_mean - 1.0)
    top = units >= 1.0
    scaled = -np.log(np.where(top, 1.0, 1.0 - units)) * scale
    near = np.abs(scaled - np.rint(scaled)) < 1e-9 * scaled
    scaled[near] = [-math.log(1.0 - u) * scale for u in units[near].tolist()]
    gaps = np.minimum(np.minimum(scaled, profile.gap_max).astype(np.int64)
                      + 1, profile.gap_max)
    gaps[top] = profile.gap_max if scale > 0.0 else 1
    return gaps


def _size_thresholds(profile: SynthProfile) -> tuple[np.ndarray, np.ndarray]:
    """``(cumulative shares, sizes)`` of ``size_mix``, in its order."""
    total = sum(w for _, w in profile.size_mix)
    acc = 0.0
    shares = []
    for _, weight in profile.size_mix:
        acc += weight / total
        shares.append(acc)
    return np.array(shares), np.array([s for s, _ in profile.size_mix])


def _draw_size(thresholds: tuple[np.ndarray, np.ndarray],
               u: np.ndarray) -> np.ndarray:
    """The size of the first share ``u`` falls under (the last one's when
    rounding left the shares short of ``u``)."""
    shares, sizes = thresholds
    pick = np.searchsorted(shares, u, side="right")
    return sizes[np.minimum(pick, len(sizes) - 1)]


def _latency(profile: SynthProfile, size):
    """Capture-network latency of a ``size``-byte message (int or array)."""
    return profile.base_latency + size // 16


def _away(dst, src, n: int):
    """``dst``, moved one node on where it equals ``src`` (ints or arrays):
    the generator sends no message to itself."""
    return np.where(dst == src, (dst + 1) % n, dst)


class _Decisions:
    """Every chain's records, a block of steps at a time.

    Block ``b`` is steps ``[b * span, (b + 1) * span)`` of all chains,
    step-major (chain ``c`` at step ``s`` is cell ``s * chains + c``).
    ``enter(b)`` appends the merge's per-cell times (the chain's next
    injection; its fan-out child's, or 0) to ``next_t`` / ``kid_t`` and
    keeps both records' columns for :meth:`chunk` to gather from;
    :meth:`drop` frees the oldest ``live`` blocks (cells from ``first``
    on).  ``span`` covers twice the trace's cells, up to
    :data:`_BLOCK_CELLS`, so a short trace's chains rarely outrun one block.
    """

    def __init__(self, profile: SynthProfile, scale: float,
                 seed: int) -> None:
        self.n_messages = profile.scaled_messages(scale)
        self.chains = chains = min(profile.chains, self.n_messages)
        self.span = max(1, min(_BLOCK_CELLS, 2 * self.n_messages) // chains)
        self.live, self.first = range(0), 0
        self.next_t, self.kid_t = array.array("q"), array.array("q")
        self._blocks: list[tuple[int, np.ndarray]] = []  # last t, columns
        self._profile = profile
        self._sizes = _size_thresholds(profile)
        n = profile.num_nodes
        index = np.arange(chains, dtype=np.uint64)
        # The hash state after ``(seed, tag, chain)``, per tag and chain: a
        # decision folds only its ``step`` into one of the first four.
        prefix = fold(np.array([mix64(seed, tag) for tag in (
            "size", "fan", "fgap", "gap", "root", "src", "chain")],
            np.uint64)[:, None], index)
        self._prefix = prefix[:4, :, None]
        # Per chain: next injection, its gap (a root's: its t_inject), src.
        self._t = self._gap = (prefix[4] % profile.root_spread).astype(
            np.int64)
        self._src = (prefix[5] % n).astype(np.int64)
        # A chain's PCG64 serves only these patterns' draws; under any other
        # pattern a destination is a function of its source.
        self._streams = profile.pattern in ("uniform", "hotspot") and _Streams(
            [np.random.PCG64(_Seeded(words))
             for words in _seed_words(prefix[6])],
            n, profile.pattern == "hotspot")
        if not self._streams:
            pattern = PATTERNS[profile.pattern]
            self._next = _away(np.array([pattern(v, n, None)
                                         for v in range(n)]), np.arange(n), n)

    def enter(self, block: int) -> int:
        """Compute ``block``, the one after ``live``; return its end cell."""
        profile, span = self._profile, self.span
        steps = np.arange(block * span, (block + 1) * span, dtype=np.uint64)
        units = _unit(self._prefix, steps)
        size = _draw_size(self._sizes, units[0])
        fan = units[1] < profile.fanout_prob
        fan_gap, gap = _draw_gaps(profile, units[2:])
        fan_gap = np.where(fan, fan_gap, 0)
        delivered = _latency(profile, size)
        next_t = self._t[:, None] + np.cumsum(delivered + gap, axis=1)
        t = next_t - delivered - gap
        kid_t = np.where(fan, t + delivered + fan_gap, 0)
        src, dst, third = self._destinations(fan)
        carried = np.concatenate((self._gap[:, None], gap[:, :-1]), axis=1)
        self._t, self._gap, self._src = next_t[:, -1], gap[:, -1], dst[:, -1]

        # A chain record's columns, then its fan-out child's.
        table = np.stack((src, dst, size, t, carried, dst, third,
                          np.full_like(size, _CTRL_BYTES), kid_t, fan_gap)
                         ).transpose(0, 2, 1).reshape(10, -1)
        self._blocks.append((int(max(t.max(), kid_t.max())), table))
        self.next_t.frombytes(next_t.T.tobytes())
        self.kid_t.frombytes(kid_t.T.tobytes())
        self.live = range(self.live.start, block + 1)
        return (block + 1) * span * self.chains

    def _destinations(self, fan: np.ndarray):
        """``(src, dst, third)`` per cell: a source is its chain's previous
        destination, and a destination (or fan-out third) equal to the node
        it leaves moves one node on (:func:`_away`)."""
        if not self._streams:
            dst = np.empty(fan.shape, dtype=np.int64)
            node = self._src
            for k in range(fan.shape[1]):
                node = dst[:, k] = self._next[node]
            return self._sources(dst), dst, self._next[dst]
        n, span = self._profile.num_nodes, fan.shape[1]
        counts = span + fan.sum(axis=1)
        drawn = self._streams.take(counts)
        # A chain draws each step's destination, then its fan-out third.
        at = ((np.cumsum(counts) - counts)[:, None] + np.arange(span)
              + np.cumsum(fan, axis=1) - fan)
        raw = dst = drawn[at]
        # ``dst[k]`` moves on iff ``raw[k] == dst[k - 1]``: iterate to the
        # fixed point, one pass per link of the longest run of moves.
        while True:
            src = self._sources(dst)
            moved = _away(raw, src, n)
            if np.array_equal(moved, dst):
                return src, dst, _away(
                    drawn[np.minimum(at + 1, len(drawn) - 1)], dst, n)
            dst = moved

    def _sources(self, dst: np.ndarray) -> np.ndarray:
        return np.concatenate((self._src[:, None], dst[:, :-1]), axis=1)

    def drop(self, t: int) -> int:
        """Free the oldest blocks whose records all inject before ``t``
        (the caller has flushed every such record); return ``first``."""
        cells = self.span * self.chains
        while self._blocks and self._blocks[0][0] < t:
            del self._blocks[0], self.next_t[:cells], self.kid_t[:cells]
            self.live = self.live[1:]
            self.first += cells
        return self.first

    def chunk(self, pairs: list[int], first: int) -> RecordChunk:
        """Records ``first, first + 1, ...`` from the merge's flat ``(cell,
        cause_id)`` pairs (a fan-out child's cell is ``~`` its parent's); a
        synthetic message's semantic key is ``(src, dst, kind, msg_id, 0)``."""
        cell, cause_id = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        kid = cell < 0
        at = np.where(kid, ~cell, cell) - self.first
        cols = np.empty((10, len(at)), dtype=np.int64)
        for b, (_, table) in enumerate(self._blocks):
            mine = at // table.shape[1] == b
            cols[:, mine] = table.take(at[mine] - b * table.shape[1], 1)
        src, dst, size, t, gap = np.where(kid, cols[5:], cols[:5])
        kind = kid.astype(np.int64)
        msg_id = np.arange(first, first + len(src), dtype=np.int64)
        return RecordChunk(
            msg_id=msg_id, src=src, dst=dst, size_bytes=size, kind_idx=kind,
            t_inject=t, latency=_latency(self._profile, size),
            cause_id=np.ascontiguousarray(cause_id),
            gap=gap, key_src=src, key_dst=dst,
            key_kind_idx=kind, key_line=msg_id,
            key_occ=np.zeros(len(src), dtype=np.int64), kinds=_KINDS)


def _iter_chunks(profile: SynthProfile, scale: float, seed: int,
                 chunk_records: int) -> Iterator[RecordChunk]:
    """The trace as column chunks of ``chunk_records`` records (the last
    one shorter), in canonical ``(t_inject, msg_id)`` order: ``msg_id`` is
    the emission index, so causes always precede dependents.  A bad
    ``chunk_records`` or scale is refused here, before the first chunk."""
    if chunk_records < 1:
        raise ValueError("chunk_records must be positive")
    return _merge(_Decisions(profile, scale, seed), chunk_records)


def _merge(decisions: _Decisions,
           chunk_records: int) -> Iterator[RecordChunk]:
    """Which record comes next: per pending injection cycle, the chain
    records then the fan-out children due, as flat ``(cell, cause_id)``
    lists in push order, and a heap of the pending cycles.  That is the
    order of a heap of ``(t_inject, is_child, push index)``: a record
    pushes only cycles two or more past its own (latency, gap >= 1), so a
    popped cycle is complete, and its pairs are the emitted records."""
    next_t, kid_t = decisions.next_t, decisions.kid_t
    n_messages, chains = decisions.n_messages, decisions.chains
    cells = decisions.span * chains
    calendar: dict[int, list[list[int]]] = {}
    for c, t in enumerate(decisions._t.tolist()):     # the chains' roots
        calendar.setdefault(t, [[], []])[0].extend((c, -1))
    cycles = list(calendar)
    heapq.heapify(cycles)
    pop, push = heapq.heappop, heapq.heappush
    out: list[int] = []
    first = m = off = end = 0       # m: the next msg_id to hand out
    flush = min(chunk_records, n_messages)   # where the next chunk ends
    while True:
        t = pop(cycles)
        due, kids = calendar.pop(t)
        out += due
        for cell in due[::2]:
            if cell >= end:
                end = decisions.enter(cell // cells)
            i = cell - off
            at = next_t[i]
            pending = calendar.get(at)
            if pending is None:
                calendar[at] = pending = [[], []]
                push(cycles, at)
            pending[0] += (cell + chains, m)
            at = kid_t[i]
            if at:
                pending = calendar.get(at)
                if pending is None:
                    calendar[at] = pending = [[], []]
                    push(cycles, at)
                pending[1] += (~cell, m)
            m += 1
        out += kids
        m += len(kids) >> 1
        while m >= flush:
            size = flush - first
            yield decisions.chunk(out[:2 * size], first)
            del out[:2 * size]
            if flush == n_messages:
                return
            first, flush = flush, min(flush + chunk_records, n_messages)
            # Every record before cycle ``t`` is flushed once a chunk is.
            off = decisions.drop(t)


def iter_records(profile: SynthProfile, scale: float = 1.0,
                 seed: int = 0) -> Iterator[TraceRecord]:
    """Yield the trace's records in canonical ``(t_inject, msg_id)`` order,
    decoded a chunk at a time from the generator's columns."""
    for chunk in _iter_chunks(profile, scale, seed, CHUNK_RECORDS):
        yield from chunk.to_records()


class _Markers:
    """O(nodes) end-marker tracker: last delivery per destination."""

    def __init__(self, num_nodes: int) -> None:
        self.last_deliver = np.full(num_nodes, -1, dtype=np.int64)
        self.last_msg = np.full(num_nodes, -1, dtype=np.int64)

    def see(self, chunk: RecordChunk) -> None:
        """Per destination, the first record to reach its latest delivery
        — and only a strictly later delivery displaces an earlier chunk's."""
        t_deliver = chunk.t_deliver
        # Stable, so among equal deliveries the earliest record leads.
        order = np.lexsort((-t_deliver, chunk.dst))
        dst = chunk.dst[order]
        lead = order[np.flatnonzero(np.r_[True, dst[1:] != dst[:-1]])]
        lead = lead[t_deliver[lead] > self.last_deliver[chunk.dst[lead]]]
        self.last_deliver[chunk.dst[lead]] = t_deliver[lead]
        self.last_msg[chunk.dst[lead]] = chunk.msg_id[lead]

    def finish(self) -> tuple[list[EndMarker], int]:
        """The end markers and the trace's ``exec_time``."""
        ends = [EndMarker(node, 0, -1, 0) if msg == -1
                else EndMarker(node, t + 10, msg, 10)
                for node, (t, msg) in enumerate(zip(
                    self.last_deliver.tolist(), self.last_msg.tolist()))]
        return ends, max((m.t_finish for m in ends), default=0)


def _meta(profile: SynthProfile, scale: float, seed: int) -> dict:
    return {
        "synthetic": "repro.synth",
        "num_cores": profile.num_nodes,
        "seed": seed,
        "scale": scale,
        "profile": profile.as_dict(),
    }


def generate(profile: SynthProfile, scale: float = 1.0,
             seed: int = 0) -> Trace:
    """Materialize the synthetic trace as a validated :class:`Trace`.

    For traces that fit in memory (tests, experiment points).  At the
    million-message scale use :func:`generate_to_file`, which streams the
    identical records into the binary container instead.
    """
    markers = _Markers(profile.num_nodes)
    chunks = []
    for chunk in _iter_chunks(profile, scale, seed, CHUNK_RECORDS):
        markers.see(chunk)
        chunks.append(chunk)
    trace = Trace.from_chunk(RecordChunk.concat(chunks, _KINDS),
                             *markers.finish(), _meta(profile, scale, seed))
    trace.validate()
    return trace


def generate_to_file(profile: SynthProfile, path: Union[str, Path],
                     scale: float = 1.0, seed: int = 0,
                     chunk_records: int = CHUNK_RECORDS) -> dict:
    """Stream the synthetic trace straight into the binary container.

    Emits the exact record stream :func:`generate` would produce (same
    profile, scale, seed => byte-identical file, and identical to
    ``tracebin.dumps(generate(...))`` at equal ``chunk_records``), one
    column chunk of ``chunk_records`` records at a time — the path that
    makes >=10^6-message traces cheap.  Returns a summary dict.

    What :func:`generate` refuses is refused with its error before the
    offending chunk is written, and the file is written beside ``path`` and
    moved there once complete, so a refusal leaves ``path`` as it was.
    """
    path = Path(path)
    t0 = time.perf_counter()
    markers = _Markers(profile.num_nodes)
    n = 0
    chunks = _iter_chunks(profile, scale, seed, chunk_records)  # refuses first
    part = path.with_name(path.name + ".part")
    try:
        with open(part, "wb") as fp:
            writer = BinaryTraceWriter(fp, meta=_meta(profile, scale, seed))
            for chunk in chunks:
                chunk.check()
                if (chunk.t_inject < 0).any():      # wrapped past 2^63
                    generate(profile, scale, seed)  # raises its refusal
                markers.see(chunk)
                writer.add_chunk(chunk)
                n += len(chunk)
            ends, exec_time = markers.finish()
            writer.add_markers(ends)
            writer.close(exec_time)
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise
    return {
        "path": str(path),
        "messages": n,
        "end_markers": profile.num_nodes,
        "exec_time": exec_time,
        "file_bytes": path.stat().st_size,
        "wall_clock_s": time.perf_counter() - t0,
    }
