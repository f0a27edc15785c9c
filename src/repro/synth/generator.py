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
fixed per-chain order: same profile + seed, byte-identical output.

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
import functools
import heapq
import itertools
import math
import time
from pathlib import Path
from typing import Callable, Iterator, Union

import numpy as np

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

#: Raw PCG64 outputs a ``hotspot`` chain reads per refill.
_DRAWS = 64


def _draws(rng: np.random.Generator, n: int) -> Callable[[int], np.ndarray]:
    """A chain's next ``k`` ``uniform_random`` destinations in one call: it
    ignores ``src`` and makes one ``integers(0, n)`` call, and
    ``integers(0, n, size=k)`` consumes PCG64 exactly as ``k`` such calls."""
    return functools.partial(rng.integers, 0, n)


def _hotspot_draws(rng: np.random.Generator, n: int) -> Iterator[int]:
    """Successive ``hotspot`` destinations from PCG64's raw outputs,
    :data:`_DRAWS` at a time, consumed exactly as its calls consume them:
    ``random()`` is ``(u >> 11) * 2**-53`` of one output ``u``;
    ``integers(0, n)`` is Lemire's method on ``next_uint32`` (the low half
    of a fresh output, then its buffered high half, which ``random()``
    leaves alone) for ``n <= 2**32``, on whole outputs above that, and
    takes nothing for ``n == 1``."""
    bitgen = rng.bit_generator
    if not isinstance(bitgen, np.random.PCG64):
        raise TypeError(f"hotspot draws emulate PCG64, "
                        f"not {type(bitgen).__name__}")
    state = bitgen.state
    half = state["uinteger"] if state["has_uint32"] else -1
    raw = itertools.chain.from_iterable(          # endless refills
        iter(lambda: bitgen.random_raw(_DRAWS).tolist(), None)).__next__
    wide = n - 1 > 0xFFFFFFFF
    bits = 64 if wide else 32
    mask = (1 << bits) - 1
    floor = ((1 << bits) - n) % n      # Lemire's rejection threshold
    hot = 0.1 if n > 1 else 1.0        # n == 1 answers 0 either way
    while True:
        if (raw() >> 11) * 2.0 ** -53 < hot:
            yield 0
            continue
        while True:
            if wide:
                x = raw()
            elif half < 0:
                x = raw()
                x, half = x & 0xFFFFFFFF, x >> 32
            else:
                x, half = half, -1
            m = x * n
            if m & mask >= floor:
                break
        yield m >> bits


#: The patterns whose destinations a chain draws from its rng, as one call
#: per chain answering its next ``k``.  Every other pattern ignores its rng.
_STREAMS = {"uniform": _draws, "hotspot": lambda rng, n: functools.partial(
    lambda it, k: np.fromiter(itertools.islice(it, k), np.int64, k),
    _hotspot_draws(rng, n))}


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
        # The hash state after ``(seed, tag, chain)``, per decision tag
        # and chain: a decision folds only its ``step`` into it.
        self._size_at, self._fan_at, self._fgap_at, self._gap_at = (
            fold(mix64(seed, tag), index[:, None])
            for tag in ("size", "fan", "fgap", "gap"))
        # Per chain: next injection, its gap (a root's: its t_inject), src.
        self._t = self._gap = (fold(mix64(seed, "root"), index)
                               % profile.root_spread).astype(np.int64)
        self._src = (fold(mix64(seed, "src"), index) % n).astype(np.int64)
        # A chain's rng serves only its pattern's draws; under any other
        # pattern a destination is a function of its source.
        stream = _STREAMS.get(profile.pattern)
        self._streams = stream and [
            stream(np.random.Generator(np.random.PCG64(s)), n)
            for s in fold(mix64(seed, "chain"), index).tolist()]
        if not stream:
            pattern = PATTERNS[profile.pattern]
            self._next = _away(np.array([pattern(v, n, None)
                                         for v in range(n)]), np.arange(n), n)

    def enter(self, block: int) -> int:
        """Compute ``block``, the one after ``live``; return its end cell."""
        profile, span = self._profile, self.span
        steps = np.arange(block * span, (block + 1) * span, dtype=np.uint64)
        size = _draw_size(self._sizes, _unit(self._size_at, steps))
        fan = _unit(self._fan_at, steps) < profile.fanout_prob
        fan_gap = np.where(fan, _draw_gaps(profile,
                                           _unit(self._fgap_at, steps)), 0)
        gap = _draw_gaps(profile, _unit(self._gap_at, steps))
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
        drawn = np.concatenate(
            [take(k) for take, k in zip(self._streams, counts.tolist())])
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
    """
    path = Path(path)
    t0 = time.perf_counter()
    markers = _Markers(profile.num_nodes)
    n = 0
    chunks = _iter_chunks(profile, scale, seed, chunk_records)  # refuses first
    with open(path, "wb") as fp:
        writer = BinaryTraceWriter(fp, meta=_meta(profile, scale, seed))
        for chunk in chunks:
            markers.see(chunk)
            writer.add_chunk(chunk)
            n += len(chunk)
        ends, exec_time = markers.finish()
        writer.add_markers(ends)
        writer.close(exec_time)
    return {
        "path": str(path),
        "messages": n,
        "end_markers": profile.num_nodes,
        "exec_time": exec_time,
        "file_bytes": path.stat().st_size,
        "wall_clock_s": time.perf_counter() - t0,
    }
