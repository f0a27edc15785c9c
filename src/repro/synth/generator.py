"""Streaming synthetic trace generator (block-hashed, heap-merged, columnar).

The generator turns a :class:`~repro.synth.profile.SynthProfile` into a
valid dependency-annotated trace of any size without ever holding the
trace in memory: each chain is an independent sequential process whose
next injection time is always known (last delivery + a drawn gap), so a
heap merge across chains emits records *already in canonical
``(t_inject, msg_id)`` order* — exactly what the streaming readers and
``stream_naive_summary`` assume.

Determinism: every random decision is a pure splitmix64 hash of
``(seed, tag, chain, step)`` — the per-decision discipline shared with
``repro.validate.faults`` and ``repro.resilience.generators`` — plus one
PCG64 stream per chain for the destination patterns that need an rng
(consumed in fixed per-chain order).  Same profile + same seed therefore
means byte-identical binary output, which the property suite pins.

Because a hashed decision depends on nothing the merge produces, the
decisions are not computed where they are used.  :class:`_Decisions`
hashes size, latency, fan-out and both gaps for *all chains x the next
few steps* in one NumPy pass (``uint64`` products wrap mod 2^64, which is
the scalar hash's mask); the heap merge — the only per-record Python —
pops an entry, takes its destination(s), looks its decisions up and
appends seven ints to column lists.  One thing stays scalar on purpose:
``math.log`` in the gap draw (``np.log`` is not guaranteed the same last
bit, and a gap is ``int()`` of it).  The rng patterns make no call per
message: ``uniform`` draws each chain's destinations in refills
(:func:`_draws`) and ``hotspot`` turns refills of PCG64's raw outputs
into its ``random()`` / ``integers()`` values (:func:`_hotspot_draws`);
only the ``src``-determined patterns keep their call.  Every
``chunk_records`` emissions the lists become one
:class:`~repro.core.trace.RecordChunk`, which :func:`generate_to_file`
hands to the writer as it is: no :class:`~repro.core.trace.TraceRecord`
exists between hash and file.

Resident state is O(chains x live step spread + pending fan-out children
+ nodes + one chunk of column lists): a decision block is dropped when
the last chain leaves it, so what is held is the spread between the
slowest and the fastest chain, never the trace
(``benchmarks/bench_scale.py`` gates the RSS).

Capture invariants hold by construction: roots carry ``gap ==
t_inject``, every dependent injects at exactly ``cause.t_deliver + gap``
with ``gap >= 1``, causes always precede dependents (acyclicity), and
the end markers chain to the last delivery per node.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from pathlib import Path
from typing import Iterator, Union

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

#: The generator's kind table; a record's ``kind_idx`` is its heap flag.
_KINDS = ("data", "ctrl")

#: Destinations a chain of the ``uniform`` pattern draws per refill.
_DRAWS = 64


def _draws(rng: np.random.Generator, n: int) -> Iterator[int]:
    """Successive ``uniform_random`` destinations, :data:`_DRAWS` at a
    time: it ignores ``src`` and makes one ``rng.integers(0, n)`` call, and
    ``integers(0, n, size=k)`` consumes PCG64 exactly as ``k`` such calls."""
    while True:
        yield from rng.integers(0, n, size=_DRAWS).tolist()


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


#: The patterns whose destinations a chain draws as a stream of its rng.
_STREAMS = {"uniform": _draws, "hotspot": _hotspot_draws}


def _unit(prefix: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Uniform [0, 1] draws from the hashes of ``(*parts, step)``, given
    ``prefix = mix64(*parts)`` as ``uint64``.  ``astype`` rounds to
    nearest exactly as ``int / float`` does, so the 1024 hashes from
    2^64 - 1024 up come out as 1.0 in both."""
    return fold(prefix, steps).astype(np.float64) / float(1 << 64)


def _draw_gaps(profile: SynthProfile, units: list[float]) -> list[int]:
    """Truncated-exponential compute gaps, one per unit draw: mean
    ~``gap_mean``, >= 1, clipped at ``gap_max``.  ``u == 1.0`` (see
    :func:`_unit`) has no logarithm and takes the limit of its
    neighbours."""
    scale = max(0.0, profile.gap_mean - 1.0)
    gap_max = profile.gap_max
    limit = gap_max if scale > 0.0 else 1
    log = math.log
    return [min(gap_max, 1 + int(-log(1.0 - u) * scale)) if u < 1.0
            else limit for u in units]


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


class _Decisions:
    """The hashed decisions of every ``(chain, step)``, a block ahead.

    Block ``b`` covers steps ``[b * span, (b + 1) * span)`` of all chains:
    ``enter(b)`` hashes it into ``live[b]``, a chain-major flat list of
    ``(size, latency, gap, fan_gap)`` with ``fan_gap == 0`` meaning "no
    fan-out child" (a drawn gap is >= 1); ``leave(b)`` is called once per
    chain, after its last step in the block, and the block goes with the
    last one.  ``span`` is sized by the trace, so a 100-message trace does
    not pay for :data:`_BLOCK_CELLS` cells.
    """

    def __init__(self, profile: SynthProfile, seed: int, chains: int,
                 n_messages: int) -> None:
        self.span = max(1, min(_BLOCK_CELLS, n_messages) // chains)
        self.live: dict[int, list[tuple[int, int, int, int]]] = {}
        self._inside: dict[int, int] = {}
        self._profile = profile
        self._chains = chains
        self._sizes = _size_thresholds(profile)
        # The hash state after ``(seed, tag, chain)``, per decision tag
        # and chain: a decision folds only its ``step`` into it.
        index = np.arange(chains, dtype=np.uint64)[:, None]
        self._size_at, self._fan_at, self._fgap_at, self._gap_at = (
            fold(mix64(seed, tag), index)
            for tag in ("size", "fan", "fgap", "gap"))

    def enter(self, block: int) -> list[tuple[int, int, int, int]]:
        profile, span = self._profile, self.span
        steps = np.arange(block * span, (block + 1) * span,
                          dtype=np.uint64)[None, :]
        size = _draw_size(self._sizes, _unit(self._size_at, steps)).ravel()
        fan = (_unit(self._fan_at, steps) < profile.fanout_prob).ravel()
        fan_gap = np.zeros(len(fan), dtype=np.int64)
        fan_gap[fan] = _draw_gaps(
            profile, _unit(self._fgap_at, steps).ravel()[fan].tolist())
        gap = _draw_gaps(profile,
                         _unit(self._gap_at, steps).ravel().tolist())
        rows = list(zip(size.tolist(), _latency(profile, size).tolist(),
                        gap, fan_gap.tolist()))
        self.live[block] = rows
        self._inside[block] = self._chains
        return rows

    def leave(self, block: int) -> None:
        self._inside[block] -= 1
        if not self._inside[block]:
            del self.live[block], self._inside[block]


def _chunk(profile: SynthProfile, first: int,
           *cols: list[int]) -> RecordChunk:
    """The records ``first, first + 1, ...`` from the merge's seven column
    lists; every other column of the container follows from them (the
    semantic key of a synthetic message is ``(src, dst, kind, msg_id,
    0)``)."""
    src, dst, size, kind, t_inject, cause_id, gap = (
        np.array(col, dtype=np.int64) for col in cols)
    msg_id = np.arange(first, first + len(src), dtype=np.int64)
    return RecordChunk(
        msg_id=msg_id, src=src, dst=dst, size_bytes=size, kind_idx=kind,
        t_inject=t_inject, latency=_latency(profile, size),
        cause_id=cause_id, gap=gap, key_src=src, key_dst=dst,
        key_kind_idx=kind, key_line=msg_id,
        key_occ=np.zeros(len(src), dtype=np.int64), kinds=_KINDS)


def _iter_chunks(profile: SynthProfile, scale: float, seed: int,
                 chunk_records: int) -> Iterator[RecordChunk]:
    """The trace as column chunks of ``chunk_records`` records (the last
    one shorter), in canonical ``(t_inject, msg_id)`` order.

    ``msg_id`` is the emission index, so causes always precede dependents
    and the stream is sorted by construction.
    """
    if chunk_records < 1:
        raise ValueError("chunk_records must be positive")
    n_messages = profile.scaled_messages(scale)
    n = profile.num_nodes
    chains = min(profile.chains, n_messages)
    stream = _STREAMS.get(profile.pattern)
    pattern = None if stream else PATTERNS[profile.pattern]
    index = np.arange(chains, dtype=np.uint64)
    rngs = [np.random.Generator(np.random.PCG64(s))
            for s in fold(mix64(seed, "chain"), index).tolist()]
    # A chain's rng serves only its pattern's draws, step / fan-out in order.
    draws = [stream(rng, n).__next__ for rng in rngs] if stream else None
    decisions = _Decisions(profile, seed, chains, n_messages)
    span, live = decisions.span, decisions.live

    # Heap entries start (t_inject, flag, uid): flag orders chain steps
    # before children on injection-time ties; uid makes the order total
    # and deterministic.  A chain entry continues (c, step, src, cause_id,
    # gap), a child entry (src, dst, cause_id, gap).
    t0 = (fold(mix64(seed, "root"), index) % profile.root_spread).tolist()
    src0 = (fold(mix64(seed, "src"), index) % n).tolist()
    heap = [(t0[c], 0, c, c, 0, src0[c], -1, t0[c]) for c in range(chains)]
    heapq.heapify(heap)
    uid = chains
    pop, push = heapq.heappop, heapq.heappush

    for first in range(0, n_messages, chunk_records):
        cols = tuple([] for _ in range(7))
        (add_src, add_dst, add_size, add_kind, add_t, add_cause,
         add_gap) = (c.append for c in cols)
        for msg_id in range(first, min(first + chunk_records, n_messages)):
            entry = pop(heap)
            if entry[1]:
                t, flag, _, src, dst, cause_id, gap = entry
                size = _CTRL_BYTES
            else:
                t, flag, _, c, step, src, cause_id, gap = entry
                dst = draws[c]() if draws else pattern(src, n, rngs[c])
                if dst == src:  # e.g. the transpose diagonal
                    dst = (dst + 1) % n
                block, k = divmod(step, span)
                rows = live.get(block) or decisions.enter(block)
                size, latency, next_gap, fan_gap = rows[c * span + k]
                if k + 1 == span:
                    decisions.leave(block)
                t_deliver = t + latency
                if fan_gap:
                    third = draws[c]() if draws else pattern(dst, n, rngs[c])
                    if third == dst:
                        third = (third + 1) % n
                    push(heap, (t_deliver + fan_gap, 1, uid,
                                dst, third, msg_id, fan_gap))
                    uid += 1
                push(heap, (t_deliver + next_gap, 0, uid,
                            c, step + 1, dst, msg_id, next_gap))
                uid += 1
            add_src(src)
            add_dst(dst)
            add_size(size)
            add_kind(flag)
            add_t(t)
            add_cause(cause_id)
            add_gap(gap)

        yield _chunk(profile, first, *cols)


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

    def finish(self) -> list[EndMarker]:
        out = []
        for node in range(len(self.last_deliver)):
            if self.last_msg[node] == -1:
                out.append(EndMarker(node, 0, -1, 0))
            else:
                out.append(EndMarker(node, int(self.last_deliver[node]) + 10,
                                     int(self.last_msg[node]), 10))
        return out


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
    ends = markers.finish()
    trace = Trace.from_chunk(
        RecordChunk.concat(chunks, _KINDS), ends,
        max((m.t_finish for m in ends), default=0),
        _meta(profile, scale, seed))
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
    with open(path, "wb") as fp:
        writer = BinaryTraceWriter(fp, meta=_meta(profile, scale, seed))
        for chunk in _iter_chunks(profile, scale, seed, chunk_records):
            markers.see(chunk)
            writer.add_chunk(chunk)
            n += len(chunk)
        ends = markers.finish()
        writer.add_markers(ends)
        exec_time = max((m.t_finish for m in ends), default=0)
        writer.close(exec_time)
    return {
        "path": str(path),
        "messages": n,
        "end_markers": profile.num_nodes,
        "exec_time": exec_time,
        "file_bytes": path.stat().st_size,
        "wall_clock_s": time.perf_counter() - t0,
    }
