"""Streaming synthetic trace generator (splitmix64-seeded, heap-merged).

The generator turns a :class:`~repro.synth.profile.SynthProfile` into a
valid dependency-annotated trace of any size without ever holding the
trace in memory: each chain is an independent sequential process whose
next injection time is always known (last delivery + a drawn gap), so a
heap merge across chains emits records *already in canonical
``(t_inject, msg_id)`` order* — exactly what the streaming readers and
``stream_naive_summary`` assume — while keeping only O(chains + pending
fan-out children + nodes) state resident.  :func:`generate_to_file`
feeds the records straight into the chunked
:class:`~repro.core.tracebin.BinaryTraceWriter`, so a million-message
trace costs one chunk of buffering, not a million records.

Determinism: every random decision is a pure splitmix64 hash of
``(seed, tag, chain, step)`` — the per-decision discipline shared with
``repro.validate.faults`` and ``repro.resilience.generators`` — plus one
PCG64 stream per chain for the destination patterns that need an rng
(consumed in fixed per-chain order).  The hash state after ``(seed, tag,
chain)`` is kept per tag and chain (O(chains)), so a decision folds in
one part, not four.  Same profile + same seed therefore means
byte-identical binary output, which the property suite pins.

Capture invariants hold by construction: roots carry ``gap ==
t_inject``, every dependent injects at exactly ``cause.t_deliver + gap``
with ``gap >= 1``, causes always precede dependents (acyclicity), and
the end markers chain to the last delivery per node.
"""

from __future__ import annotations

import heapq
import math
import time
from pathlib import Path
from typing import Iterator, Union

import numpy as np

from repro.core.trace import EndMarker, Trace, TraceRecord
from repro.core.tracebin import BinaryTraceWriter, CHUNK_RECORDS
from repro.synth.profile import SynthProfile
from repro.traffic.patterns import PATTERNS

_MASK64 = (1 << 64) - 1


def _fold(x: int, p: int) -> int:
    """One splitmix64 finalizer round: absorb the int ``p`` into state ``x``."""
    x ^= p & _MASK64
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _mix64(*parts) -> int:
    """Deterministic 64-bit hash (splitmix64 finalizer chain) — the same
    discipline as ``repro.validate.faults._mix64``, duplicated so the
    generator never imports the validation stack.  The hash of a prefix is
    the state the next part is folded into:
    ``_mix64(*parts, p) == _fold(_mix64(*parts), p)``."""
    x = 0x9E3779B97F4A7C15
    for p in parts:
        if isinstance(p, str):
            p = int.from_bytes(p.encode("utf-8"), "little")
        x = _fold(x, p)
    return x


def _unit(prefix: int, step: int) -> float:
    """Uniform [0, 1) draw from the hash of ``(*parts, step)``, given
    ``prefix = _mix64(*parts)``."""
    return _fold(prefix, step) / float(1 << 64)


def _draw_gap(profile: SynthProfile, u: float) -> int:
    """Truncated-exponential compute gap: mean ~``gap_mean``, >= 1,
    clipped at ``gap_max``."""
    scale = max(0.0, profile.gap_mean - 1.0)
    gap = 1 + int(-math.log(1.0 - u) * scale)
    return min(profile.gap_max, gap)


def _size_thresholds(profile: SynthProfile) -> list[tuple[float, int]]:
    """``(cumulative share, size)`` per ``size_mix`` entry, in its order."""
    total = sum(w for _, w in profile.size_mix)
    acc = 0.0
    out = []
    for size, weight in profile.size_mix:
        acc += weight / total
        out.append((acc, size))
    return out


def _draw_size(thresholds: list[tuple[float, int]], u: float) -> int:
    for acc, size in thresholds:
        if u < acc:
            return size
    return thresholds[-1][1]


def _latency(profile: SynthProfile, size: int) -> int:
    return profile.base_latency + size // 16


class _Markers:
    """O(nodes) end-marker tracker: last delivery per destination."""

    def __init__(self, num_nodes: int) -> None:
        self.last_deliver = np.full(num_nodes, -1, dtype=np.int64)
        self.last_msg = np.full(num_nodes, -1, dtype=np.int64)

    def see(self, dst: int, t_deliver: int, msg_id: int) -> None:
        if t_deliver > self.last_deliver[dst]:
            self.last_deliver[dst] = t_deliver
            self.last_msg[dst] = msg_id

    def finish(self) -> list[EndMarker]:
        out = []
        for node in range(len(self.last_deliver)):
            if self.last_msg[node] == -1:
                out.append(EndMarker(node, 0, -1, 0))
            else:
                out.append(EndMarker(node, int(self.last_deliver[node]) + 10,
                                     int(self.last_msg[node]), 10))
        return out


def _dest(profile: SynthProfile, src: int, rng: np.random.Generator) -> int:
    d = int(PATTERNS[profile.pattern](src, profile.num_nodes, rng))
    if d == src:  # patterns may map to self (e.g. the transpose diagonal)
        d = (d + 1) % profile.num_nodes
    return d


def iter_records(profile: SynthProfile, scale: float = 1.0,
                 seed: int = 0) -> Iterator[TraceRecord]:
    """Yield the trace's records in canonical ``(t_inject, msg_id)`` order.

    ``msg_id`` is the emission index, so causes always precede dependents
    and the stream is sorted by construction.  Memory is O(chains +
    pending fan-out children); see the module docstring.
    """
    n_messages = profile.scaled_messages(scale)
    n = profile.num_nodes
    chains = min(profile.chains, n_messages)
    rngs = [np.random.Generator(np.random.PCG64(_mix64(seed, "chain", c)))
            for c in range(chains)]
    # The hash state after ``(seed, tag, chain)``, per decision tag and
    # chain: a decision folds only its ``step`` into it.
    size_at, fan_at, fgap_at, gap_at = (
        [_mix64(seed, tag, c) for c in range(chains)]
        for tag in ("size", "fan", "fgap", "gap"))
    sizes = _size_thresholds(profile)

    # Heap entries: (t_inject, flag, uid, item).  flag orders chain steps
    # before children on injection-time ties; uid makes ordering total and
    # deterministic.  Chain item: (c, step, cur_node, cause_id, gap).
    # Child item: (src, dst, size, cause_id, gap).
    heap: list[tuple] = []
    uid = 0
    for c in range(chains):
        t0 = _mix64(seed, "root", c) % profile.root_spread
        src = _mix64(seed, "src", c) % n
        heapq.heappush(heap, (t0, 0, uid, (c, 0, src, -1, t0)))
        uid += 1

    emitted = 0
    while emitted < n_messages:
        t, flag, _, item = heapq.heappop(heap)
        if flag == 0:
            c, step, cur, cause_id, gap = item
            dst = _dest(profile, cur, rngs[c])
            size = _draw_size(sizes, _unit(size_at[c], step))
            t_del = t + _latency(profile, size)
            msg_id = emitted
            yield TraceRecord(
                msg_id=msg_id, key=(cur, dst, "data", msg_id, 0),
                src=cur, dst=dst, size_bytes=size, kind="data",
                t_inject=t, t_deliver=t_del, cause_id=cause_id, gap=gap)
            emitted += 1
            if _unit(fan_at[c], step) < profile.fanout_prob:
                third = _dest(profile, dst, rngs[c])
                g2 = _draw_gap(profile, _unit(fgap_at[c], step))
                heapq.heappush(heap, (t_del + g2, 1, uid,
                                      (dst, third, 64, msg_id, g2)))
                uid += 1
            g = _draw_gap(profile, _unit(gap_at[c], step))
            heapq.heappush(heap, (t_del + g, 0, uid,
                                  (c, step + 1, dst, msg_id, g)))
            uid += 1
        else:
            src, dst, size, cause_id, gap = item
            t_del = t + _latency(profile, size)
            msg_id = emitted
            yield TraceRecord(
                msg_id=msg_id, key=(src, dst, "ctrl", msg_id, 0),
                src=src, dst=dst, size_bytes=size, kind="ctrl",
                t_inject=t, t_deliver=t_del, cause_id=cause_id, gap=gap)
            emitted += 1


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
    records = []
    for r in iter_records(profile, scale=scale, seed=seed):
        markers.see(r.dst, r.t_deliver, r.msg_id)
        records.append(r)
    ends = markers.finish()
    trace = Trace(records=records, end_markers=ends,
                  exec_time=max((m.t_finish for m in ends), default=0),
                  meta=_meta(profile, scale, seed))
    trace.validate()
    return trace


def generate_to_file(profile: SynthProfile, path: Union[str, Path],
                     scale: float = 1.0, seed: int = 0,
                     chunk_records: int = CHUNK_RECORDS,
                     batch: int = 8192) -> dict:
    """Stream the synthetic trace straight into the binary container.

    Emits the exact record stream :func:`generate` would produce (same
    profile, scale, seed => byte-identical file, and identical to
    ``tracebin.dumps(generate(...))`` at equal ``chunk_records``), but
    never holds more than ``chunk_records`` records — the path that makes
    >=10^6-message traces cheap.  Returns a summary dict.
    """
    path = Path(path)
    t0 = time.perf_counter()
    markers = _Markers(profile.num_nodes)
    n = 0
    with open(path, "wb") as fp:
        writer = BinaryTraceWriter(fp, meta=_meta(profile, scale, seed),
                                   chunk_records=chunk_records)
        pending: list[TraceRecord] = []
        for r in iter_records(profile, scale=scale, seed=seed):
            markers.see(r.dst, r.t_deliver, r.msg_id)
            pending.append(r)
            n += 1
            if len(pending) >= batch:
                writer.add_records(pending)
                pending.clear()
        writer.add_records(pending)
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
