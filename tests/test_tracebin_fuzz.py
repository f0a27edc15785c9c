"""Byte-level fuzzing of the binary trace container.

Every reader of a REPROTRC file is a fold over one block walk, so on any
input they must agree on what a well-formed container is.  Hypothesis
damages small containers of the golden corpus — byte flips, truncations,
splices, rewritten block-length, row-count and column-length fields —
under a fixed, derandomized example budget, and checks three properties:

1. every reader returns or raises ``TraceBinError`` / ``ValueError``,
   nothing else;
2. if ``loads`` accepts, the streaming replay's two walks (the header
   walk that seeks over every RECORDS payload, then ``iter_chunks``) accept
   and agree with it on counts, markers and columns (and ``scan_blocks``
   sees a whole container);
3. if those two accept, ``loads`` accepts or refuses exactly as
   ``Trace.validate`` refuses the trace they read — the cross-record
   checks no out-of-core reader can make.
"""

from __future__ import annotations

import io
import pathlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import stream_naive_summary, tracebin
from repro.core.trace import COLUMNS, RecordChunk, Trace, TraceBinError
from repro.synth import synth_onoc

from tests.test_tracebin_roundtrip import _block_offsets

GOLDEN = (pathlib.Path(__file__).parent / "golden"
          / "prodcons-c4-s103-x0.5-w32-electrical-to-circuit_mesh.trace.json")
_U32 = struct.Struct("<I")


class _Base:
    """A container and where its parts are: every block's byte span, the
    payload spans of its RECORDS and MARKERS blocks, its block-length
    fields, and the row-count and column-length fields inside those
    payloads."""

    def __init__(self, blob: bytes) -> None:
        self.blob = blob
        self.spans, self.columnar = [], []
        self.block_len, self.column_len = [], []
        for off, btype, length in _block_offsets(blob):
            self.spans.append((off, off + 5 + length))
            self.block_len.append(off + 1)
            if btype in (3, 4):
                self.columnar.append((off + 5, off + 5 + length))
                at = off + 5
                self.column_len.append(at)
                at += 4
                for _ in range(16 if btype == 3 else 4):
                    self.column_len.append(at)
                    at += 4 + _U32.unpack_from(blob, at)[0]


_TRACE = Trace.from_json(GOLDEN.read_text())
#: 612 records as seven RECORDS blocks, and as one.
BASES = [_Base(tracebin.dumps(_TRACE, chunk_records=n)) for n in (100, 1000)]


def _position(draw, spans: list, n: int) -> int:
    """A byte offset inside one of ``spans`` (each equally likely, whatever
    its size), clamped to the current length ``n``."""
    start, end = draw(st.sampled_from(spans))
    return min(draw(st.integers(start, end - 1)), n - 1)


@st.composite
def damaged_containers(draw) -> bytes:
    """A base container with zero to three damages applied in turn.  A
    ``value`` damage flips one of the seven value bits of a column byte: it
    mostly keeps the framing, so it reaches the per-record and cross-record
    checks that framing damage never gets to — and about half the examples
    take only damage of that kind."""
    base = draw(st.sampled_from(BASES))
    blob = bytearray(base.blob)
    ops = ("value",) if draw(st.booleans()) else (
        "flip", "value", "truncate", "splice", "block_len", "column_len")
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(ops))
        n = len(blob)
        if op == "flip":
            blob[_position(draw, base.spans, n)] ^= draw(st.integers(1, 255))
        elif op == "value":
            at = _position(draw, base.columnar, n)
            blob[at] ^= 1 << draw(st.integers(0, 6))
        elif op == "truncate":
            del blob[_position(draw, base.spans, n):]
        elif op == "splice":        # a span of either base over a span here
            donor = draw(st.sampled_from(BASES)).blob
            a = _position(draw, base.spans, n)
            b = draw(st.integers(a, min(n, a + 64)))
            c = draw(st.integers(0, len(donor)))
            blob[a:b] = donor[c:c + draw(st.integers(0, 64))]
        else:
            at = draw(st.sampled_from(getattr(base, op)))
            if at + 4 <= n:
                old = _U32.unpack_from(blob, at)[0]
                new = draw(st.one_of(st.integers(0, 2**32 - 1),
                                     st.integers(old - 8, old + 8)))
                _U32.pack_into(blob, at, new % 2**32)
    return bytes(blob)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory) -> pathlib.Path:
    return tmp_path_factory.mktemp("fuzz") / "damaged.rtrc"


def _outcome(read):
    """``(value, None)`` or ``(None, refusal)``; any other exception
    escapes and fails the test (property 1)."""
    try:
        return read(), None
    except (TraceBinError, ValueError) as exc:
        return None, exc


@given(blob=damaged_containers())
@settings(derandomize=True, max_examples=200, deadline=2000, database=None)
def test_damaged_containers_are_refused_alike(scratch, blob):
    scratch.write_bytes(blob)
    onoc = synth_onoc("crossbar", 4)
    trace, refusal = _outcome(lambda: tracebin.loads(blob))
    head, _ = _outcome(lambda: tracebin._fold(tracebin._walk(
        io.BytesIO(blob), seek=frozenset({tracebin._BLOCK_RECORDS})))[0])
    chunks, _ = _outcome(lambda: list(tracebin.iter_chunks(io.BytesIO(blob))))
    scan, _ = _outcome(lambda: tracebin.scan_blocks(io.BytesIO(blob)))
    _outcome(lambda: tracebin.trace_info(scratch))
    _outcome(lambda: stream_naive_summary(scratch, onoc))

    if trace is not None:                                       # property 2
        assert head is not None and chunks is not None
        assert scan is not None and not scan["truncated"]
        footer, kinds = head[tracebin._BLOCK_END], head[tracebin._BLOCK_KINDS]
        assert footer["record_count"] == len(trace) == sum(map(len, chunks))
        assert footer["chunks"] == len(chunks) == scan["footer"]["chunks"]
        assert head[tracebin._BLOCK_MARKERS] == trace.end_markers
        assert footer["marker_count"] == len(trace.end_markers)
        assert footer["exec_time"] == trace.exec_time
        assert head[tracebin._BLOCK_META] == trace.meta == scan["meta"]
        assert kinds == trace.chunk.kinds
        streamed = RecordChunk.concat(chunks, kinds)
        for name in COLUMNS:
            assert np.array_equal(getattr(streamed, name),
                                  getattr(trace.chunk, name)), name
    elif head is not None and chunks is not None:               # property 3
        rebuilt = Trace.from_chunk(
            RecordChunk.concat(chunks, head[tracebin._BLOCK_KINDS]),
            head[tracebin._BLOCK_MARKERS], head[tracebin._BLOCK_END]["exec_time"],
            head[tracebin._BLOCK_META])
        with pytest.raises(ValueError) as again:
            rebuilt.validate()
        assert type(again.value) is type(refusal)
        assert str(again.value) == str(refusal)
