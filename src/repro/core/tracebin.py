"""Binary out-of-core trace format (``.trace.bin``).

JSON traces parse at a few hundred thousand rows per second and must be
materialised wholesale; at the million-message scale ROADMAP item 2 targets,
the *representation* dominates replay cost.  This module defines a chunked,
columnar binary container that loads one or two orders of magnitude faster
and supports streaming readers whose resident set is bounded by the chunk
size, not the trace size.

Layout (little-endian throughout; full spec in ``docs/TRACE_FORMAT.md``)::

    magic "REPROTRC" | u32 version
    then a sequence of blocks:  [u8 type][u32 payload_len][payload]

Block types:

* ``META``    — JSON object: the ``Trace.meta`` dict.
* ``KINDS``   — JSON list of *new* kind strings, appended to an incremental
  string table shared by the record ``kind`` and semantic-key kind columns.
* ``RECORDS`` — one chunk of records, column-major: a u32 record count, then
  16 columns, each a u32 byte length followed by a varint stream (two are
  reserved: written -1 / 0, and any other value is refused).  Signed
  columns are zigzag-encoded; ``msg_id`` and ``t_inject`` are delta-coded
  (the delta base resets each chunk, so chunks decode independently).
* ``MARKERS`` — the end markers, same columnar shape (4 columns).
* ``END``     — JSON footer with record/marker/chunk counts and
  ``exec_time``.  Mandatory: a file without it is truncated.

RECORDS and MARKERS share one count-then-columns codec.  Every reader is a
fold over one block walk (``_walk``), so framing, JSON-block, per-record
and footer refusals are made alike by the loader, :func:`iter_chunks` and
the streaming replay built on it; only the loader makes
``Trace.validate``'s cross-record checks.  :func:`scan_blocks`
is the same walk reading no RECORDS or MARKERS payload and tolerating
truncation.

The varint codec is vectorized, one pass per byte position (at most ten,
the longest encoding of a u64) with no boolean compress inside a pass: the
decoder gathers byte ``i`` of every varint at once, zeroes it where the
varint is shorter and ORs it in (a column of one-byte varints is its own
bytes); the encoder writes an ``(n, longest)`` byte grid and compresses it
once.  A value of 2^64 or more is refused as an oversized varint.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import struct
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Optional, Union

import numpy as np

from repro.core.trace import (
    COLUMNS,
    SECOND_TRIGGER,
    EndMarker,
    RecordChunk,
    Trace,
    TraceBinError,
)

MAGIC = b"REPROTRC"
VERSION = 1

#: Records per RECORDS block.  65536 * <=10 B/varint keeps the largest
#: column under a megabyte, so a streaming reader's footprint is O(chunk).
CHUNK_RECORDS = 65536

_BLOCK_META = 1
_BLOCK_KINDS = 2
_BLOCK_RECORDS = 3
_BLOCK_MARKERS = 4
_BLOCK_END = 5

_HEADER = struct.Struct("<8sI")
_BLOCK_HEAD = struct.Struct("<BI")
_U32 = struct.Struct("<I")

#: Longest varint encoding of a 64-bit value.
_VARINT_MAX_LEN = 10


# ----------------------------------------------------------------- varints
def _encode_varints(values: np.ndarray) -> bytes:
    """LEB128-encode a uint64 array, vectorized: byte ``i`` of every value
    is column ``i`` of an ``(n, longest)`` grid, compressed once."""
    rest = np.ascontiguousarray(values, dtype=np.uint64)
    lengths = np.ones(len(rest), dtype=np.int64)
    grid = [(rest & np.uint64(0x7F)).astype(np.uint8)]
    rest = rest >> np.uint64(7)
    while (more := rest != 0).any():
        grid[-1] |= more.view(np.uint8) << np.uint8(7)
        lengths += more
        grid.append((rest & np.uint64(0x7F)).astype(np.uint8))
        rest >>= np.uint64(7)
    if len(grid) == 1:                  # every value fits in one byte
        return grid[0].tobytes()
    grid = np.stack(grid, axis=1)
    return grid[np.arange(grid.shape[1]) < lengths[:, None]].tobytes()


def _decode_varints(data: bytes, count: int, what: str) -> np.ndarray:
    """Decode exactly ``count`` varints spanning exactly ``data``: byte
    ``i`` of every varint is gathered at once (from the payload bits,
    zero-padded past the end), zeroed where the varint is shorter and ORed
    in, one pass per byte position into preallocated arrays; a column of
    one-byte varints is its own bytes."""
    if count == 0:
        if data:
            raise TraceBinError(f"corrupt trace: trailing bytes in {what}")
        return np.zeros(0, dtype=np.uint64)
    buf = np.frombuffer(data, dtype=np.uint8)
    if len(buf) == count and int(buf.max()) < 0x80:
        return buf.astype(np.uint64)
    ends = np.flatnonzero(buf < 0x80)
    if len(ends) < count:
        raise TraceBinError(f"truncated varint stream in {what}")
    ends = ends[:count]
    at = np.empty(count, dtype=np.int64)      # byte i of every varint
    at[0] = 0
    np.add(ends[:-1], 1, out=at[1:])
    longest = int((ends - at).max()) + 1
    if longest > _VARINT_MAX_LEN:
        raise TraceBinError(f"corrupt trace: oversized varint in {what}")
    if int(ends[-1]) + 1 != len(buf):
        raise TraceBinError(f"corrupt trace: trailing bytes in {what}")
    # A tenth byte carries bit 63 alone: anything more is >= 2**64.
    if (longest == _VARINT_MAX_LEN
            and int(buf[ends[ends - at == 9]].max()) > 1):
        raise TraceBinError(f"corrupt trace: oversized varint in {what}")
    low = np.zeros(len(buf) + longest, dtype=np.uint8)
    np.bitwise_and(buf, 0x7F, out=low[:len(buf)])
    vals = low[at].astype(np.uint64)
    byte = np.empty(count, dtype=np.uint8)
    wide = np.empty(count, dtype=np.uint64)
    for i in range(1, longest):
        at += 1
        np.take(low, at, out=byte)
        byte *= at <= ends
        np.left_shift(byte, np.uint64(7 * i), out=wide)
        vals |= wide
    return vals


def _zigzag(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.int64)
    return (a.astype(np.uint64) << np.uint64(1)) ^ (a >> np.int64(63)).astype(
        np.uint64)


def _unzigzag(u: np.ndarray) -> np.ndarray:
    return (u >> np.uint64(1)).view(np.int64) ^ -(
        (u & np.uint64(1)).view(np.int64))


# ---------------------------------------------------------------- columns
#: (name, coding) in on-disk order, which is the order of ``RecordChunk``'s
#: column fields with the two reserved ones between ``gap`` and
#: ``key_src``.  ``key_src``/``key_dst`` are stored relative to
#: ``src``/``dst`` (usually zero), ``msg_id``/``t_inject`` as zigzag
#: deltas; everything non-negative by Trace validation is raw.
_RECORD_COLUMNS = (
    ("msg_id", "sdelta"),
    ("src", "unsigned"),
    ("dst", "unsigned"),
    ("size_bytes", "unsigned"),
    ("kind_idx", "unsigned"),
    ("t_inject", "sdelta"),
    ("latency", "unsigned"),
    ("cause_id", "signed"),
    ("gap", "unsigned"),
    ("bound_id", "signed"),
    ("bound_gap", "unsigned"),
    ("key_src_rel", "signed"),
    ("key_dst_rel", "signed"),
    ("key_kind_idx", "unsigned"),
    ("key_line", "signed"),
    ("key_occ", "signed"),
)

#: The reserved columns — a second trigger edge this model does not have —
#: and the one value each is written with and must hold.  Written, such a
#: column is one byte per row: the value's varint (zigzag -1 is 1).
_RESERVED = {"bound_id": (-1, b"\x01"), "bound_gap": (0, b"\x00")}
_RESERVED_AT = [i for i, (name, _) in enumerate(_RECORD_COLUMNS)
                if name in _RESERVED]
_KEPT_AT = [i for i in range(len(_RECORD_COLUMNS)) if i not in _RESERVED_AT]

_MARKER_COLUMNS = (
    ("node", "unsigned"),
    ("t_finish", "signed"),
    ("cause_id", "signed"),
    ("gap", "unsigned"),
)


def _encode_columns(spec: tuple, columns: list) -> bytes:
    """The count-then-columns payload of a RECORDS or MARKERS block: a u32
    row count, then per ``spec`` column a u32 byte length and its varints."""
    parts = [_U32.pack(len(columns[0]))]
    for (name, coding), column in zip(spec, columns):
        a = np.ascontiguousarray(column, dtype=np.int64)
        if coding == "unsigned":
            if len(a) and int(a.min()) < 0:
                raise TraceBinError(f"negative value in unsigned column {name}")
            u = a.astype(np.uint64)
        elif coding == "signed":
            u = _zigzag(a)
        else:  # sdelta
            u = _zigzag(np.diff(a, prepend=np.int64(0)))
        enc = _encode_varints(u)
        parts += (_U32.pack(len(enc)), enc)
    return b"".join(parts)


def _decode_columns(payload: bytes, spec: tuple, what: str,
                    decode: Optional[list] = None) -> list:
    """The inverse of :func:`_encode_columns`, for a ``what`` block; with
    ``decode`` (column positions), the framing is checked whole but only
    those columns are decoded, the others left as their bytes."""
    if len(payload) < 4:
        raise TraceBinError(f"truncated trace: short {what} block")
    count = _U32.unpack_from(payload)[0]
    off = 4
    columns = []
    payload = memoryview(payload)           # column slices copy nothing
    for i, (name, coding) in enumerate(spec):
        if off + 4 > len(payload):
            raise TraceBinError(f"truncated trace: short {what} block")
        clen = _U32.unpack_from(payload, off)[0]
        off += 4
        if off + clen > len(payload):
            raise TraceBinError(f"truncated trace: short {what} column")
        raw = payload[off:off + clen]
        off += clen
        if decode is not None and i not in decode:
            columns.append(raw)
            continue
        u = _decode_varints(raw, count, name)
        columns.append(u.view(np.int64) if coding == "unsigned"
                       else _unzigzag(u) if coding == "signed"
                       else np.cumsum(_unzigzag(u), dtype=np.int64))
    if off != len(payload):
        raise TraceBinError(f"corrupt trace: trailing bytes in {what} block")
    return columns


def _decode_records(payload: bytes) -> list[np.ndarray]:
    """A RECORDS payload's columns less the reserved ones, after refusing
    a block whose reserved columns hold anything but their one value.
    (Reserved bytes other than the writer's are decoded, with ``msg_id``,
    to name the first record whose value differs, if one does.)"""
    columns = _decode_columns(payload, _RECORD_COLUMNS, "RECORDS", _KEPT_AT)
    count = _U32.unpack_from(payload)[0]
    if any(columns[i].tobytes() != byte * count
           for i, (_, byte) in zip(_RESERVED_AT, _RESERVED.values())):
        decoded = _decode_columns(payload, _RECORD_COLUMNS, "RECORDS",
                                  [0, *_RESERVED_AT])
        second = np.logical_or.reduce(
            [decoded[i] != value
             for i, (value, _) in zip(_RESERVED_AT, _RESERVED.values())])
        if second.any():
            raise TraceBinError(
                SECOND_TRIGGER.format(id=int(decoded[0][second.argmax()])))
    return [columns[i] for i in _KEPT_AT]


# ------------------------------------------------------------------ writer
class BinaryTraceWriter:
    """Streaming writer: chunks are written as they arrive.

    Usage::

        with open(path, "wb") as fp:
            w = BinaryTraceWriter(fp, meta=trace.meta)
            w.add_chunk(chunk)           # may be called repeatedly
            w.add_markers(markers)
            w.close(exec_time)

    ``add_chunk`` takes a :class:`RecordChunk` — the reader's type, the
    generator's and the trace's — and writes it as one RECORDS block, in
    call order; a producer holding records hands in
    ``RecordChunk.from_records(batch)``.  Nothing proportional to the full
    trace is retained: the markers and the kind string table.
    """

    def __init__(self, fp: BinaryIO, meta: Optional[dict] = None) -> None:
        self._fp = fp
        self._markers: list[EndMarker] = []
        self._kind_idx: dict[str, int] = {}
        self._record_count = 0
        self._chunk_count = 0
        self._closed = False
        fp.write(_HEADER.pack(MAGIC, VERSION))
        # Insertion order is preserved (not sorted) so a JSON<->binary
        # round-trip is byte-stable in both directions.
        self._write_block(_BLOCK_META, json.dumps(meta or {}).encode())

    def _write_block(self, btype: int, payload: bytes) -> None:
        self._fp.write(_BLOCK_HEAD.pack(btype, len(payload)))
        self._fp.write(payload)

    def _intern_kinds(self, chunk: RecordChunk) -> np.ndarray:
        """Add the kinds ``chunk`` uses to the file's string table, in
        order of first appearance (``kind`` before ``key[2]`` within a
        record), and return the chunk-index -> file-index map."""
        seq = np.stack((chunk.kind_idx, chunk.key_kind_idx), axis=1).ravel()
        used, first = np.unique(seq, return_index=True)
        remap = np.zeros(len(chunk.kinds), dtype=np.int64)
        new: list[str] = []
        for i in used[np.argsort(first)].tolist():
            kind = chunk.kinds[i]
            if kind not in self._kind_idx:
                self._kind_idx[kind] = len(self._kind_idx)
                new.append(kind)
            remap[i] = self._kind_idx[kind]
        if new:
            self._write_block(_BLOCK_KINDS, json.dumps(new).encode())
        return remap

    def _write_chunk(self, chunk: RecordChunk) -> None:
        remap = self._intern_kinds(chunk)
        stored = dataclasses.replace(
            chunk, kind_idx=remap[chunk.kind_idx],
            key_kind_idx=remap[chunk.key_kind_idx],
            key_src=chunk.key_src - chunk.src,
            key_dst=chunk.key_dst - chunk.dst)
        columns = [getattr(stored, field) for field in COLUMNS]
        for i, (value, _) in zip(_RESERVED_AT, _RESERVED.values()):
            columns.insert(i, np.full(len(chunk), value, dtype=np.int64))
        self._write_block(_BLOCK_RECORDS,
                          _encode_columns(_RECORD_COLUMNS, columns))
        self._record_count += len(chunk)
        self._chunk_count += 1

    def add_chunk(self, chunk: RecordChunk) -> None:
        """Write ``chunk`` as one RECORDS block (nothing for an empty one)."""
        if self._closed:
            raise ValueError("writer already closed")
        if len(chunk):
            self._write_chunk(chunk)

    def add_markers(self, markers: Iterable[EndMarker]) -> None:
        if self._closed:
            raise ValueError("writer already closed")
        self._markers.extend(markers)

    def close(self, exec_time: int) -> None:
        if self._closed:
            return
        cols = np.array(
            [(m.node, m.t_finish, m.cause_id, m.gap) for m in self._markers],
            dtype=np.int64).reshape(len(self._markers), len(_MARKER_COLUMNS))
        self._write_block(_BLOCK_MARKERS,
                          _encode_columns(_MARKER_COLUMNS, list(cols.T)))
        self._write_block(_BLOCK_END, json.dumps({
            "record_count": self._record_count,
            "marker_count": len(self._markers),
            "chunks": self._chunk_count,
            "exec_time": exec_time,
        }, sort_keys=True).encode())
        self._closed = True


def dump(trace: Trace, fp: BinaryIO,
         chunk_records: int = CHUNK_RECORDS) -> None:
    """Write ``trace`` to a binary file object, from its columns."""
    if chunk_records < 1:
        raise ValueError("chunk_records must be positive")
    writer = BinaryTraceWriter(fp, meta=trace.meta)
    chunk = trace.chunk
    for first in range(0, len(chunk), chunk_records):
        writer.add_chunk(chunk[first:first + chunk_records])
    writer.add_markers(trace.end_markers)
    writer.close(trace.exec_time)


def dumps(trace: Trace, chunk_records: int = CHUNK_RECORDS) -> bytes:
    """Serialize ``trace`` to binary bytes (deterministic for equal traces)."""
    out = io.BytesIO()
    dump(trace, out, chunk_records=chunk_records)
    return out.getvalue()


def write_file(trace: Trace, path: Union[str, Path],
               chunk_records: int = CHUNK_RECORDS) -> Path:
    path = Path(path)
    with open(path, "wb") as fp:
        dump(trace, fp, chunk_records=chunk_records)
    return path


# ------------------------------------------------------------------ reader
def _check_header(fp: BinaryIO) -> None:
    head = fp.read(_HEADER.size)
    if len(head) < _HEADER.size or head[:len(MAGIC)] != MAGIC:
        raise TraceBinError(
            f"bad magic: not a binary trace (expected {MAGIC!r})")
    (_, version) = _HEADER.unpack(head)
    if version != VERSION:
        raise TraceBinError(
            f"unsupported binary trace version {version} "
            f"(this reader handles version {VERSION})")


#: Block-type names, for refusal texts and :func:`scan_blocks`.
_BLOCK_NAMES = {
    _BLOCK_META: "META",
    _BLOCK_KINDS: "KINDS",
    _BLOCK_RECORDS: "RECORDS",
    _BLOCK_MARKERS: "MARKERS",
    _BLOCK_END: "END",
}

#: The END footer's fields, all written by :meth:`BinaryTraceWriter.close`.
_FOOTER_FIELDS = ("exec_time", "record_count", "marker_count", "chunks")


def _json_block(payload: bytes, what: str):
    """Decode the JSON payload of a ``what`` (META / KINDS / END) block.

    META and END are objects (END with all of ``_FOOTER_FIELDS`` as ints),
    KINDS a list of strings; undecodable bytes, unparsable JSON or any
    other shape is corruption, reported as :class:`TraceBinError` like
    every other malformed block.
    """
    try:
        obj = json.loads(payload.decode())
    except (ValueError, RecursionError) as exc:  # bad UTF-8 / JSON, nesting
        raise TraceBinError(
            f"corrupt trace: undecodable {what} block") from exc
    if what == "KINDS":
        ok = isinstance(obj, list) and all(isinstance(k, str) for k in obj)
    else:
        ok = isinstance(obj, dict) and (what != "END" or all(
            type(obj.get(f)) is int for f in _FOOTER_FIELDS))
    if not ok:
        raise TraceBinError(f"corrupt trace: malformed {what} block")
    return obj


def _walk(source: Union[str, Path, BinaryIO],
          seek: frozenset[int] = frozenset(),
          ) -> Iterator[tuple[int, int, object]]:
    """The container's reading rules, once: yield ``(type, payload_len,
    body)`` for every block of ``source`` (a path or a seekable binary
    file object) up to and including END.

    A body is what its payload decodes to — META and END their JSON
    object, KINDS the whole string table so far, RECORDS a checked
    :class:`RecordChunk` (first the reserved columns, :data:`SECOND_TRIGGER`;
    then kind indices against the table as of that block, then every
    :class:`TraceRecord` refusal), MARKERS the end markers — except that a
    type in ``seek`` is seeked over unread (body ``None``).  No payload is
    read before its length is checked against the file size.  The footer must
    agree with the file on all three counts: RECORDS blocks, and records
    and markers unless their blocks are seeked.  Every refusal is a
    :class:`TraceBinError` or, for a record, the ``ValueError`` building it
    would raise.
    """
    with (contextlib.nullcontext(source) if hasattr(source, "read")
          else open(source, "rb")) as fp:
        _check_header(fp)
        start = fp.tell()
        end = fp.seek(0, 2)
        fp.seek(start)
        kinds: tuple[str, ...] = ()
        # What the footer is checked against; None: not read, not checked.
        seen = {"chunks": 0,
                "record_count": None if _BLOCK_RECORDS in seek else 0,
                "marker_count": None if _BLOCK_MARKERS in seek else 0}
        while True:
            head = fp.read(_BLOCK_HEAD.size)
            if len(head) < _BLOCK_HEAD.size:
                raise TraceBinError("truncated trace: " + (
                    "partial block header" if head else "missing END block"))
            btype, length = _BLOCK_HEAD.unpack(head)
            name = _BLOCK_NAMES.get(btype)
            if name is None:
                raise TraceBinError(
                    f"corrupt trace: unknown block type {btype}")
            if fp.tell() + length > end:
                raise TraceBinError(
                    f"truncated trace: unexpected EOF in block type {btype}")
            if btype == _BLOCK_RECORDS:
                seen["chunks"] += 1
            if btype in seek:
                fp.seek(length, 1)
                body = None
            elif btype == _BLOCK_RECORDS:
                body = RecordChunk(*_decode_records(fp.read(length)),
                                   kinds=kinds)
                body.key_src += body.src
                body.key_dst += body.dst
                body.check()
                seen["record_count"] += len(body)
            elif btype == _BLOCK_MARKERS:
                columns = _decode_columns(fp.read(length), _MARKER_COLUMNS,
                                          name)
                body = [EndMarker(*m) for m in zip(*(c.tolist()
                                                     for c in columns))]
                seen["marker_count"] = len(body)
            else:
                body = _json_block(fp.read(length), name)
                if btype == _BLOCK_KINDS:
                    body = kinds = kinds + tuple(body)
            if btype == _BLOCK_END:
                for field, n in seen.items():
                    if n is not None and body[field] != n:
                        raise TraceBinError(
                            f"corrupt trace: END footer {field} "
                            f"{body[field]} disagrees with the file's {n}")
            yield btype, length, body
            if btype == _BLOCK_END:
                return


def _fold(walk: Iterator[tuple[int, int, object]]) -> tuple[dict, list]:
    """``walk``'s RECORDS bodies in order, and the last body of every other
    block type (an empty META, string table and marker list if none)."""
    last: dict = {_BLOCK_META: {}, _BLOCK_KINDS: (), _BLOCK_MARKERS: []}
    records = []
    for btype, _, body in walk:
        if btype == _BLOCK_RECORDS:
            records.append(body)
        else:
            last[btype] = body
    return last, records


def _load_stream(source: Union[str, Path, BinaryIO]) -> Trace:
    """The container as a validated trace still held as columns: the walk's
    blocks concatenated once, then :meth:`Trace.validate`'s cross-record
    checks, which no out-of-core reader can make."""
    last, blocks = _fold(_walk(source))
    trace = Trace.from_chunk(
        RecordChunk.concat(blocks, last[_BLOCK_KINDS]), last[_BLOCK_MARKERS],
        last[_BLOCK_END]["exec_time"], last[_BLOCK_META])
    trace.validate()
    return trace


def loads(data: bytes) -> Trace:
    """Read a full :class:`Trace` from binary bytes."""
    return _load_stream(io.BytesIO(data))


def read_file(path: Union[str, Path]) -> Trace:
    return _load_stream(path)


def iter_chunks(source: Union[str, Path, BinaryIO]) -> Iterator[RecordChunk]:
    """Stream RECORDS chunks without materialising the whole trace.

    Resident memory is O(chunk): each block is read, decoded into column
    arrays, checked, yielded, and released.  Markers and ``exec_time`` are
    *not* surfaced here — fetch them first from a :func:`_walk` that seeks
    over record payloads, then stream the records.  The walk refuses what
    the loader refuses block by block, the END footer included (after the
    last chunk); only :meth:`Trace.validate`'s cross-record checks are left
    out.
    """
    for btype, _, body in _walk(source):
        if btype == _BLOCK_RECORDS:
            yield body


def scan_blocks(source: Union[str, Path, BinaryIO]) -> dict:
    """Truncation-tolerant O(header) block scan for inspection tooling.

    The loaders' walk with RECORDS and MARKERS payloads seeked over unread,
    so the scan touches ``12 + 5 * n_blocks`` bytes of record data
    regardless of trace size, and corrupt *payload* bytes cannot make it
    fail.  Unlike the loading readers this scan does not demand an END
    block: a truncated file yields whatever prefix of blocks is intact
    plus ``truncated=True``, which is exactly what you want from ``repro
    trace info`` when triaging a half-written capture.  Everything else
    stays strict: magic/version, unknown block types, the JSON blocks and
    the footer's chunk count (those are corruption, not truncation).

    Returns ``{"meta", "kinds" (count), "footer" (dict or None),
    "blocks" ([{"type", "payload_bytes"}, ...]), "truncated",
    "version"}``.
    """
    last: dict = {_BLOCK_META: {}, _BLOCK_KINDS: (), _BLOCK_END: None}
    blocks: list[dict] = []
    try:
        for btype, length, body in _walk(
                source, seek=frozenset({_BLOCK_RECORDS, _BLOCK_MARKERS})):
            last[btype] = body
            blocks.append({"type": _BLOCK_NAMES[btype],
                           "payload_bytes": length})
    except TraceBinError as exc:
        if not str(exc).startswith("truncated trace"):
            raise
    return {
        "meta": last[_BLOCK_META],
        "kinds": len(last[_BLOCK_KINDS]),
        "footer": last[_BLOCK_END],
        "blocks": blocks,
        "truncated": last[_BLOCK_END] is None,
        "version": VERSION,
    }


# -------------------------------------------------------------- detection
def is_binary_trace(source: Union[str, Path, bytes]) -> bool:
    """True when ``source`` (path or bytes) starts with the format magic."""
    if isinstance(source, bytes):
        return source[:len(MAGIC)] == MAGIC
    path = Path(source)
    try:
        with open(path, "rb") as fp:
            return fp.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def load_trace(path: Union[str, Path]) -> Trace:
    """Load a trace file in either format, autodetected by magic bytes."""
    path = Path(path)
    if is_binary_trace(path):
        return read_file(path)
    return Trace.from_json(path.read_text())


def trace_info(path: Union[str, Path]) -> dict:
    """Inspect a trace file (either format) without a full decode.

    For binary traces this is the :func:`scan_blocks` header walk —
    record payloads are never decoded, per-block sizes come straight from
    the 5-byte block heads, and a truncated file still yields the intact
    prefix (``truncated=True``) instead of an error.  Counts and
    ``exec_time`` come from the END footer (whose chunk count the scan
    checks), so they are ``None`` for a truncated file.  For JSON the whole
    file must be parsed (there is no cheap scan — which is part of why the
    binary format exists).
    """
    path = Path(path)
    if is_binary_trace(path):
        s = scan_blocks(path)
        footer = s["footer"]
        chunk_bytes = [b["payload_bytes"] for b in s["blocks"]
                       if b["type"] == "RECORDS"]
        blocks: dict[str, dict] = {}
        for b in s["blocks"]:
            agg = blocks.setdefault(b["type"], {"count": 0, "bytes": 0})
            agg["count"] += 1
            agg["bytes"] += b["payload_bytes"]
        return {
            "format": "binary",
            "version": s["version"],
            "file_bytes": path.stat().st_size,
            "truncated": s["truncated"],
            "records": footer.get("record_count") if footer else None,
            "end_markers": footer.get("marker_count") if footer else None,
            "chunks": len(chunk_bytes),
            "kinds": s["kinds"],
            "exec_time": footer.get("exec_time") if footer else None,
            "blocks": blocks,
            "record_chunk_bytes": chunk_bytes,
            "meta": s["meta"],
        }
    trace = Trace.from_json(path.read_text())
    return {
        "format": "json",
        "version": None,
        "file_bytes": path.stat().st_size,
        "truncated": False,
        "records": len(trace.records),
        "end_markers": len(trace.end_markers),
        "chunks": 1,
        "kinds": len({r.kind for r in trace.records}
                     | {r.key[2] for r in trace.records}),
        "exec_time": trace.exec_time,
        "blocks": {},
        "record_chunk_bytes": [],
        "meta": trace.meta,
    }
