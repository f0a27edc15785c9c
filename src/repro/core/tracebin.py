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
  16 columns, each a u32 byte length followed by a varint stream.  Signed
  columns are zigzag-encoded; ``msg_id`` and ``t_inject`` are delta-coded
  (the delta base resets each chunk, so chunks decode independently).
* ``MARKERS`` — the end markers, same columnar shape (4 columns).
* ``END``     — JSON footer with record/marker/chunk counts and
  ``exec_time``.  Mandatory: a file without it is truncated.

The varint codec is vectorized (NumPy byte-scatter/gather over at most ten
passes, the maximum encoded length of a u64), so encode and decode cost is
a handful of array operations per column rather than per value.
"""

from __future__ import annotations

import dataclasses
import io
import json
import struct
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Optional, Union

import numpy as np

from repro.core.trace import (
    COLUMNS,
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
    """LEB128-encode a uint64 array, vectorized (one pass per output byte)."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    n = len(v)
    if n == 0:
        return b""
    lengths = np.ones(n, dtype=np.int64)
    tmp = v >> np.uint64(7)
    while tmp.any():
        lengths += tmp != 0
        tmp >>= np.uint64(7)
    offsets = np.zeros(n, dtype=np.int64)
    np.cumsum(lengths[:-1], out=offsets[1:])
    out = np.zeros(int(offsets[-1] + lengths[-1]), dtype=np.uint8)
    shifted = v.copy()
    for i in range(int(lengths.max())):
        live = lengths > i
        cont = lengths > i + 1
        out[offsets[live] + i] = (
            (shifted[live] & np.uint64(0x7F))
            | (cont[live].astype(np.uint64) << np.uint64(7))
        ).astype(np.uint8)
        shifted >>= np.uint64(7)
    return out.tobytes()


def _decode_varints(data: bytes, count: int, what: str) -> np.ndarray:
    """Decode exactly ``count`` varints spanning exactly ``data``."""
    if count == 0:
        if data:
            raise TraceBinError(f"corrupt trace: trailing bytes in {what}")
        return np.zeros(0, dtype=np.uint64)
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero((buf & 0x80) == 0)
    if len(ends) < count:
        raise TraceBinError(f"truncated varint stream in {what}")
    ends = ends[:count]
    starts = np.empty(count, dtype=np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts + 1
    if int(lengths.max()) > _VARINT_MAX_LEN:
        raise TraceBinError(f"corrupt trace: oversized varint in {what}")
    if int(ends[-1]) + 1 != len(buf):
        raise TraceBinError(f"corrupt trace: trailing bytes in {what}")
    vals = np.zeros(count, dtype=np.uint64)
    for i in range(int(lengths.max())):
        live = lengths > i
        vals[live] |= (
            buf[starts[live] + i].astype(np.uint64) & np.uint64(0x7F)
        ) << np.uint64(7 * i)
    return vals


def _zigzag(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.int64)
    return (a.astype(np.uint64) << np.uint64(1)) ^ (a >> np.int64(63)).astype(
        np.uint64)


def _unzigzag(u: np.ndarray) -> np.ndarray:
    return (u >> np.uint64(1)).astype(np.int64) ^ -(
        (u & np.uint64(1)).astype(np.int64))


# ---------------------------------------------------------------- columns
#: (name, coding) in on-disk order, which is the order of ``RecordChunk``'s
#: column fields.  ``key_src``/``key_dst`` are stored relative to
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

_MARKER_COLUMNS = (
    ("node", "unsigned"),
    ("t_finish", "signed"),
    ("cause_id", "signed"),
    ("gap", "unsigned"),
)


def _encode_column(a: np.ndarray, coding: str, what: str) -> bytes:
    a = np.ascontiguousarray(a, dtype=np.int64)
    if coding == "unsigned":
        if len(a) and int(a.min()) < 0:
            raise TraceBinError(f"negative value in unsigned column {what}")
        u = a.astype(np.uint64)
    elif coding == "signed":
        u = _zigzag(a)
    else:  # sdelta
        u = _zigzag(np.diff(a, prepend=np.int64(0)))
    return _encode_varints(u)


def _decode_column(data: bytes, count: int, coding: str,
                   what: str) -> np.ndarray:
    u = _decode_varints(data, count, what)
    if coding == "unsigned":
        return u.astype(np.int64)
    if coding == "signed":
        return _unzigzag(u)
    return np.cumsum(_unzigzag(u), dtype=np.int64)


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
        out = io.BytesIO()
        out.write(_U32.pack(len(chunk)))
        for (name, coding), field in zip(_RECORD_COLUMNS, COLUMNS):
            enc = _encode_column(getattr(stored, field), coding, name)
            out.write(_U32.pack(len(enc)))
            out.write(enc)
        self._write_block(_BLOCK_RECORDS, out.getvalue())
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
        out = io.BytesIO()
        out.write(_U32.pack(len(self._markers)))
        for i, (name, coding) in enumerate(_MARKER_COLUMNS):
            enc = _encode_column(cols[:, i], coding, name)
            out.write(_U32.pack(len(enc)))
            out.write(enc)
        self._write_block(_BLOCK_MARKERS, out.getvalue())
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
def _read_exact(fp: BinaryIO, n: int, what: str) -> bytes:
    data = fp.read(n)
    if len(data) != n:
        raise TraceBinError(f"truncated trace: unexpected EOF in {what}")
    return data


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


def _iter_blocks(fp: BinaryIO,
                 skip_payloads: frozenset[int] = frozenset(),
                 ) -> Iterator[tuple[int, bytes, int]]:
    """Yield (type, payload, payload_len); END terminates the stream.

    Payloads for types in ``skip_payloads`` are seeked over and yielded as
    ``b""`` — this is what makes a summary scan O(block count) in I/O.
    """
    saw_end = False
    while True:
        head = fp.read(_BLOCK_HEAD.size)
        if not head:
            break
        if len(head) < _BLOCK_HEAD.size:
            raise TraceBinError("truncated trace: partial block header")
        btype, length = _BLOCK_HEAD.unpack(head)
        if btype not in (_BLOCK_META, _BLOCK_KINDS, _BLOCK_RECORDS,
                         _BLOCK_MARKERS, _BLOCK_END):
            raise TraceBinError(f"corrupt trace: unknown block type {btype}")
        if btype in skip_payloads and btype != _BLOCK_END:
            fp.seek(length, 1)
            yield btype, b"", length
        else:
            yield btype, _read_exact(fp, length, f"block type {btype}"), length
        if btype == _BLOCK_END:
            saw_end = True
            break
    if not saw_end:
        raise TraceBinError("truncated trace: missing END block")


def _decode_record_block(payload: bytes,
                         kinds: tuple[str, ...]) -> RecordChunk:
    if len(payload) < 4:
        raise TraceBinError("truncated trace: short RECORDS block")
    count = _U32.unpack_from(payload)[0]
    off = 4
    cols = []
    for name, coding in _RECORD_COLUMNS:
        if off + 4 > len(payload):
            raise TraceBinError("truncated trace: short RECORDS block")
        clen = _U32.unpack_from(payload, off)[0]
        off += 4
        if off + clen > len(payload):
            raise TraceBinError("truncated trace: short RECORDS column")
        cols.append(_decode_column(payload[off:off + clen], count, coding,
                                   name))
        off += clen
    if off != len(payload):
        raise TraceBinError("corrupt trace: trailing bytes in RECORDS block")
    chunk = RecordChunk(*cols, kinds=kinds)
    chunk.key_src += chunk.src
    chunk.key_dst += chunk.dst
    return chunk


def _decode_marker_block(payload: bytes) -> list[EndMarker]:
    if len(payload) < 4:
        raise TraceBinError("truncated trace: short MARKERS block")
    count = _U32.unpack_from(payload)[0]
    off = 4
    cols = []
    for name, coding in _MARKER_COLUMNS:
        if off + 4 > len(payload):
            raise TraceBinError("truncated trace: short MARKERS block")
        clen = _U32.unpack_from(payload, off)[0]
        off += 4
        cols.append(_decode_column(payload[off:off + clen], count, coding,
                                   name))
        off += clen
    if off != len(payload):
        raise TraceBinError("corrupt trace: trailing bytes in MARKERS block")
    node, t_finish, cause_id, gap = (c.tolist() for c in cols)
    return [EndMarker(node=n, t_finish=t, cause_id=c, gap=g)
            for n, t, c, g in zip(node, t_finish, cause_id, gap)]


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
    except ValueError as exc:       # UnicodeDecodeError, JSONDecodeError
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


def _parse_kinds(payload: bytes, kinds: list[str]) -> None:
    kinds.extend(_json_block(payload, "KINDS"))


def _load_stream(fp: BinaryIO) -> Trace:
    """The container as a validated trace still held as columns.  Each
    block is checked as it is decoded, its kind indices against the string
    table as of that block: what building its records would refuse."""
    _check_header(fp)
    meta: dict = {}
    kinds: list[str] = []
    blocks: list[RecordChunk] = []
    markers: list[EndMarker] = []
    footer: Optional[dict] = None
    for btype, payload, _ in _iter_blocks(fp):
        if btype == _BLOCK_META:
            meta = _json_block(payload, "META")
        elif btype == _BLOCK_KINDS:
            _parse_kinds(payload, kinds)
        elif btype == _BLOCK_RECORDS:
            blocks.append(_decode_record_block(payload, tuple(kinds)))
            blocks[-1].check()
        elif btype == _BLOCK_MARKERS:
            markers = _decode_marker_block(payload)
        elif btype == _BLOCK_END:
            footer = _json_block(payload, "END")
    assert footer is not None
    if footer["record_count"] != sum(len(b) for b in blocks) \
            or footer["marker_count"] != len(markers):
        raise TraceBinError(
            "corrupt trace: END footer counts disagree with decoded blocks")
    trace = Trace.from_chunk(RecordChunk.concat(blocks, tuple(kinds)),
                             markers, footer["exec_time"], meta)
    trace.validate()
    return trace


def load(fp: BinaryIO) -> Trace:
    """Read a full :class:`Trace` from a binary file object."""
    return _load_stream(fp)


def loads(data: bytes) -> Trace:
    """Read a full :class:`Trace` from binary bytes."""
    return _load_stream(io.BytesIO(data))


def read_file(path: Union[str, Path]) -> Trace:
    with open(path, "rb") as fp:
        return _load_stream(fp)


def iter_chunks(source: Union[str, Path, BinaryIO]) -> Iterator[RecordChunk]:
    """Stream RECORDS chunks without materialising the whole trace.

    Resident memory is O(chunk): each block is read, decoded into column
    arrays, yielded, and released.  Markers and ``exec_time`` are *not*
    surfaced here — fetch them first with :func:`read_summary` (a seek-only
    scan), then stream the records.
    """
    own = not hasattr(source, "read")
    fp: BinaryIO = open(source, "rb") if own else source  # type: ignore
    try:
        _check_header(fp)
        kinds: list[str] = []
        for btype, payload, _ in _iter_blocks(fp):
            if btype == _BLOCK_KINDS:
                _parse_kinds(payload, kinds)
            elif btype == _BLOCK_RECORDS:
                yield _decode_record_block(payload, tuple(kinds))
    finally:
        if own:
            fp.close()


def read_summary(source: Union[str, Path, BinaryIO]) -> dict:
    """Header/footer scan: meta, markers, counts — without decoding records.

    RECORDS payloads are seeked over, so the cost is O(blocks), not O(trace).
    Returns ``{"meta", "kinds", "markers", "exec_time", "record_count",
    "marker_count", "chunks", "version"}``.
    """
    own = not hasattr(source, "read")
    fp: BinaryIO = open(source, "rb") if own else source  # type: ignore
    try:
        _check_header(fp)
        meta: dict = {}
        kinds: list[str] = []
        markers: list[EndMarker] = []
        footer: dict = {}
        chunks = 0
        for btype, payload, _ in _iter_blocks(
                fp, skip_payloads=frozenset({_BLOCK_RECORDS})):
            if btype == _BLOCK_META:
                meta = _json_block(payload, "META")
            elif btype == _BLOCK_KINDS:
                _parse_kinds(payload, kinds)
            elif btype == _BLOCK_RECORDS:
                chunks += 1
            elif btype == _BLOCK_MARKERS:
                markers = _decode_marker_block(payload)
            elif btype == _BLOCK_END:
                footer = _json_block(payload, "END")
        if footer["chunks"] != chunks:
            raise TraceBinError(
                "corrupt trace: END footer chunk count disagrees with file")
        return {
            "meta": meta,
            "kinds": tuple(kinds),
            "markers": markers,
            "exec_time": footer["exec_time"],
            "record_count": footer["record_count"],
            "marker_count": footer["marker_count"],
            "chunks": chunks,
            "version": VERSION,
        }
    finally:
        if own:
            fp.close()


#: Block-type names for :func:`scan_blocks` / ``repro trace info``.
_BLOCK_NAMES = {
    _BLOCK_META: "META",
    _BLOCK_KINDS: "KINDS",
    _BLOCK_RECORDS: "RECORDS",
    _BLOCK_MARKERS: "MARKERS",
    _BLOCK_END: "END",
}


def scan_blocks(source: Union[str, Path, BinaryIO]) -> dict:
    """Truncation-tolerant O(header) block scan for inspection tooling.

    Walks the block headers only: RECORDS and MARKERS payloads are never
    read (let alone decoded), so the scan touches ``12 + 5 * n_blocks``
    bytes of record data regardless of trace size, and corrupt *payload*
    bytes cannot make it fail.  Unlike the loading readers this scan does
    not demand an END block: a truncated file yields whatever prefix of
    blocks is intact plus ``truncated=True``, which is exactly what you
    want from ``repro trace info`` when triaging a half-written capture.
    The magic/version check stays strict, as does the unknown-block check
    (those are corruption, not truncation).

    Returns ``{"meta", "kinds" (count), "footer" (dict or None),
    "blocks" ([{"type", "payload_bytes"}, ...]), "truncated",
    "version"}``.
    """
    own = not hasattr(source, "read")
    fp: BinaryIO = open(source, "rb") if own else source  # type: ignore
    try:
        _check_header(fp)
        pos = fp.tell()
        file_end = fp.seek(0, 2)
        fp.seek(pos)
        meta: dict = {}
        kinds_count = 0
        footer: Optional[dict] = None
        blocks: list[dict] = []
        truncated = False
        while True:
            head = fp.read(_BLOCK_HEAD.size)
            if not head:
                break
            if len(head) < _BLOCK_HEAD.size:
                truncated = True
                break
            btype, length = _BLOCK_HEAD.unpack(head)
            if btype not in _BLOCK_NAMES:
                raise TraceBinError(
                    f"corrupt trace: unknown block type {btype}")
            if fp.tell() + length > file_end:
                truncated = True
                break
            if btype in (_BLOCK_META, _BLOCK_KINDS, _BLOCK_END):
                payload = _read_exact(fp, length, f"block type {btype}")
                block = _json_block(payload, _BLOCK_NAMES[btype])
                if btype == _BLOCK_META:
                    meta = block
                elif btype == _BLOCK_KINDS:
                    kinds_count += len(block)
                else:
                    footer = block
            else:
                fp.seek(length, 1)
            blocks.append({"type": _BLOCK_NAMES[btype],
                           "payload_bytes": length})
            if btype == _BLOCK_END:
                break
        if footer is None:
            truncated = True
        return {
            "meta": meta,
            "kinds": kinds_count,
            "footer": footer,
            "blocks": blocks,
            "truncated": truncated,
            "version": VERSION,
        }
    finally:
        if own:
            fp.close()


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
    ``exec_time`` come from the END footer, so they are ``None`` for a
    truncated file.  For JSON the whole file must be parsed (there is no
    cheap scan — which is part of why the binary format exists).
    """
    path = Path(path)
    if is_binary_trace(path):
        s = scan_blocks(path)
        footer = s["footer"]
        chunk_bytes = [b["payload_bytes"] for b in s["blocks"]
                       if b["type"] == "RECORDS"]
        if footer is not None and footer.get("chunks") != len(chunk_bytes):
            raise TraceBinError(
                "corrupt trace: END footer chunk count disagrees with file")
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
