"""Binary trace container round-trips and rejection paths (satellite 3).

``docs/TRACE_FORMAT.md`` promises the binary container is a lossless
re-encoding of the canonical JSON form.  This file pins that promise three
ways: byte-stability of binary -> JSON -> binary on the golden corpus,
hard rejection of damaged payloads (truncation, bad magic, future
versions, corrupt blocks), and a hypothesis identity over generated
dependency DAGs.
"""

from __future__ import annotations

import io
import json
import pathlib
import struct

import pytest
from hypothesis import given, settings

from repro.core import tracebin
from repro.core.trace import EndMarker, Trace, TraceRecord
from repro.core.tracebin import MAGIC, TraceBinError, VERSION
from repro.validate.golden import GOLDEN_SCENARIOS, _trace_path

from tests.test_properties_trace import traces

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _golden(scenario) -> Trace:
    return Trace.from_json(_trace_path(GOLDEN_DIR, scenario).read_text())


def _sample() -> Trace:
    records = [
        TraceRecord(msg_id=0, key=(0, 1, "req_read", 0, 0), src=0, dst=1,
                    size_bytes=64, kind="req_read", t_inject=5, t_deliver=20,
                    cause_id=-1, gap=5),
        TraceRecord(msg_id=1, key=(1, 0, "reply", 0, 0), src=1, dst=0,
                    size_bytes=512, kind="reply", t_inject=23, t_deliver=60,
                    cause_id=0, gap=3),
    ]
    return Trace(records=records,
                 end_markers=[EndMarker(0, 70, 1, 10), EndMarker(1, 30, 0, 10)],
                 exec_time=70, meta={"workload": "sample", "seed": 1})


# ------------------------------------------------------------- round-trips

@pytest.mark.parametrize("scenario", GOLDEN_SCENARIOS, ids=lambda s: s.name)
def test_golden_corpus_binary_json_binary_is_byte_stable(scenario):
    trace = _golden(scenario)
    blob = trace.to_binary()
    back = Trace.from_binary(blob)
    # Lossless through the JSON container and byte-stable through the
    # binary one, in both compositions.
    assert back.to_json() == trace.to_json()
    assert Trace.from_json(back.to_json()).to_binary() == blob
    assert back.to_binary() == blob


def test_round_trip_preserves_every_field():
    trace = _sample()
    back = Trace.from_binary(trace.to_binary())
    assert back.records == trace.records
    assert back.end_markers == trace.end_markers
    assert back.exec_time == trace.exec_time
    assert back.meta == trace.meta


def test_empty_trace_round_trips():
    trace = Trace(records=[], end_markers=[], exec_time=0, meta={"k": "v"})
    back = Trace.from_binary(trace.to_binary())
    assert len(back) == 0
    assert back.meta == {"k": "v"}


def test_chunking_is_invisible():
    """The chunk size is a container knob, not part of the content."""
    trace = _sample()
    one_per_chunk = tracebin.dumps(trace, chunk_records=1)
    assert Trace.from_binary(one_per_chunk).to_json() == trace.to_json()


# --------------------------------------------------------- rejection paths

def test_bad_magic_rejected():
    blob = bytearray(_sample().to_binary())
    blob[:4] = b"JUNK"
    with pytest.raises(TraceBinError, match="bad magic"):
        Trace.from_binary(bytes(blob))


def test_json_payload_is_not_a_binary_trace():
    with pytest.raises(TraceBinError, match="bad magic"):
        Trace.from_binary(_sample().to_json().encode())


def test_version_mismatch_rejected():
    blob = bytearray(_sample().to_binary())
    struct.pack_into("<I", blob, len(MAGIC), VERSION + 1)
    with pytest.raises(TraceBinError, match="version"):
        Trace.from_binary(bytes(blob))


def test_truncated_header_rejected():
    blob = _sample().to_binary()
    for cut in (0, 3, len(MAGIC) + 1):
        with pytest.raises(TraceBinError):
            Trace.from_binary(blob[:cut])


def test_truncated_body_rejected_at_every_cut():
    """No prefix of a valid trace may load (the END block is mandatory)."""
    blob = _sample().to_binary()
    for cut in range(len(MAGIC) + 4, len(blob), 7):
        with pytest.raises(TraceBinError):
            Trace.from_binary(blob[:cut])


def test_unknown_block_type_rejected():
    blob = bytearray(_sample().to_binary())
    # First block starts right after the fixed header.
    blob[len(MAGIC) + 4] = 99
    with pytest.raises(TraceBinError, match="unknown block"):
        Trace.from_binary(bytes(blob))


def test_corrupt_record_payload_rejected():
    trace = _sample()
    blob = trace.to_binary()
    # Flip a byte in the middle of the RECORDS block region; any of the
    # possible corruptions must surface as TraceBinError or a validation
    # ValueError — never a silently different trace.
    mid = len(blob) // 2
    blob = blob[:mid] + bytes([blob[mid] ^ 0xFF]) + blob[mid + 1:]
    try:
        back = Trace.from_binary(blob)
    except (TraceBinError, ValueError):
        return  # rejected: the common case
    # Corruption that survives decoding + validation must at least be
    # *visible* — it can never alias back to the original content.
    assert back.to_json() != trace.to_json()


# ------------------------------------------------- header-only inspection

def _block_offsets(blob: bytes):
    """Yield (offset, type, payload_len) for every block in ``blob``."""
    bh = struct.Struct("<BI")
    off = len(MAGIC) + 4
    while off < len(blob):
        btype, length = bh.unpack_from(blob, off)
        yield off, btype, length
        off += bh.size + length


def test_trace_info_reports_per_block_sizes(tmp_path):
    trace = _sample()
    path = tmp_path / "t.rtrc"
    path.write_bytes(tracebin.dumps(trace, chunk_records=1))
    info = tracebin.trace_info(path)
    assert info["truncated"] is False
    assert info["records"] == 2
    assert info["chunks"] == 2
    assert len(info["record_chunk_bytes"]) == 2
    # Per-block accounting must tile the file exactly: fixed header +
    # 5 bytes of head per block + the payload sizes.
    n_blocks = sum(a["count"] for a in info["blocks"].values())
    payload_total = sum(a["bytes"] for a in info["blocks"].values())
    assert payload_total + 5 * n_blocks + len(MAGIC) + 4 == info["file_bytes"]
    assert info["blocks"]["RECORDS"]["count"] == 2
    assert info["blocks"]["RECORDS"]["bytes"] == sum(
        info["record_chunk_bytes"])
    assert info["blocks"]["END"]["count"] == 1


def test_trace_info_tolerates_truncation_after_meta(tmp_path):
    """The O(header) pin: a file cut right after the META block still
    yields its meta and ``truncated=True`` from ``trace_info``, while the
    loading readers keep rejecting it (END stays mandatory for loads)."""
    blob = tracebin.dumps(_sample())
    off, btype, length = next(iter(_block_offsets(blob)))
    assert btype == 1  # META is always first
    cut = off + 5 + length
    path = tmp_path / "trunc.rtrc"
    path.write_bytes(blob[:cut])
    info = tracebin.trace_info(path)
    assert info["truncated"] is True
    assert info["meta"] == {"workload": "sample", "seed": 1}
    assert info["records"] is None
    assert info["exec_time"] is None
    assert info["chunks"] == 0
    with pytest.raises(TraceBinError, match="missing END"):
        Trace.from_binary(blob[:cut])
    with pytest.raises(TraceBinError):
        list(tracebin.iter_chunks(path))


def test_trace_info_tolerates_mid_block_truncation(tmp_path):
    """A cut *inside* a RECORDS payload still reports the intact prefix."""
    blob = tracebin.dumps(_sample())
    records_off = next(
        off for off, btype, _ in _block_offsets(blob) if btype == 3)
    path = tmp_path / "trunc.rtrc"
    path.write_bytes(blob[:records_off + 5 + 3])  # 3 bytes into the payload
    info = tracebin.trace_info(path)
    assert info["truncated"] is True
    assert info["chunks"] == 0  # the cut chunk is not counted as intact
    assert info["blocks"].get("META", {}).get("count") == 1


def test_trace_info_never_decodes_record_payloads(tmp_path):
    """Garbage record *payload* bytes cannot break the info scan — proof
    that it works from the block heads alone."""
    blob = bytearray(tracebin.dumps(_sample(), chunk_records=1))
    for off, btype, length in _block_offsets(bytes(blob)):
        if btype == 3:  # RECORDS
            blob[off + 5:off + 5 + length] = b"\xff" * length
    path = tmp_path / "corrupt.rtrc"
    path.write_bytes(bytes(blob))
    info = tracebin.trace_info(path)
    assert info["truncated"] is False
    assert info["records"] == 2
    assert info["chunks"] == 2
    # The full loader must still reject the damaged payloads.
    with pytest.raises((TraceBinError, ValueError)):
        tracebin.read_file(path)


def _with_payload(blob: bytes, block_type: int, payload: bytes) -> bytes:
    """``blob`` with the first ``block_type`` block's payload replaced
    (block head re-packed, so the framing stays intact)."""
    off, _, length = next(
        b for b in _block_offsets(blob) if b[1] == block_type)
    return (blob[:off] + struct.pack("<BI", block_type, len(payload))
            + payload + blob[off + 5 + length:])


_META, _END = 1, 5


def test_trace_info_refuses_a_wrong_chunk_count(tmp_path):
    """The scan reads no record payload, but the footer's chunk count is a
    fact of the block heads: one off is corruption, not truncation."""
    blob = tracebin.dumps(_sample(), chunk_records=1)
    off, _, length = next(b for b in _block_offsets(blob) if b[1] == _END)
    footer = json.loads(blob[off + 5:off + 5 + length])
    footer["chunks"] += 1
    path = tmp_path / "doctored.rtrc"
    path.write_bytes(_with_payload(blob, _END, json.dumps(footer).encode()))
    with pytest.raises(TraceBinError, match="END footer chunk"):
        tracebin.trace_info(path)


@pytest.mark.parametrize("reader", [
    tracebin.loads,
    lambda blob: list(tracebin.iter_chunks(io.BytesIO(blob))),
    lambda blob: tracebin.scan_blocks(io.BytesIO(blob)),
], ids=["loads", "iter_chunks", "scan_blocks"])
@pytest.mark.parametrize("block_type,payload", [
    (_END, b"[]"),
    (_END, b'{"record_count": 2, "marker_count": 2, "chunks": 1}'),
    (_META, b"\xff\xfe"),
    (_END, b"{"),
    (_META, b"[1]"),
    (_META, b"[" * 100_000),
], ids=["end-not-object", "end-no-exec_time", "meta-bad-utf8",
        "end-bad-json", "meta-not-object", "meta-nested-too-deep"])
def test_malformed_json_block_is_a_typed_error(block_type, payload, reader):
    """A damaged META/END JSON payload is corruption like any other: every
    reader reports it as TraceBinError, never a raw decode/lookup error —
    and never accepts it."""
    blob = _with_payload(tracebin.dumps(_sample()), block_type, payload)
    with pytest.raises(TraceBinError, match="corrupt trace"):
        reader(blob)


# ------------------------------------------------------------- hypothesis

@given(traces())
@settings(max_examples=60, deadline=None)
def test_binary_round_trip_identity_on_generated_traces(trace):
    back = Trace.from_binary(trace.to_binary())
    assert back.records == trace.records
    assert back.end_markers == trace.end_markers
    assert back.exec_time == trace.exec_time
    assert back.to_json() == trace.to_json()
