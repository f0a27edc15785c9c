"""Multi-chunk coverage for the out-of-core replay path (satellite 4).

``stream_naive_summary`` replays a binary trace chunk by chunk with
per-resource carry state; this file pins the part single-chunk tests
cannot see — that the carry actually works.  Three angles: chunking
invariance (the same trace split into many RECORDS chunks summarizes
identically to the single-chunk encoding), agreement with the in-memory
naive generational replay, and a hot-destination trace whose one
contended FIFO spans every chunk boundary.

The FIFO segment scan has one definition (``_FifoModel.serve_batch``) and
three callers — the full naive scan, the windowed solver's horizon batches
and the file chunks here — so ``test_one_scan_three_callers`` drives the
same schedule through all three, and ``test_degraded_engines_agree_exactly``
pins the event entities against the generational models under a degraded
timing object's ``penalty`` rule, which both read off :mod:`repro.onoc.timing`.
"""

from __future__ import annotations

import json
import struct

import pytest

from repro.config import (
    ONOC_CIRCUIT_MESH,
    ONOC_TOPOLOGIES,
    TRACE_NAIVE,
    TraceConfig,
)
from repro.core import replay_trace, stream_naive_summary, tracebin
from repro.core.trace import SECOND_TRIGGER, EndMarker, Trace, TraceRecord
from repro.harness.builders import optical_factory
from repro.resilience import MITIGATIONS, generate_timeseries
from repro.synth import default_profile, generate, synth_onoc
from tests.test_tracebin_roundtrip import _block_offsets, _with_payload

NODES = 16
MESSAGES = 3000
CHUNK = 256  # small enough for ~12 chunks at MESSAGES records

SUMMARY_KEYS = ("messages", "bytes", "exec_time_estimate",
                "mean_latency", "max_deliver")


@pytest.fixture(scope="module")
def synth_trace() -> Trace:
    return generate(default_profile(NODES, MESSAGES), seed=5)


def _write_both(trace: Trace, tmp_path):
    single = tmp_path / "single.rtrc"
    multi = tmp_path / "multi.rtrc"
    tracebin.write_file(trace, single)
    tracebin.write_file(trace, multi, chunk_records=CHUNK)
    return single, multi


@pytest.mark.parametrize("topology", ONOC_TOPOLOGIES)
def test_chunking_invisible_to_stream_summary(synth_trace, tmp_path, topology):
    """Chunk size is a container knob: the streaming replay must not see it."""
    single, multi = _write_both(synth_trace, tmp_path)
    onoc = synth_onoc(topology, NODES)
    one = stream_naive_summary(single, onoc)
    many = stream_naive_summary(multi, onoc)
    assert many["chunks"] > 8  # the multi file genuinely exercises carry
    assert one["chunks"] == 1
    for key in SUMMARY_KEYS:
        assert one[key] == many[key], key


@pytest.mark.parametrize("topology", ONOC_TOPOLOGIES)
def test_stream_summary_matches_in_memory_naive(synth_trace, tmp_path,
                                                topology):
    """The streaming scan is a replay, not an approximation: exec estimate,
    mean latency and last delivery must equal the in-memory naive
    generational replay exactly."""
    _, multi = _write_both(synth_trace, tmp_path)
    onoc = synth_onoc(topology, NODES)
    summary = stream_naive_summary(multi, onoc)
    result = replay_trace(
        synth_trace, optical_factory(onoc, 7),
        TraceConfig(mode=TRACE_NAIVE, engine="generational"))
    assert summary["messages"] == len(synth_trace)
    assert summary["bytes"] == sum(
        r.size_bytes for r in synth_trace.records)
    assert summary["exec_time_estimate"] == result.exec_time_estimate
    lats = result.latencies_by_key
    assert summary["mean_latency"] == pytest.approx(
        sum(lats.values()) / len(lats))
    assert summary["max_deliver"] == max(result.deliveries.values())
    assert summary["captured_exec_time"] == synth_trace.exec_time


def _hot_destination_trace(n_records: int) -> Trace:
    """Every message targets node 0: one crossbar FIFO carries occupancy
    across every chunk boundary, and the token/channel carry state is the
    only thing keeping the replay consistent."""
    records = []
    for i in range(n_records):
        t = i * 2
        records.append(TraceRecord(
            msg_id=i, key=(1 + i % (NODES - 1), 0, "data", i, 0),
            src=1 + i % (NODES - 1), dst=0, size_bytes=64, kind="data",
            t_inject=t, t_deliver=t + 12, cause_id=-1, gap=t))
    last = records[-1]
    markers = [EndMarker(0, last.t_deliver + 10, last.msg_id, 10)]
    markers += [EndMarker(node, 0, -1, 0) for node in range(1, NODES)]
    trace = Trace(records=records, end_markers=markers,
                  exec_time=last.t_deliver + 10, meta={"workload": "hot"})
    trace.validate()
    return trace


@pytest.mark.parametrize("topology", ("crossbar", "swmr_crossbar"))
def test_hot_destination_carry_spans_chunks(tmp_path, topology):
    trace = _hot_destination_trace(1200)
    single, multi = _write_both(trace, tmp_path)
    onoc = synth_onoc(topology, NODES)
    one = stream_naive_summary(single, onoc)
    many = stream_naive_summary(multi, onoc)
    assert many["chunks"] >= 4
    for key in SUMMARY_KEYS:
        assert one[key] == many[key], key
    result = replay_trace(
        trace, optical_factory(onoc, 7),
        TraceConfig(mode=TRACE_NAIVE, engine="generational"))
    assert many["exec_time_estimate"] == result.exec_time_estimate
    assert many["max_deliver"] == max(result.deliveries.values())
    if topology == "crossbar":
        # The hot FIFO must actually be backed up — mean latency far above
        # the captured 12 cycles — or this test exercises nothing.  (On
        # swmr_crossbar the FIFO resource is the *source*, which rotates,
        # so the same trace is contention-free there by design.)
        assert many["mean_latency"] > 10 * 12


def test_tiny_chunks_still_agree(synth_trace, tmp_path):
    """chunk_records=64 -> ~47 chunks: resources cross dozens of borders."""
    path = tmp_path / "tiny.rtrc"
    tracebin.write_file(synth_trace, path, chunk_records=64)
    onoc = synth_onoc("crossbar", NODES)
    tiny = stream_naive_summary(path, onoc)
    single = tracebin.dumps(synth_trace)
    ref_path = tmp_path / "ref.rtrc"
    ref_path.write_bytes(single)
    ref = stream_naive_summary(ref_path, onoc)
    assert tiny["chunks"] > 40
    for key in SUMMARY_KEYS:
        assert tiny[key] == ref[key], key


#: msg_ids in file order, four records per chunk.  The end markers' causes
#: 1, 9 and 23 sit in the first, a middle and the last chunk; chunk 1 holds
#: none, and chunk 0's id range [0, 20] brackets cause 9, held by chunk 2.
_SPREAD_IDS = (0, 1, 2, 20, 3, 4, 5, 6, 7, 8, 9, 10,
               11, 12, 13, 14, 15, 16, 17, 18, 19, 21, 22, 23)
_SPREAD_CAUSES = {2: 1, 5: 9, 9: 23}      # node -> cause msg_id


def _marker_spread_trace(last: int) -> Trace:
    """Roots to one hot destination, captured 1000 cycles long, so every
    replayed delivery differs from its captured one; the marker of node
    ``last`` finishes far after its cause and decides the estimate."""
    records = [TraceRecord(
        msg_id=m, key=(1 + i % (NODES - 1), 0, "data", m, 0),
        src=1 + i % (NODES - 1), dst=0, size_bytes=64, kind="data",
        t_inject=10 * i, t_deliver=10 * i + 1000, cause_id=-1, gap=10 * i)
        for i, m in enumerate(_SPREAD_IDS)]
    deliver = {r.msg_id: r.t_deliver for r in records}
    markers = [EndMarker(node, 0, -1, 0) for node in range(NODES)
               if node not in _SPREAD_CAUSES]
    for node, cause in _SPREAD_CAUSES.items():
        gap = 100_000 if node == last else 0
        markers.append(EndMarker(node, deliver[cause] + gap, cause, gap))
    trace = Trace(records=records, end_markers=markers,
                  exec_time=max(m.t_finish for m in markers), meta={})
    trace.validate()
    return trace


@pytest.mark.parametrize("last", sorted(_SPREAD_CAUSES))
def test_marker_causes_spread_over_chunks(tmp_path, last):
    """The stream looks up each chunk's rows only against the causes inside
    its msg_id range; wherever a cause sits, its replayed delivery — not
    its captured one — must end up in the estimate."""
    trace = _marker_spread_trace(last)
    path = tmp_path / "spread.rtrc"
    tracebin.write_file(trace, path, chunk_records=4)
    onoc = synth_onoc("crossbar", NODES)
    summary = stream_naive_summary(path, onoc)
    result = replay_trace(
        trace, optical_factory(onoc, 7),
        TraceConfig(mode=TRACE_NAIVE, engine="generational"))
    assert summary["chunks"] == 6
    assert summary["exec_time_estimate"] == result.exec_time_estimate
    cause = _SPREAD_CAUSES[last]
    assert result.exec_time_estimate == result.deliveries[cause] + 100_000
    assert result.deliveries[cause] != 10 * _SPREAD_IDS.index(cause) + 1000


def _pinned_at(trace: Trace, result) -> Trace:
    """The same messages as timestamp-driven roots at ``result``'s
    schedule, in canonical (t_inject, msg_id) order."""
    records = sorted(
        (TraceRecord(
            msg_id=r.msg_id, key=r.key, src=r.src, dst=r.dst,
            size_bytes=r.size_bytes, kind=r.kind,
            t_inject=result.injections[r.msg_id],
            t_deliver=result.deliveries[r.msg_id],
            cause_id=-1, gap=result.injections[r.msg_id])
         for r in trace.records),
        key=lambda r: (r.t_inject, r.msg_id))
    end = max(r.t_deliver for r in records)
    markers = [EndMarker(0, end, -1, 0)]
    markers += [EndMarker(node, 0, -1, 0) for node in range(1, NODES)]
    pinned = Trace(records=records, end_markers=markers, exec_time=end,
                   meta=dict(trace.meta))
    pinned.validate()
    return pinned


@pytest.mark.parametrize("topology", ONOC_TOPOLOGIES)
def test_one_scan_three_callers(tmp_path, topology):
    trace = generate(default_profile(NODES, 1200), seed=6)
    onoc = synth_onoc(topology, NODES)
    factory = optical_factory(onoc, 7)
    # Caller 1: the windowed solver serves the trace in horizon batches.
    windowed = replay_trace(trace, factory, TraceConfig(engine="generational"))
    assert windowed.messages_replayed == len(trace)
    assert windowed.extra["iterations"] > 8        # many batches, not one
    # Caller 2: one full scan of the same messages at the same injections.
    pinned = _pinned_at(trace, windowed)
    full = replay_trace(
        pinned, factory, TraceConfig(mode=TRACE_NAIVE, engine="generational"))
    assert full.injections == windowed.injections
    assert full.deliveries == windowed.deliveries
    # Caller 3: file chunks, from one record per chunk to one chunk.
    latency_sum = sum(windowed.deliveries[m] - windowed.injections[m]
                      for m in windowed.deliveries)
    for chunk_records in (1, 7, tracebin.CHUNK_RECORDS):
        path = tmp_path / f"pinned-{chunk_records}.rtrc"
        tracebin.write_file(pinned, path, chunk_records=chunk_records)
        summary = stream_naive_summary(path, onoc)
        assert summary["chunks"] == -(-len(trace) // chunk_records)
        assert summary["messages"] == len(trace)
        assert summary["max_deliver"] == max(windowed.deliveries.values())
        assert round(summary["mean_latency"] * len(trace)) == latency_sum


def _sparse_trace(n_records: int, spacing: int) -> Trace:
    """Timestamp-driven roots ``spacing`` cycles apart, endpoints and sizes
    rotating: with ``spacing`` above a circuit's lifetime no two messages
    are ever in the network together, so even the circuit mesh — whose
    generational model is the contention-free closed form — has one exact
    schedule."""
    records = []
    for i in range(n_records):
        src = i % NODES
        dst = (src + 1 + i % (NODES - 1)) % NODES
        t = i * spacing
        records.append(TraceRecord(
            msg_id=i, key=(src, dst, "data", i, 0), src=src, dst=dst,
            size_bytes=(8, 64, 512)[i % 3], kind="data",
            t_inject=t, t_deliver=t + 12, cause_id=-1, gap=t))
    end = records[-1].t_deliver
    markers = [EndMarker(0, end, -1, 0)]
    markers += [EndMarker(node, 0, -1, 0) for node in range(1, NODES)]
    trace = Trace(records=records, end_markers=markers, exec_time=end,
                  meta={"workload": "sparse"})
    trace.validate()
    return trace


@pytest.mark.parametrize("topology,mitigation", [
    (t, MITIGATIONS[i % len(MITIGATIONS)])
    for i, t in enumerate(t for t in ONOC_TOPOLOGIES
                          if t != ONOC_CIRCUIT_MESH)
] + [(ONOC_CIRCUIT_MESH, m) for m in MITIGATIONS])
def test_degraded_engines_agree_exactly(synth_trace, topology, mitigation):
    """One degraded cell per FIFO backend and every mitigation on the
    circuit mesh, naive mode so the schedule is fixed: the event entity
    (one ``penalty`` call per message) and the generational model (one per
    batch) must stretch the same serialization.  The circuit cells replay
    a contention-free trace — the domain where its two engines are equal."""
    trace = (_sparse_trace(400, 2000) if topology == ONOC_CIRCUIT_MESH
             else synth_trace)
    onoc = synth_onoc(topology, NODES)
    series = generate_timeseries(
        "thermal_drift+corruption_bursts", seed=3, num_nodes=NODES,
        horizon=max(r.t_inject for r in trace.records), intensity=0.9)
    results = [
        replay_trace(
            trace, optical_factory(onoc, 7),
            TraceConfig(mode=TRACE_NAIVE, engine=engine,
                        fault_events=series.as_tuples(),
                        mitigation=mitigation))
        for engine in ("event", "generational")]
    event, generational = results
    assert event.deliveries == generational.deliveries
    assert (event.extra["resilience"]["penalty"]
            == generational.extra["resilience"]["penalty"])
    assert event.extra["resilience"]["penalty"]["total_cycles"] > 0


def test_chunks_going_back_in_time_are_refused(tmp_path):
    """The carried channel state only works forward in time.  A container
    whose second chunk injects before the first one ended used to be
    answered — wrongly — and is now refused, naming the chunk; the
    canonical encoding of the same messages is untouched."""
    trace = _hot_destination_trace(600)
    onoc = synth_onoc("crossbar", NODES)
    canonical = tmp_path / "canonical.rtrc"
    tracebin.write_file(trace, canonical, chunk_records=300)
    summary = stream_naive_summary(canonical, onoc)
    assert summary["chunks"] == 2
    result = replay_trace(
        trace, optical_factory(onoc, 7),
        TraceConfig(mode=TRACE_NAIVE, engine="generational"))
    assert summary["exec_time_estimate"] == result.exec_time_estimate
    assert summary["max_deliver"] == max(result.deliveries.values())

    swapped = Trace(records=trace.records[300:] + trace.records[:300],
                    end_markers=trace.end_markers,
                    exec_time=trace.exec_time, meta=dict(trace.meta))
    backwards = tmp_path / "backwards.rtrc"
    tracebin.write_file(swapped, backwards, chunk_records=300)
    with pytest.raises(ValueError, match="chunk 1 .*inject-time order"):
        stream_naive_summary(backwards, onoc)
    # Out of order *within* one chunk is the scan's own sort, not an error.
    one_chunk = tmp_path / "one-chunk.rtrc"
    tracebin.write_file(swapped, one_chunk)
    unsorted = stream_naive_summary(one_chunk, onoc)
    for key in SUMMARY_KEYS:
        assert unsorted[key] == summary[key], key


def test_a_tie_across_a_chunk_border_is_ordered_by_msg_id(tmp_path):
    """Both engines serve same-cycle messages by ``msg_id``.  Two messages
    to node 5 at cycle 10, id 1 in chunk 0 and id 0 in chunk 1, would be
    served in file order by the carry — one cycle later than the in-memory
    replay answers — so the stream refuses the container instead."""
    records = [TraceRecord(
        msg_id=i, key=(src, 5, "data", i, 0), src=src, dst=5, size_bytes=64,
        kind="data", t_inject=10, t_deliver=22, cause_id=-1, gap=10)
        for i, src in ((1, 3), (0, 12))]
    trace = Trace(records=records, end_markers=[], exec_time=30, meta={})
    trace.validate()
    onoc = synth_onoc("crossbar", NODES)
    result = replay_trace(
        trace, optical_factory(onoc, 7),
        TraceConfig(mode=TRACE_NAIVE, engine="generational"))
    assert result.exec_time_estimate == 19
    split = tmp_path / "split.rtrc"
    tracebin.write_file(trace, split, chunk_records=1)
    with pytest.raises(ValueError,
                       match="^chunk 1 injects at 10, before the previous "
                             "chunk's last injection at 10: .*inject-time"):
        stream_naive_summary(split, onoc)
    # In one chunk the scan's own sort puts id 0 first.
    whole = tmp_path / "whole.rtrc"
    tracebin.write_file(trace, whole)
    assert stream_naive_summary(whole, onoc)["exec_time_estimate"] == 19
    # Ids in order across the border: the carry serves them as the replay.
    trace.records.reverse()
    tracebin.write_file(trace, split, chunk_records=1)
    assert stream_naive_summary(split, onoc)["exec_time_estimate"] == 19


def _unchecked_record(good: TraceRecord, **fields) -> TraceRecord:
    """``good`` with ``fields`` overwritten *past* ``__post_init__`` — the
    record a foreign writer could put in a container."""
    bad = object.__new__(TraceRecord)
    for name in TraceRecord.__dataclass_fields__:
        object.__setattr__(bad, name, fields.get(name, getattr(good, name)))
    return bad


def _write_with_bad_record(path, **fields) -> None:
    """Four records in two chunks; record 2 (chunk 1) carries ``fields``.
    No record has the reserved columns (``bound_id`` / ``bound_gap``), so
    those are written into the container's bytes."""
    reserved = {name: fields.pop(name) for name in tracebin._RESERVED
                if name in fields}
    trace = _hot_destination_trace(4)
    trace.records[2] = _unchecked_record(trace.records[2], **fields)
    tracebin.write_file(trace, path, chunk_records=2)
    if not reserved:
        return
    blob = path.read_bytes()
    off, btype, length = [b for b in _block_offsets(blob)
                          if b[1] == tracebin._BLOCK_RECORDS][1]
    columns = tracebin._decode_columns(
        blob[off + 5:off + 5 + length], tracebin._RECORD_COLUMNS, "RECORDS")
    names = [name for name, _ in tracebin._RECORD_COLUMNS]
    for name, value in reserved.items():
        columns[names.index(name)][0] = value
    payload = tracebin._encode_columns(tracebin._RECORD_COLUMNS, columns)
    path.write_bytes(blob[:off] + struct.pack("<BI", btype, len(payload))
                     + payload + blob[off + 5 + length:])


@pytest.mark.parametrize("fields", [
    {"src": 3, "dst": 3},
    {"size_bytes": 0},
    {"t_inject": 1 << 62, "t_deliver": (1 << 62) + 12},
    {"bound_id": 0},
], ids=["self_send", "empty_payload", "time_beyond_2_62",
        "bound_without_cause"])
@pytest.mark.parametrize("topology", ("crossbar", "awgr", ONOC_CIRCUIT_MESH))
def test_records_the_loader_refuses_are_refused(tmp_path, topology, fields):
    """The stream builds no ``TraceRecord``, so it used to replay what
    ``load_trace`` rejects — a self-send priced as a full lap of the
    serpentine, an empty payload as one cycle, a time of 2^62 cycles, a
    second trigger (here on a record without a cause).  The chunk reader
    runs the loader's per-block check, so both refuse with the loader's
    type and text."""
    path = tmp_path / "bad.rtrc"
    _write_with_bad_record(path, **fields)
    with pytest.raises(ValueError, match="record 2") as loaded:
        tracebin.load_trace(path)
    for reader in (lambda: stream_naive_summary(path,
                                                synth_onoc(topology, NODES)),
                   lambda: list(tracebin.iter_chunks(path))):
        with pytest.raises(ValueError) as got:
            reader()
        assert type(got.value) is type(loaded.value)
        assert str(got.value) == str(loaded.value)


LOADING_READERS = pytest.mark.parametrize("reader", [
    lambda path: tracebin.loads(path.read_bytes()),
    lambda path: list(tracebin.iter_chunks(path)),
    lambda path: stream_naive_summary(path, synth_onoc("crossbar", NODES)),
], ids=["loads", "iter_chunks", "stream_naive_summary"])


@LOADING_READERS
@pytest.mark.parametrize("column, value", [
    ("bound_id", 0), ("bound_id", -2), ("bound_gap", 3)])
def test_a_second_trigger_is_refused_by_every_loading_reader(
        tmp_path, reader, column, value):
    """A container's two reserved RECORDS columns hold -1 / 0.  Any other
    value is one typed refusal of the shared block walk, so every loading
    reader makes it alike."""
    path = tmp_path / "second-trigger.rtrc"
    _write_with_bad_record(path, **{column: value})
    with pytest.raises(tracebin.TraceBinError) as refused:
        reader(path)
    assert str(refused.value) == SECOND_TRIGGER.format(id=2)


@LOADING_READERS
@pytest.mark.parametrize("field", ("record_count", "marker_count"))
def test_every_loading_reader_checks_the_end_footer(tmp_path, field, reader):
    """A footer count one off is corruption to every loading reader, not
    only to the loader: each checks all three counts."""
    blob = tracebin.dumps(_hot_destination_trace(600), chunk_records=200)
    off, _, length = next(b for b in _block_offsets(blob) if b[1] == 5)
    footer = json.loads(blob[off + 5:off + 5 + length])
    footer[field] += 1
    path = tmp_path / "doctored.rtrc"
    path.write_bytes(_with_payload(
        blob, 5, json.dumps(footer, sort_keys=True).encode()))
    with pytest.raises(tracebin.TraceBinError, match="END footer"):
        reader(path)


def test_the_stream_decodes_each_records_payload_once(tmp_path, monkeypatch):
    """The stream reads the markers and the footer from a walk that seeks
    over every RECORDS payload, so a pass decodes each payload once: in
    the chunk it replays."""
    path = tmp_path / "three.rtrc"
    tracebin.write_file(_hot_destination_trace(600), path, chunk_records=200)
    calls = []
    decode = tracebin._decode_records
    monkeypatch.setattr(tracebin, "_decode_records",
                        lambda *args: calls.append(1) or decode(*args))
    summary = stream_naive_summary(path, synth_onoc("crossbar", NODES))
    assert summary["chunks"] == len(calls) == 3


def test_the_stream_decodes_each_marker_once(tmp_path, monkeypatch):
    """The header walk decodes the markers and checks their count; the
    chunk pass seeks over them, so a pass builds one ``EndMarker`` per
    marker."""
    trace = _hot_destination_trace(600)
    path = tmp_path / "three.rtrc"
    tracebin.write_file(trace, path, chunk_records=200)
    built = []

    class Spy(EndMarker):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(tracebin, "EndMarker", Spy)
    stream_naive_summary(path, synth_onoc("crossbar", NODES))
    assert len(built) == len(trace.end_markers) == NODES


def test_negative_endpoints_never_reach_a_container(tmp_path):
    """The third ``TraceRecord`` endpoint check needs no stream-side twin:
    ``src`` / ``dst`` are unsigned columns and the writer refuses them."""
    with pytest.raises(tracebin.TraceBinError, match="unsigned column"):
        _write_with_bad_record(tmp_path / "negative.rtrc", src=-1)


# ------------------------------------------------------ empty RECORDS blocks
def _with_empty_blocks(blob: bytes, where: set[int]) -> bytes:
    """``blob`` with an empty RECORDS block (count 0, sixteen zero-length
    columns) put in front of its ``k``-th RECORDS block for every ``k`` in
    ``where`` — ``k`` = the number of RECORDS blocks means after the last
    — and the END footer's chunk count brought up to date.  The writer
    never emits such a block (``add_chunk`` skips an empty chunk), but the
    format allows it and the loader accepts it."""
    head = struct.Struct("<BI")
    empty = head.pack(3, 17 * 4) + struct.pack("<I", 0) * 17
    out, seen, added = [blob[:12]], 0, 0
    for off, btype, length in _block_offsets(blob):
        payload = blob[off + head.size:off + head.size + length]
        if btype in (3, 4) and seen in where:   # RECORDS k, or MARKERS
            out.append(empty)
            where = where - {seen}
            added += 1
        seen += btype == 3
        if btype == 5:
            footer = json.loads(payload)
            footer["chunks"] += added
            payload = json.dumps(footer, sort_keys=True).encode()
        out.append(head.pack(btype, len(payload)) + payload)
    return b"".join(out)


@pytest.mark.parametrize("where", [{1}, {0, 2}, {0, 1, 2, 3}],
                         ids=["between", "two_holes", "everywhere"])
@pytest.mark.parametrize("topology", ("crossbar", ONOC_CIRCUIT_MESH))
def test_empty_records_block_is_skipped_by_the_stream(tmp_path, topology,
                                                      where):
    """A RECORDS block of count 0 used to kill the streaming replay with
    NumPy's "zero-size array to reduction operation maximum"; the loader
    always took it.  Both now agree with the in-memory naive replay."""
    trace = _hot_destination_trace(600)
    path = tmp_path / "holes.rtrc"
    path.write_bytes(_with_empty_blocks(
        tracebin.dumps(trace, chunk_records=200), where))
    assert tracebin.scan_blocks(path)["footer"]["chunks"] == 3 + len(where)
    assert [len(c) for c in tracebin.iter_chunks(path)].count(0) == len(where)
    loaded = tracebin.load_trace(path)
    assert loaded.records == trace.records

    onoc = synth_onoc(topology, NODES)
    summary = stream_naive_summary(path, onoc)
    result = replay_trace(
        loaded, optical_factory(onoc, 7),
        TraceConfig(mode=TRACE_NAIVE, engine="generational"))
    assert summary["messages"] == 600
    assert summary["exec_time_estimate"] == result.exec_time_estimate
    assert summary["max_deliver"] == max(result.deliveries.values())
    plain = tmp_path / "plain.rtrc"
    tracebin.write_file(trace, plain, chunk_records=200)
    for key in SUMMARY_KEYS:
        assert summary[key] == stream_naive_summary(plain, onoc)[key], key


@pytest.mark.parametrize("engine", ("event", "generational"))
@pytest.mark.parametrize("mode", (TRACE_NAIVE, "self_correcting"))
def test_a_container_of_only_empty_blocks_is_an_empty_trace(tmp_path, engine,
                                                            mode):
    empty = Trace(records=[], end_markers=[], exec_time=0, meta={})
    path = tmp_path / "empty.rtrc"
    path.write_bytes(_with_empty_blocks(tracebin.dumps(empty), {0}))
    assert tracebin.scan_blocks(path)["footer"]["chunks"] == 1
    loaded = tracebin.load_trace(path)
    assert len(loaded) == 0 and loaded.records == []
    onoc = synth_onoc("crossbar", NODES)
    result = replay_trace(loaded, optical_factory(onoc, 7),
                          TraceConfig(mode=mode, engine=engine))
    assert result.exec_time_estimate == 0 and result.messages_replayed == 0
    summary = stream_naive_summary(path, onoc)
    assert (summary["messages"], summary["exec_time_estimate"]) == (0, 0)
