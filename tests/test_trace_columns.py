"""A trace born as columns stays columns; its records are a view.

``load_trace`` and ``synth.generate`` hand back a :class:`Trace` holding a
:class:`RecordChunk`; validation, the writer and the generational solver
read the columns, and ``.records`` builds the list on first touch, after
which the list is authoritative exactly as for a record-built trace.
None of that may be visible in a result — ``tests/test_replay_digests.py``
and ``tests/test_trace_refusals.py`` pin the numbers and the refusals; this
file pins the laziness itself and that nothing can tell.
"""

from __future__ import annotations

import dataclasses
import io
import json
import pickle

import pytest
from hypothesis import given, settings

from repro.config import GAP_POLICIES, TraceConfig
from repro.core import Trace, TraceRecord, load_trace, replay_trace, tracebin
from repro.core.trace import RecordChunk, blocked_msg_ids
from repro.harness.builders import optical_factory
from repro.harness.parallel import decode_value, encode_value
from repro.synth import default_profile, generate_to_file, synth_onoc
from tests.test_core_plan import CYCLE, FORK, LOST, TAINTED
from tests.test_core_replay import _cyclic_trace
from tests.test_properties_trace import traces
from tests.test_synth_generator import _iter_records_reference

NODES = 64


@pytest.fixture
def builds(monkeypatch):
    """Counts every ``TraceRecord`` constructed while the test runs."""
    calls = []
    checked = TraceRecord.__post_init__

    def counting(self):
        calls.append(self.msg_id)
        checked(self)

    monkeypatch.setattr(TraceRecord, "__post_init__", counting)
    return calls


def _replay(trace, mode="self_correcting"):
    return replay_trace(
        trace, optical_factory(synth_onoc("crossbar", NODES), 1),
        TraceConfig(mode=mode, engine="generational"))


def _numbers(result) -> dict:
    doc = dataclasses.asdict(result)
    del doc["wall_clock_s"]
    return doc


def test_container_to_solver_builds_no_record(tmp_path, builds):
    """File -> trace -> ``len`` -> bytes -> both generational replays
    without one ``TraceRecord``; on the parent of this change the loader
    alone built one per message."""
    profile = default_profile(NODES, 3000, fanout_prob=0.3)
    path = tmp_path / "s.rtrc"
    generate_to_file(profile, path, seed=4, chunk_records=700)
    trace = load_trace(path)
    assert len(trace) == 3000
    assert tracebin.dumps(trace, chunk_records=700) == path.read_bytes()
    for mode in ("naive", "self_correcting"):
        result = _replay(trace, mode)
        assert result.messages_replayed == 3000
        assert len(result.latencies_by_key) == 3000
    assert builds == []

    # First touch builds each record once; what it builds is what the
    # per-record reference generator yields and what JSON round-trips.
    records = trace.records
    assert builds == list(range(3000))
    assert trace.records is records and len(builds) == 3000
    assert records == list(_iter_records_reference(profile, seed=4))
    assert Trace.from_json(trace.to_json()) == trace


def _progressive_kinds_trace() -> Trace:
    """450 chained records whose kind changes every 110: at 100 records a
    block, every block brings one more kind into the string table."""
    records = []
    for i in range(450):
        kind = f"phase{i // 110}"
        src = i % 4
        records.append(TraceRecord(
            msg_id=i, key=(src, (src + 1) % 4, kind, i, 0), src=src,
            dst=(src + 1) % 4, size_bytes=8 + i % 5, kind=kind,
            t_inject=12 * i, t_deliver=12 * i + 10,
            cause_id=i - 1, gap=12 * i if i == 0 else 2))
    return Trace(records=records, end_markers=[], exec_time=0,
                 meta={"workload": "progressive"})


def test_laziness_is_invisible_in_a_chunked_container():
    born = _progressive_kinds_trace()
    born.validate()
    blob = tracebin.dumps(born, chunk_records=100)
    blocks = [b["type"]
              for b in tracebin.scan_blocks(io.BytesIO(blob))["blocks"]]
    assert blocks.count("RECORDS") == 5 and blocks.count("KINDS") == 5

    loaded = tracebin.loads(blob)
    assert tracebin.dumps(loaded, chunk_records=100) == blob
    assert _numbers(_replay(loaded)) == _numbers(_replay(born))
    assert loaded.records == Trace.from_json(born.to_json()).records
    assert loaded == born
    # Touched: same bytes, same numbers.
    assert tracebin.dumps(loaded, chunk_records=100) == blob
    assert _numbers(_replay(loaded)) == _numbers(_replay(born))


def _extra(msg_id: int, t_inject: int, cause_id: int = -1,
           gap: int = None) -> TraceRecord:
    return TraceRecord(
        msg_id=msg_id, key=(0, 1, "late", msg_id, 0), src=0, dst=1,
        size_bytes=8, kind="late", t_inject=t_inject,
        t_deliver=t_inject + 10, cause_id=cause_id,
        gap=t_inject if gap is None else gap)


def _append_valid(records):
    records.append(_extra(9000, 7000))


def _append_dangling(records):
    records.append(_extra(9000, 7000, cause_id=8888, gap=3))


def _replace_in_place(records):
    records[200] = dataclasses.replace(records[200], gap=records[200].gap + 1)


@pytest.mark.parametrize("rebind", [False, True], ids=["in_list", "rebound"])
@pytest.mark.parametrize("edit, refusal", [
    (_append_valid, None),
    (_append_dangling, "record 9000: cause 8888 not in trace"),
    (_replace_in_place, "record 200: gap 3 inconsistent"),
], ids=["append", "append_dangling", "replace_in_place"])
def test_once_touched_the_list_is_authoritative(edit, refusal, rebind):
    """An edit of ``.records`` on a loaded trace changes ``validate()``'s
    verdict, ``dumps()``'s bytes and the generational result exactly as the
    same edit changes them on the record-built trace."""
    born = _progressive_kinds_trace()
    loaded = tracebin.loads(tracebin.dumps(born))
    before = tracebin.dumps(loaded)
    _replay(loaded)                     # columns and plan memoised, untouched
    for trace in (born, loaded):
        if rebind:
            trace.records = list(trace.records)
        edit(trace.records)

    def verdict(trace):
        try:
            trace.validate()
        except ValueError as exc:
            return str(exc)

    assert verdict(loaded) == verdict(born) == refusal
    assert len(loaded) == len(born)
    assert tracebin.dumps(loaded) == tracebin.dumps(born) != before
    assert _numbers(_replay(loaded)) == _numbers(_replay(born))
    assert loaded.chunk is loaded.chunk         # and memoised again


def test_a_chunk_born_trace_pickles_and_copies_as_columns(builds):
    import copy
    import pickle

    loaded = tracebin.loads(tracebin.dumps(_progressive_kinds_trace()))
    _replay(loaded)                     # the memo travels too
    del builds[:]
    for clone in (pickle.loads(pickle.dumps(loaded)), copy.deepcopy(loaded)):
        assert len(clone) == 450 and clone.meta == loaded.meta
        assert tracebin.dumps(clone) == tracebin.dumps(loaded)
        assert builds == []
    with pytest.raises(AttributeError, match="no attribute 'recordz'"):
        loaded.recordz
    assert [f.name for f in dataclasses.fields(Trace)] == [
        "records", "end_markers", "exec_time", "meta"]


# ------------------------------------- a result's schedule is arrays too
_SCHEDULE = ("latencies_by_key", "deliveries", "injections")


@pytest.mark.parametrize("policy", GAP_POLICIES)
@pytest.mark.parametrize("engine", ["generational", "event"])
def test_a_result_is_arrays_until_read(engine, policy):
    """The schedule dicts of a replay result are built on first read, and
    nothing can tell: an untouched result equals, replaces, pickles and
    round-trips through the result-cache codec as a result whose dicts
    were read — and a pickled one carries neither arrays nor the trace."""
    born = _progressive_kinds_trace()
    lossy = dataclasses.replace(
        born, records=[r for r in born.records if r.msg_id % 11 != 3])
    factory = optical_factory(synth_onoc("crossbar", NODES), 1)
    cfg = TraceConfig(mode="self_correcting", engine=engine,
                      keep_dep_fraction=0.7, degraded_gap_policy=policy)
    eager = replay_trace(lossy, factory, cfg)
    for name in _SCHEDULE:
        getattr(eager, name)
    assert eager.stalled_count or eager.rederived_records

    def untouched():
        result = replay_trace(lossy, factory, cfg)
        assert not set(_SCHEDULE) & set(vars(result))
        result.wall_clock_s = eager.wall_clock_s
        return result

    assert untouched() == eager
    assert dataclasses.replace(untouched()) == eager
    blob = pickle.dumps(untouched())
    assert b"repro.core.trace" not in blob and b"numpy" not in blob
    assert pickle.loads(blob) == eager
    assert decode_value(json.loads(json.dumps(
        encode_value(untouched())))) == eager
    with pytest.raises(AttributeError, match="no attribute 'deliveriez'"):
        untouched().deliveriez


# ------------------------------------------------- the can-fire fixpoint
def _blocked_reference(records) -> set[int]:
    """``blocked_msg_ids`` per record: the ids no walk from a root (no
    cause, or a cause not in ``records``) reaches."""
    present = {r.msg_id for r in records}
    dependents: dict[int, list[int]] = {}
    for r in records:
        dependents.setdefault(r.cause_id, []).append(r.msg_id)
    frontier = [r.msg_id for r in records if r.cause_id not in present]
    fired = set(frontier)
    while frontier:
        for dep in dependents.get(frontier.pop(), ()):
            if dep not in fired:
                fired.add(dep)
                frontier.append(dep)
    return present - fired


@pytest.mark.parametrize("records, blocked", [
    (FORK, set()),
    (LOST, set()),                  # an absent trigger is not waited for
    (CYCLE, {7, 4, 3}),
    (TAINTED, set()),               # nor is what waits behind one
    (_cyclic_trace().records, {0, 1}),
    ((), set()),
], ids=["fork", "absent_trigger", "cycle", "tainted", "two_cycle", "empty"])
def test_blocked_msg_ids_on_the_hand_built_traces(records, blocked):
    assert blocked_msg_ids(list(records)) == blocked
    assert _blocked_reference(list(records)) == blocked


@given(traces())
@settings(max_examples=60, deadline=None)
def test_blocked_msg_ids_is_the_per_record_fixpoint(trace):
    """Generated DAGs with every fifth record re-pointed at a later one, or
    every tenth at an id no record has (so cycles, self-loops and dangling
    ids all occur)."""
    records = list(trace.records)
    for i in range(0, len(records), 5):
        later = records[(i * 7 + 3) % len(records)].msg_id
        records[i] = dataclasses.replace(
            records[i], cause_id=10**6 + i if i % 10 == 0 else later, gap=0)
    assert blocked_msg_ids(records) == _blocked_reference(records)


def test_columns_and_records_are_one_converter_each_way():
    born = _progressive_kinds_trace()
    chunk = RecordChunk.from_records(born.records)
    assert chunk.to_records() == born.records
    assert chunk.keys == [r.key for r in born.records]
    assert chunk[100:200].to_records() == born.records[100:200]
    whole = RecordChunk.concat([chunk[:100], chunk[100:]], chunk.kinds)
    assert whole.to_records() == born.records
    columnar = Trace.from_chunk(chunk, [], 0, dict(born.meta))
    assert json.loads(columnar.to_json()) == json.loads(born.to_json())
