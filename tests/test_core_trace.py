"""Trace artifact tests: validation, queries, serialization."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import EndMarker, Trace, TraceRecord
from repro.core.trace import (
    COLUMNS,
    SECOND_TRIGGER,
    RecordChunk,
    latencies_by_key,
)


def rec(msg_id, t_inject, t_deliver, cause_id=-1, gap=None, src=0, dst=1,
        kind="req_read", size=8, occ=0):
    if gap is None:
        gap = t_inject if cause_id == -1 else 0
    return TraceRecord(
        msg_id=msg_id,
        key=(src, dst, kind, msg_id, occ),
        src=src, dst=dst, size_bytes=size, kind=kind,
        t_inject=t_inject, t_deliver=t_deliver,
        cause_id=cause_id, gap=gap,
    )


def chain_trace():
    """r0 at t=5, delivered 15; r1 caused by r0, gap 3 -> inject 18."""
    r0 = rec(0, 5, 15)
    r1 = rec(1, 18, 30, cause_id=0, gap=3, src=1, dst=0)
    m = EndMarker(node=0, t_finish=40, cause_id=1, gap=10)
    return Trace(records=[r0, r1], end_markers=[m], exec_time=40)


def test_valid_trace_passes():
    chain_trace().validate()


def test_record_field_validation():
    with pytest.raises(ValueError):
        rec(0, 10, 5)                      # delivered before injected
    with pytest.raises(ValueError):
        TraceRecord(0, (0, 0, "x", 0, 0), 0, 0, 8, "x", 0, 1, -1, 0)  # src==dst
    with pytest.raises(ValueError):
        rec(0, 5, 15, cause_id=3, gap=-1)  # negative gap


def test_missing_cause_detected():
    t = chain_trace()
    t.records[1] = rec(1, 18, 30, cause_id=99, gap=3, src=1, dst=0)
    with pytest.raises(ValueError, match="not in trace"):
        t.validate()


def test_causality_violation_detected():
    r0 = rec(0, 5, 15)
    bad = rec(1, 10, 30, cause_id=0, gap=0, src=1, dst=0)  # injected at 10 < 15
    t = Trace([r0, bad], [], exec_time=0)
    with pytest.raises(ValueError, match="before"):
        t.validate()


def test_gap_inconsistency_detected():
    r0 = rec(0, 5, 15)
    bad = rec(1, 20, 30, cause_id=0, gap=3, src=1, dst=0)  # 15+3 != 20
    t = Trace([r0, bad], [], exec_time=0)
    with pytest.raises(ValueError, match="gap"):
        t.validate()


def test_root_gap_must_equal_inject():
    bad = rec(0, 5, 15)
    object.__setattr__(bad, "gap", 4)
    t = Trace([bad], [], exec_time=0)
    with pytest.raises(ValueError, match="root"):
        t.validate()


def test_duplicate_ids_detected():
    r = rec(0, 5, 15)
    t = Trace([r, r], [], exec_time=0)
    with pytest.raises(ValueError, match="duplicate msg_ids"):
        t.validate()


def test_exec_time_must_match_markers():
    t = chain_trace()
    t.exec_time = 99
    with pytest.raises(ValueError, match="exec_time"):
        t.validate()


def test_roots_and_depth():
    t = chain_trace()
    assert [r.msg_id for r in t.roots()] == [0]
    assert t.dependency_depth() == 2
    assert len(t) == 2
    assert t.bytes_total() == 16


def test_json_roundtrip():
    t = chain_trace()
    t.meta = {"workload": "fft", "seed": 7}
    again = Trace.from_json(t.to_json())
    assert again.exec_time == t.exec_time
    assert again.meta == t.meta
    assert again.records == t.records
    assert again.end_markers == t.end_markers


def test_legacy_json_without_bound_columns_loads():
    """A row of a file written before the two trailing fields existed."""
    t = chain_trace()
    obj = json.loads(t.to_json())
    assert all(row[10:] == [-1, 0] for row in obj["records"])
    obj["records"] = [row[:10] for row in obj["records"]]
    assert Trace.from_json(json.dumps(obj)).records == t.records


@pytest.mark.parametrize("tail", [[0, 3], [-1, 5], [-1], [-1, 0, 0]])
def test_json_row_naming_a_second_trigger_is_refused(tail):
    obj = json.loads(chain_trace().to_json())
    obj["records"][1][10:] = tail
    with pytest.raises(ValueError) as refused:
        Trace.from_json(json.dumps(obj))
    assert str(refused.value) == SECOND_TRIGGER.format(id=1)


def zero_latency_tie():
    """A(9) -> B(1) -> C(0): A and B are delivered at t=5, and B sorts
    before its cause in ``(t_deliver, msg_id)`` order."""
    a = rec(9, 5, 5, src=2, dst=3)
    b = rec(1, 5, 5, cause_id=9, gap=0, src=3, dst=0)
    c = rec(0, 5, 6, cause_id=1, gap=0, src=0, dst=1)
    t = Trace(records=[c, b, a], end_markers=[], exec_time=0)
    t.validate()
    return t


def test_dependency_depth_follows_a_cause_that_ties_its_dependent():
    assert zero_latency_tie().dependency_depth() == 3


def test_from_json_validates():
    t = chain_trace()
    text = t.to_json().replace('"exec_time": 40', '"exec_time": 77')
    with pytest.raises(ValueError):
        Trace.from_json(text)


def test_latencies_by_key():
    t = chain_trace()
    lats = latencies_by_key(t.records)
    assert lats[t.records[0].key] == 10
    assert lats[t.records[1].key] == 12


def test_end_marker_validation():
    with pytest.raises(ValueError):
        EndMarker(node=-1, t_finish=5, cause_id=-1, gap=5)
    with pytest.raises(ValueError):
        EndMarker(node=0, t_finish=5, cause_id=-1, gap=-2)


# ------------------------------------------------- duplicate semantic keys
#
# ``Trace.validate`` packs the five key columns into one int64 when their
# spans fit 63 bits and lexsorts them otherwise; either way it must answer
# what a set of ``(src, dst, kind string, line, occurrence)`` tuples does.

_KEY_COLUMNS = ("key_src", "key_dst", "key_kind_idx", "key_line", "key_occ")


@st.composite
def keyed_chunks(draw, wide: bool) -> RecordChunk:
    """Root records whose keys come from small pools, so that duplicates
    are common; ``wide`` stretches ``key_line`` and ``key_src`` past 63
    bits of packed key.  The kinds table may name one kind twice."""
    n = draw(st.integers(0, 24))
    kinds = tuple(draw(st.lists(st.sampled_from(("load", "store", "inv")),
                                min_size=1, max_size=4)))
    lines = ([-(1 << 62), -7, 0, 3, (1 << 62) - 1] if wide
             else [-7, -1, 0, 3])

    def column(pool):
        return draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))

    keys = {"key_src": column([0, 1, 2]), "key_dst": column([0, 1]),
            "key_kind_idx": column(range(len(kinds))),
            "key_line": column(lines), "key_occ": column([0, 1])}
    if wide and n >= 2:
        keys["key_line"][0], keys["key_line"][-1] = lines[0], lines[-1]
        keys["key_src"][0], keys["key_src"][-1] = 0, 1
    msg_id = list(range(n))
    if n >= 2 and draw(st.booleans()):
        msg_id[draw(st.integers(1, n - 1))] = draw(st.integers(0, n - 1))
    t = np.arange(n, dtype=np.int64)
    columns = {"msg_id": msg_id, "src": [0] * n, "dst": [1] * n,
               "size_bytes": [8] * n, "kind_idx": [0] * n, "t_inject": t,
               "latency": [1] * n, "cause_id": [-1] * n, "gap": t, **keys}
    return RecordChunk(*(np.asarray(columns[name], dtype=np.int64)
                         for name in COLUMNS), kinds=kinds)


def _packed_bits(chunk: RecordChunk) -> int:
    kind = np.asarray([chunk.kinds.index(k) for k in chunk.kinds],
                      dtype=np.int64)[chunk.key_kind_idx]
    columns = [getattr(chunk, name) for name in _KEY_COLUMNS[:2]]
    columns += [kind, chunk.key_line, chunk.key_occ]
    return sum((int(c.max()) - int(c.min())).bit_length() for c in columns)


@pytest.mark.parametrize("wide", (False, True), ids=("packed", "lexsort"))
@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_duplicate_keys_are_refused_as_a_set_of_tuples_would(data, wide):
    chunk = data.draw(keyed_chunks(wide))
    n = len(chunk)
    if n >= 2:
        assert (_packed_bits(chunk) > 63) == wide
    keys = {(s, d, chunk.kinds[k], line, occ) for s, d, k, line, occ in zip(
        *(getattr(chunk, name).tolist() for name in _KEY_COLUMNS))}
    trace = Trace.from_chunk(chunk, [], exec_time=0)
    if len(set(chunk.msg_id.tolist())) < n:
        with pytest.raises(ValueError, match="^duplicate msg_ids in trace$"):
            trace.validate()
    elif len(keys) < n:
        with pytest.raises(ValueError,
                           match="^duplicate semantic keys in trace$"):
            trace.validate()
    else:
        trace.validate()
