"""Adversarial Trace.to_json / from_json round-trip coverage (satellite 3).

The serializer is trusted by the golden corpus (byte-identical regen) and by
every CLI workflow, so this file pins its behavior on the edges: empty
traces, single roots, hand-corrupted payloads that must be *rejected* on
load, and byte-level stability of the canonical form.
"""

from __future__ import annotations

import json

import pytest

from repro.core.trace import EndMarker, Trace, TraceRecord


def _rec(msg_id, t_inject, t_deliver, cause_id=-1, gap=None, occ=None,
         src=0, dst=1):
    if gap is None:
        gap = t_inject if cause_id == -1 else 0
    return TraceRecord(
        msg_id=msg_id, key=(src, dst, "req_read", 0,
                            msg_id if occ is None else occ),
        src=src, dst=dst, size_bytes=8, kind="req_read",
        t_inject=t_inject, t_deliver=t_deliver, cause_id=cause_id, gap=gap)


def test_empty_trace_round_trips():
    trace = Trace(records=[], end_markers=[], exec_time=0,
                  meta={"workload": "none"})
    back = Trace.from_json(trace.to_json())
    assert len(back) == 0
    assert back.exec_time == 0
    assert back.meta == {"workload": "none"}
    assert back.to_json() == trace.to_json()


def test_single_root_round_trips_exactly():
    trace = Trace(records=[_rec(0, 3, 9)],
                  end_markers=[EndMarker(0, 12, 0, 3)], exec_time=12)
    back = Trace.from_json(trace.to_json())
    assert back.records == trace.records
    assert back.end_markers == trace.end_markers
    assert back.to_json() == trace.to_json()


def test_bound_edges_round_trip():
    """A record has one cause: a row carries the second trigger's two
    fields as -1 / 0 both ways, and a row naming a bound edge is refused."""
    r0 = _rec(0, 0, 10)
    r1 = _rec(1, 2, 8, occ=1)
    r2 = _rec(2, 12, 20, cause_id=0, gap=2, occ=2)
    trace = Trace(records=[r0, r1, r2], end_markers=[], exec_time=0)
    obj = json.loads(trace.to_json())
    assert [row[10:] for row in obj["records"]] == [[-1, 0]] * 3
    assert Trace.from_json(json.dumps(obj)).records == trace.records
    obj["records"][2][10:] = [1, 4]
    with pytest.raises(ValueError, match="second trigger"):
        Trace.from_json(json.dumps(obj))


def test_legacy_ten_column_rows_load_without_bound_edges():
    trace = Trace(records=[_rec(0, 3, 9)], end_markers=[], exec_time=0)
    obj = json.loads(trace.to_json())
    obj["records"] = [row[:10] for row in obj["records"]]
    back = Trace.from_json(json.dumps(obj))
    assert back.to_json() == trace.to_json()


def test_duplicate_semantic_keys_rejected_on_load():
    trace = Trace(records=[_rec(0, 0, 5), _rec(1, 1, 6, occ=1)],
                  end_markers=[], exec_time=0)
    obj = json.loads(trace.to_json())
    obj["records"][1][1] = obj["records"][0][1]  # clone record 0's key
    with pytest.raises(ValueError, match="duplicate semantic keys"):
        Trace.from_json(json.dumps(obj))


def test_duplicate_msg_ids_rejected_on_load():
    trace = Trace(records=[_rec(0, 0, 5), _rec(1, 1, 6, occ=1)],
                  end_markers=[], exec_time=0)
    obj = json.loads(trace.to_json())
    obj["records"][1][0] = 0
    with pytest.raises(ValueError, match="duplicate msg_ids"):
        Trace.from_json(json.dumps(obj))


def test_negative_gap_rejected_on_load():
    trace = Trace(records=[_rec(0, 5, 9)], end_markers=[], exec_time=0)
    obj = json.loads(trace.to_json())
    obj["records"][0][9] = -5  # gap column
    with pytest.raises(ValueError, match="negative gap"):
        Trace.from_json(json.dumps(obj))


def test_dangling_cause_rejected_on_load():
    trace = Trace(records=[_rec(0, 0, 5), _rec(1, 6, 9, cause_id=0, gap=1,
                                               occ=1)],
                  end_markers=[], exec_time=0)
    obj = json.loads(trace.to_json())
    obj["records"][1][8] = 42  # cause column -> missing id
    with pytest.raises(ValueError, match="not in trace"):
        Trace.from_json(json.dumps(obj))


def test_zero_latency_dependency_cycle_rejected_on_load():
    # Per-edge causality balances (all gaps 0, all timestamps equal) but the
    # dependency graph has no schedulable root — must be rejected.
    trace = Trace(records=[_rec(0, 5, 5), _rec(1, 5, 5, occ=1)],
                  end_markers=[], exec_time=0)
    obj = json.loads(trace.to_json())
    obj["records"][0][8] = 1  # 0 caused by 1
    obj["records"][0][9] = 0
    obj["records"][1][8] = 0  # 1 caused by 0
    obj["records"][1][9] = 0
    with pytest.raises(ValueError, match="dependency cycle"):
        Trace.from_json(json.dumps(obj))


def test_delivery_before_injection_rejected_on_load():
    trace = Trace(records=[_rec(0, 5, 9)], end_markers=[], exec_time=0)
    obj = json.loads(trace.to_json())
    obj["records"][0][7] = 2  # t_deliver < t_inject
    with pytest.raises(ValueError):
        Trace.from_json(json.dumps(obj))


def test_inconsistent_exec_time_rejected_on_load():
    trace = Trace(records=[_rec(0, 3, 9)],
                  end_markers=[EndMarker(0, 12, 0, 3)], exec_time=12)
    obj = json.loads(trace.to_json())
    obj["exec_time"] = 9999
    with pytest.raises(ValueError, match="exec_time"):
        Trace.from_json(json.dumps(obj))


def test_serialization_is_byte_stable():
    trace = Trace(records=[_rec(0, 0, 10), _rec(1, 12, 20, cause_id=0,
                                                gap=2, occ=1)],
                  end_markers=[EndMarker(0, 25, 1, 5)], exec_time=25,
                  meta={"seed": 1, "workload": "x"})
    assert trace.to_json() == Trace.from_json(trace.to_json()).to_json()
    assert trace.to_json() == trace.to_json()
