"""Every refusal of a damaged trace, pinned: type, text and which one wins.

``Trace.validate`` and the container loader refuse a damaged trace with
the error a per-record walk raises: every ``TraceRecord.__post_init__``
refusal before any ``validate`` check, the first offending record in
records order, and for that record the first failing check.  The corpus
in ``tests/golden/trace_refusals.json`` holds, for each golden trace x
each damage below, the exception type and full message from

* ``records`` — ``Trace.from_json`` of the damaged document: refusing a
  row that names a second trigger, building the ``TraceRecord`` s and
  calling ``Trace.validate()``,
* ``load`` — ``tracebin.loads`` of the same damage as one RECORDS block,
* ``load_chunked`` — the same in blocks of ``CHUNK`` records, each kind
  entering the string table before the block that first uses it.

It was recorded on the parent of the PR that made the loader columnar,
before any ``src/`` edit; a rewrite of either path must reproduce every
entry.  Re-record (only for an intended change of a refusal) with
``PYTHONPATH=src python tests/test_trace_refusals.py``.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import tracebin
from repro.core.trace import Trace

GOLDEN_DIR = Path(__file__).parent / "golden"
CORPUS_FILE = GOLDEN_DIR / "trace_refusals.json"
TRACES = sorted(p.name[:-len(".trace.json")]
                for p in GOLDEN_DIR.glob("*.trace.json"))
CHUNK = 500
ABSENT = 10**9

_FIELDS = ("msg_id", "key", "src", "dst", "size_bytes", "kind", "t_inject",
           "t_deliver", "cause_id", "gap", "bound_id", "bound_gap")


class _Doc:
    """A golden trace as editable rows (``TraceRecord`` keyword dicts)."""

    def __init__(self, name: str) -> None:
        obj = json.loads((GOLDEN_DIR / f"{name}.trace.json").read_text())
        self.rows = [dict(zip(_FIELDS, [row[0], tuple(row[1]), *row[2:]]))
                     for row in obj["records"]]
        self.markers = [list(m) for m in obj["end_markers"]]
        self.exec_time = obj["exec_time"]
        self.meta = obj["meta"]
        #: Column edits no record can carry (kind indices), applied to the
        #: container only: ``(column, row, value)``.
        self.column_edits: list[tuple[str, int, int]] = []
        n = len(self.rows)
        # Three dependents and a root, spread over the trace (and so over
        # the blocks of the chunked container); ``late`` > ``mid`` > ``early``.
        self.early, self.mid, self.late = (
            next(i for i in range(start, n)
                 if self.rows[i]["cause_id"] != -1)
            for start in (n // 8, n // 2, (7 * n) // 8))
        self.root = next(i for i, r in enumerate(self.rows)
                         if r["cause_id"] == -1)

    def by_id(self, msg_id: int) -> dict:
        return next(r for r in self.rows if r["msg_id"] == msg_id)


# ----------------------------------------------------------------- damages
# Each edits a ``_Doc`` in place and trips one check — or, for the pairs,
# two, so that "first record, first check" decides.

def endpoints_negative(d, i=None):
    d.rows[d.mid if i is None else i]["src"] = -1


def endpoints_equal(d, i=None):
    r = d.rows[d.mid if i is None else i]
    r["dst"] = r["src"]


def size_zero(d, i=None):
    d.rows[d.mid if i is None else i]["size_bytes"] = 0


def delivered_before_injected(d):
    r = d.rows[d.mid]
    r["t_deliver"] = r["t_inject"] - 1


def negative_gap(d):
    d.rows[d.mid]["gap"] = -5


def bound_without_cause(d):
    d.rows[d.root]["bound_id"] = d.rows[d.mid]["msg_id"]


def negative_bound_gap(d):
    r = d.rows[d.mid]
    r["bound_id"], r["bound_gap"] = r["cause_id"], -1


def duplicate_msg_id(d):
    d.rows[d.late]["msg_id"] = d.rows[d.early]["msg_id"]


def duplicate_key(d):
    d.rows[d.late]["key"] = d.rows[d.early]["key"]


def cause_missing(d, i=None):
    d.rows[d.mid if i is None else i]["cause_id"] = ABSENT


def injected_before_cause_delivered(d):
    r = d.rows[d.mid]
    r["t_inject"] = d.by_id(r["cause_id"])["t_deliver"] - 1


def gap_inconsistent(d, i=None):
    d.rows[d.mid if i is None else i]["gap"] += 1


def root_gap_mismatch(d):
    d.rows[d.root]["gap"] += 1


def bound_missing(d, i=None):
    d.rows[d.mid if i is None else i]["bound_id"] = ABSENT


def bound_gap_inconsistent(d):
    r = d.rows[d.mid]
    r["bound_id"], r["bound_gap"] = r["cause_id"], r["gap"] + 1


def self_cycle(d):
    """A zero-latency record that is its own cause passes every per-edge
    check and blocks itself and everything downstream."""
    r = d.rows[d.early]
    r["cause_id"], r["gap"], r["t_deliver"] = r["msg_id"], 0, r["t_inject"]
    for child in d.rows:        # keep its dependents' edges consistent
        if child is not r and child["cause_id"] == r["msg_id"]:
            child["gap"] = child["t_inject"] - r["t_deliver"]


def two_cycle(d):
    """Two zero-latency records at one timestamp, each the other's cause."""
    a, b = d.rows[d.late], d.rows[d.late + 1]
    for r, other in ((a, b), (b, a)):
        r["t_inject"] = r["t_deliver"] = a["t_inject"]
        r["cause_id"], r["gap"] = other["msg_id"], 0
        r["bound_id"], r["bound_gap"] = -1, 0
    # Nothing else may hang off the pair's old timing.
    for r in d.rows:
        if r is not a and r is not b and r["cause_id"] in (
                a["msg_id"], b["msg_id"]):
            r["cause_id"], r["gap"] = -1, r["t_inject"]
    for m in d.markers:
        if m[2] in (a["msg_id"], b["msg_id"]):
            m[2], m[3] = -1, m[1]


def marker_cause_missing(d):
    next(m for m in d.markers if m[2] != -1)[2] = ABSENT


def exec_time_mismatch(d):
    d.exec_time += 1


def kind_index_out_of_range(d, i=None):
    d.column_edits.append(("kind_idx", d.mid if i is None else i, ABSENT))


def key_kind_index_out_of_range(d):
    d.column_edits.append(("key_kind_idx", d.mid, ABSENT))


def kind_index_from_a_later_block(d):
    """Inside the finished table, outside the table as of block 0."""
    d.column_edits.append(("key_kind_idx", 0, "last"))


def _pair(first, second):
    """``first`` on the early record, ``second`` on the late one."""
    def damage(d):
        first(d, d.early)
        second(d, d.late)
    damage.__name__ = f"early_{first.__name__}__late_{second.__name__}"
    return damage


def gap_and_bound_on_one_record(d):
    gap_inconsistent(d)
    bound_missing(d)


def cause_and_bound_missing_on_one_record(d):
    cause_missing(d)
    bound_missing(d)


def endpoints_and_size_on_one_record(d):
    endpoints_equal(d)
    size_zero(d)


def duplicate_id_and_key(d):
    duplicate_key(d)
    duplicate_msg_id(d)


def duplicate_id_and_late_size(d):
    duplicate_msg_id(d)
    size_zero(d, d.late + 1)


def marker_and_exec_time(d):
    marker_cause_missing(d)
    exec_time_mismatch(d)


def self_cycle_and_marker(d):
    self_cycle(d)
    marker_cause_missing(d)


DAMAGES = (
    endpoints_negative, endpoints_equal, size_zero,
    delivered_before_injected, negative_gap, bound_without_cause,
    negative_bound_gap, duplicate_msg_id, duplicate_key, cause_missing,
    injected_before_cause_delivered, gap_inconsistent, root_gap_mismatch,
    bound_missing, bound_gap_inconsistent, self_cycle, two_cycle,
    marker_cause_missing, exec_time_mismatch, kind_index_out_of_range,
    key_kind_index_out_of_range, kind_index_from_a_later_block,
    _pair(gap_inconsistent, size_zero),         # construction beats validate
    _pair(bound_missing, cause_missing),        # first record wins
    _pair(cause_missing, bound_missing),
    _pair(size_zero, endpoints_equal),
    _pair(size_zero, kind_index_out_of_range),
    _pair(kind_index_out_of_range, size_zero),
    _pair(gap_inconsistent, kind_index_out_of_range),
    gap_and_bound_on_one_record, cause_and_bound_missing_on_one_record,
    endpoints_and_size_on_one_record, duplicate_id_and_key,
    duplicate_id_and_late_size, marker_and_exec_time, self_cycle_and_marker,
)
DAMAGE_BY_NAME = {f.__name__: f for f in DAMAGES}


# ------------------------------------------------------- the three readers
def _outcome(fn):
    try:
        fn()
    except Exception as exc:    # noqa: BLE001 - the corpus pins the type
        return [type(exc).__name__, str(exc)]
    return None


def _validate_records(d: _Doc) -> None:
    Trace.from_json(json.dumps({
        "meta": d.meta, "exec_time": d.exec_time, "end_markers": d.markers,
        "records": [[r[f] for f in _FIELDS] for r in d.rows]}))


def _raw_column(values: np.ndarray, coding: str) -> bytes:
    """A column of ``tracebin._encode_columns`` without the writer's own
    refusal of a negative value in an unsigned column (it wraps to a
    10-byte varint, as a foreign writer could emit)."""
    a = np.asarray(values, dtype=np.int64)
    if coding == "sdelta":
        a = np.diff(a, prepend=np.int64(0))
    u = a.astype(np.uint64) if coding == "unsigned" else tracebin._zigzag(a)
    return tracebin._encode_varints(u)


def _container(d: _Doc, chunk_records: int) -> bytes:
    """The damaged trace as container bytes, block layout as the writer's:
    META, then per block its new KINDS and its RECORDS, MARKERS, END."""
    table: dict[str, int] = {}
    cols = {name: [] for name, _ in tracebin._RECORD_COLUMNS}
    for r in d.rows:
        for name, value in (
                ("msg_id", r["msg_id"]), ("src", r["src"]), ("dst", r["dst"]),
                ("size_bytes", r["size_bytes"]),
                ("kind_idx", table.setdefault(r["kind"], len(table))),
                ("t_inject", r["t_inject"]),
                ("latency", r["t_deliver"] - r["t_inject"]),
                ("cause_id", r["cause_id"]), ("gap", r["gap"]),
                ("bound_id", r["bound_id"]), ("bound_gap", r["bound_gap"]),
                ("key_src_rel", r["key"][0] - r["src"]),
                ("key_dst_rel", r["key"][1] - r["dst"]),
                ("key_kind_idx", table.setdefault(r["key"][2], len(table))),
                ("key_line", r["key"][3]), ("key_occ", r["key"][4])):
            cols[name].append(value)
    kinds = list(table)
    # A block's KINDS: what its undamaged rows newly use.
    known_after = [1 + max(max(cols["kind_idx"][a:a + chunk_records]),
                           max(cols["key_kind_idx"][a:a + chunk_records]))
                   for a in range(0, len(d.rows), chunk_records)]
    for name, row, value in d.column_edits:
        cols[name][row] = len(kinds) - 1 if value == "last" else value

    out = io.BytesIO()

    def block(btype: int, payload: bytes) -> None:
        out.write(tracebin._BLOCK_HEAD.pack(btype, len(payload)))
        out.write(payload)

    def columnar(spec, columns, count: int) -> bytes:
        body = io.BytesIO()
        body.write(tracebin._U32.pack(count))
        for (name, coding), values in zip(spec, columns):
            enc = _raw_column(values, coding)
            body.write(tracebin._U32.pack(len(enc)))
            body.write(enc)
        return body.getvalue()

    out.write(tracebin._HEADER.pack(tracebin.MAGIC, tracebin.VERSION))
    block(tracebin._BLOCK_META, json.dumps(d.meta).encode())
    known = 0
    for k, a in enumerate(range(0, len(d.rows), chunk_records)):
        known_now = max(known, known_after[k])
        if known_now > known:
            block(tracebin._BLOCK_KINDS,
                  json.dumps(kinds[known:known_now]).encode())
            known = known_now
        rows = slice(a, a + chunk_records)
        count = len(cols["msg_id"][rows])
        block(tracebin._BLOCK_RECORDS, columnar(
            tracebin._RECORD_COLUMNS,
            [cols[name][rows] for name, _ in tracebin._RECORD_COLUMNS],
            count))
    block(tracebin._BLOCK_MARKERS, columnar(
        tracebin._MARKER_COLUMNS, list(zip(*d.markers)), len(d.markers)))
    block(tracebin._BLOCK_END, json.dumps({
        "record_count": len(d.rows), "marker_count": len(d.markers),
        "chunks": len(known_after), "exec_time": d.exec_time,
    }, sort_keys=True).encode())
    return out.getvalue()


def refusals(trace_name: str, damage_name: str) -> dict:
    doc = _Doc(trace_name)
    DAMAGE_BY_NAME[damage_name](doc)
    return {
        "records": _outcome(lambda: _validate_records(doc)),
        "load": _outcome(
            lambda: tracebin.loads(_container(doc, len(doc.rows)))),
        "load_chunked": _outcome(
            lambda: tracebin.loads(_container(doc, CHUNK))),
    }


CELLS = [(t, d) for t in TRACES for d in DAMAGE_BY_NAME]


@pytest.mark.parametrize("trace_name", TRACES)
def test_the_hand_built_container_is_the_writers(trace_name):
    """Undamaged, ``_container`` writes what ``tracebin.dumps`` writes —
    so the refusals below are refusals of the real format."""
    doc = _Doc(trace_name)
    trace = Trace.from_json(
        (GOLDEN_DIR / f"{trace_name}.trace.json").read_text())
    for chunk_records in (len(doc.rows), CHUNK):
        assert _container(doc, chunk_records) == tracebin.dumps(
            trace, chunk_records=chunk_records)


@pytest.mark.parametrize("trace_name,damage_name", CELLS,
                         ids=[f"{t.split('-')[0]}-{d}" for t, d in CELLS])
def test_refusal_matches_the_recorded_one(trace_name, damage_name):
    recorded = json.loads(CORPUS_FILE.read_text())[trace_name][damage_name]
    got = refusals(trace_name, damage_name)
    assert got == recorded
    assert got["load_chunked"] is not None      # every damage is refused


if __name__ == "__main__":
    CORPUS_FILE.write_text(json.dumps(
        {t: {d: refusals(t, d) for d in DAMAGE_BY_NAME} for t in TRACES},
        indent=1) + "\n")
