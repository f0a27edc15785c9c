"""Trace artifact: dependency-annotated message records.

A record stores, besides the usual (src, dst, size, kind, timestamp) tuple
of a classic network trace, the two fields the self-correction model needs:

* ``cause_id`` — the message whose *arrival* triggered this send (-1 for
  spontaneous sends at program start),
* ``gap`` — the network-independent time between that arrival and this send
  (core compute, cache hits, directory occupancy...).

One trigger per record: the dependency graph of a valid trace is a forest,
and replay re-derives ``inject = deliver(cause) + gap`` on the target.  The
second trigger edge both wire formats once carried survives only as two
fields written -1 / 0; a reader refuses any other value
(:data:`SECOND_TRIGGER`).

``key`` is a semantic identity ``(src, dst, kind, line, occurrence)`` that is
stable across runs of the same workload on different networks, used to match
per-message latencies between a replay and an execution-driven reference.

A trace's records have two forms, with one converter each way: a list of
:class:`TraceRecord` (capture builds it, the event replayer walks it) and
a :class:`RecordChunk` of int64 columns (the container, the generator, the
array solver).  A :class:`Trace` born as columns stays columns until
``.records`` is read; validation, the writer and the solver read
:attr:`Trace.chunk` either way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

SemanticKey = tuple[int, int, str, int, int]

#: ``Trace.meta`` key listing msg_ids whose dependency annotations were
#: stripped by the fault-injection layer (see :mod:`repro.validate.faults`).
#: Such records look like roots structurally; the self-correcting replayer
#: treats them as *degraded* and applies its ``degraded_gap_policy`` instead
#: of trusting the captured timestamp.
DEGRADED_RECORDS_META_KEY = "degraded_records"


@dataclass(frozen=True)
class TraceRecord:
    """One captured network message."""

    msg_id: int
    key: SemanticKey
    src: int
    dst: int
    size_bytes: int
    kind: str
    t_inject: int
    t_deliver: int
    cause_id: int          # msg_id of the trigger, or -1
    gap: int               # t_inject - deliver(cause); t_inject if no cause

    def __post_init__(self) -> None:
        if self.src < 0 or self.dst < 0 or self.src == self.dst:
            raise ValueError(f"bad endpoints in record {self.msg_id}")
        if self.size_bytes < 1:
            raise ValueError(f"bad size in record {self.msg_id}")
        if self.t_deliver < self.t_inject:
            raise ValueError(f"record {self.msg_id} delivered before injected")
        if self.gap < 0:
            raise ValueError(f"record {self.msg_id} has negative gap {self.gap}")

    @property
    def latency(self) -> int:
        return self.t_deliver - self.t_inject


@dataclass(frozen=True)
class EndMarker:
    """Per-core completion: finish time relative to the core's last arrival."""

    node: int
    t_finish: int
    cause_id: int          # last message whose arrival unblocked the core
    gap: int               # t_finish - deliver(cause); t_finish if no cause

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValueError(f"negative node {self.node}")
        if self.gap < 0:
            raise ValueError(f"end marker for node {self.node}: negative gap")


class TraceBinError(ValueError):
    """Malformed binary trace (bad magic, bad version, truncation, corruption)."""


#: The refusal of a record naming a second trigger, for the first such
#: record (of the first such RECORDS block): a container's two reserved
#: columns and a JSON row's two trailing fields must hold -1 and 0
#: (docs/TRACE_FORMAT.md).
SECOND_TRIGGER = ("record {id} names a second trigger: its two reserved "
                  "fields must be -1 and 0")


# --------------------------------------------------------------------------
# Array-graph helpers (shared with :mod:`repro.core.plan`)
# --------------------------------------------------------------------------

class IdIndex:
    """msg_id -> record index, by binary search over the sorted ids."""

    def __init__(self, ids: np.ndarray) -> None:
        self.order = np.argsort(ids, kind="stable")
        self.sorted = ids[self.order]

    def of(self, query: np.ndarray) -> np.ndarray:
        """Record index of each msg_id: -1 for the -1 sentinel, -2 if the
        ids hold no such record."""
        out = np.full(query.shape, -2, dtype=np.int64)
        none = query == -1
        if len(self.sorted):
            pos = np.searchsorted(self.sorted, query)
            pos_c = np.minimum(pos, len(self.sorted) - 1)
            hit = (self.sorted[pos_c] == query) & ~none
            out[hit] = self.order[pos_c[hit]]
        out[none] = -1
        return out


def csr(parents: np.ndarray, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Group edge indices by parent: returns (indptr, edge_order)."""
    order = np.argsort(parents, kind="stable")
    counts = np.bincount(parents, minlength=n_nodes)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return indptr, order


def gather_ranges(indptr: np.ndarray, data: np.ndarray,
                  nodes: np.ndarray) -> np.ndarray:
    """Concatenate ``data[indptr[v]:indptr[v+1]]`` for every v in nodes."""
    counts = indptr[nodes + 1] - indptr[nodes]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=data.dtype)
    starts = indptr[nodes]
    cum = np.cumsum(counts)
    prev = cum - counts
    idx = (np.arange(total, dtype=np.int64)
           - np.repeat(prev, counts) + np.repeat(starts, counts))
    return data[idx]


def _fires(root: np.ndarray, indptr: np.ndarray,
           child_csr: np.ndarray) -> np.ndarray:
    """Records that can ever fire: the roots and every record their edges
    (parent-keyed CSR, at most one edge into a record) reach."""
    fired = root.copy()
    frontier = np.flatnonzero(root)
    while len(frontier):
        children = gather_ranges(indptr, child_csr, frontier)
        frontier = children[~fired[children]]
        fired[frontier] = True
    return fired


def _unfired(cause_idx: np.ndarray) -> np.ndarray:
    """Mask of the records no root reaches, given each record's cause
    *index* (-1 none, -2 absent: neither is an edge) — the members of a
    dependency cycle and everything downstream of one."""
    edge = cause_idx >= 0
    indptr, order = csr(cause_idx[edge], len(cause_idx))
    return ~_fires(~edge, indptr, np.flatnonzero(edge)[order])


def _has_duplicate_rows(columns: tuple) -> bool:
    """Whether two positions hold equal values in every one of the int64
    ``columns``.  Offset by its minimum, a column needs the bit length of
    its span; while the spans fit 63 bits together, each row packs into one
    int64 and one sort brings equal rows together — else a lexsort does."""
    if len(columns[0]) < 2:
        return False
    lows = [int(col.min()) for col in columns]
    widths = [(int(col.max()) - lo).bit_length()
              for col, lo in zip(columns, lows)]
    if sum(widths) > 63:
        keys = np.stack(columns)
        keys = keys[:, np.lexsort(keys)]
        return bool((keys[:, 1:] == keys[:, :-1]).all(0).any())
    packed = columns[0] - lows[0]
    part = np.empty_like(packed)
    for col, lo, width in zip(columns[1:], lows[1:], widths[1:]):
        packed <<= width
        packed |= np.subtract(col, lo, out=part)
    packed.sort()
    return bool((packed[1:] == packed[:-1]).any())


def _raise_first(checks: list, **columns: np.ndarray) -> None:
    """Raise what a per-record loop making ``checks`` in order would: for
    the first record any mask flags, the refusal of the first mask flagging
    it — an exception, or ``ValueError`` text formatted with that record's
    ``columns``.  (A mask may hold garbage where an earlier one flags.)"""
    flagged = np.logical_or.reduce([mask for mask, _ in checks])
    if flagged.any():
        i = int(flagged.argmax())
        refusal = next(refusal for mask, refusal in checks if mask[i])
        raise refusal if isinstance(refusal, Exception) else ValueError(
            refusal.format(**{k: int(v[i]) for k, v in columns.items()}))


@dataclass
class RecordChunk:
    """Records as int64 column arrays: one decoded RECORDS block, one
    block of the generator, or a whole trace.

    ``kinds`` is the string table ``kind_idx`` / ``key_kind_idx`` index
    into.  ``t_deliver`` is derived (``t_inject + latency``) to match
    :class:`TraceRecord`.
    """

    msg_id: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    size_bytes: np.ndarray
    kind_idx: np.ndarray
    t_inject: np.ndarray
    latency: np.ndarray
    cause_id: np.ndarray
    gap: np.ndarray
    key_src: np.ndarray
    key_dst: np.ndarray
    key_kind_idx: np.ndarray
    key_line: np.ndarray
    key_occ: np.ndarray
    kinds: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.msg_id)

    def __getitem__(self, rows: slice) -> "RecordChunk":
        return RecordChunk(*(getattr(self, name)[rows] for name in COLUMNS),
                           kinds=self.kinds)

    @classmethod
    def concat(cls, chunks: list["RecordChunk"],
               kinds: tuple[str, ...]) -> "RecordChunk":
        """``chunks`` end to end, their kind indices all referring to
        ``kinds`` (a container's do: its string table only grows)."""
        none = np.zeros(0, dtype=np.int64)      # so that no chunks is fine
        return cls(*(np.concatenate([none, *(getattr(c, name) for c in chunks)])
                     for name in COLUMNS), kinds=kinds)

    @property
    def t_deliver(self) -> np.ndarray:
        return self.t_inject + self.latency

    @cached_property
    def keys(self) -> list[SemanticKey]:
        """The semantic keys in records order, built once (results share them)."""
        kinds = self.kinds
        return list(zip(self.key_src.tolist(), self.key_dst.tolist(),
                        [kinds[k] for k in self.key_kind_idx.tolist()],
                        self.key_line.tolist(), self.key_occ.tolist()))

    def check(self) -> None:
        """Refuse, first offending record first, what building the records
        would: a kind index outside ``kinds``, a :class:`TraceRecord` check."""
        k = len(self.kinds)
        times = np.stack((self.t_inject, self.latency, self.gap))
        _raise_first([
            ((self.kind_idx < 0) | (self.kind_idx >= k)
             | (self.key_kind_idx < 0) | (self.key_kind_idx >= k),
             TraceBinError("corrupt trace: kind index outside string table")),
            ((self.src < 0) | (self.dst < 0) | (self.src == self.dst),
             "bad endpoints in record {id}"),
            (self.size_bytes < 1, "bad size in record {id}"),
            (self.latency < 0, "record {id} delivered before injected"),
            (self.gap < 0, "record {id} has negative gap {gap}"),
            # ... so that ``t_inject + latency`` and ``deliver(trigger) +
            # gap``, the sums the checks make, cannot wrap an int64.
            ((times >= 1 << 62).any(0),
             "record {id} has a time beyond 2^62 cycles"),
        ], id=self.msg_id, gap=self.gap)

    def to_records(self) -> list[TraceRecord]:
        kinds = self.kinds
        try:        # zipped in TraceRecord's field order
            rows = zip(self.msg_id.tolist(), self.keys, self.src.tolist(),
                       self.dst.tolist(), self.size_bytes.tolist(),
                       [kinds[k] for k in self.kind_idx.tolist()],
                       self.t_inject.tolist(), self.t_deliver.tolist(),
                       self.cause_id.tolist(), self.gap.tolist())
        except IndexError as exc:
            raise TraceBinError(
                "corrupt trace: kind index outside string table") from exc
        return [TraceRecord(*row) for row in rows]

    @classmethod
    def from_records(cls, records: list[TraceRecord]) -> "RecordChunk":
        """The inverse of :meth:`to_records`, in one pass over the records.

        ``kinds`` holds exactly the kinds these records use, in order of
        first appearance (``kind`` before ``key[2]`` within a record).
        """
        table: dict[str, int] = {}
        intern = table.setdefault
        cols = np.array(
            [(r.msg_id, r.src, r.dst, r.size_bytes,
              intern(r.kind, len(table)), r.t_inject,
              r.t_deliver - r.t_inject, r.cause_id, r.gap, r.key[0], r.key[1],
              intern(r.key[2], len(table)), r.key[3], r.key[4])
             for r in records],
            dtype=np.int64,
        ).reshape(len(records), len(COLUMNS)).T
        # The fields are declared in the order of the rows built above.
        return cls(*np.ascontiguousarray(cols), kinds=tuple(table))


#: The fourteen column fields of a :class:`RecordChunk`, in declared order.
COLUMNS = tuple(f.name for f in fields(RecordChunk) if f.name != "kinds")


def blocked_msg_ids(records: list[TraceRecord]) -> set[int]:
    """The msg_ids that can never fire: those no root reaches over cause
    edges — the members of a dependency cycle and their descendants.  A
    cause that names no record in ``records`` is ignored, not waited for —
    reporting absent triggers is the caller's business.
    """
    ids, cause_id = np.array([(r.msg_id, r.cause_id) for r in records],
                             dtype=np.int64).reshape(len(records), 2).T
    return set(ids[_unfired(IdIndex(ids).of(cause_id))].tolist())


@dataclass
class Trace:
    """A complete captured trace plus provenance metadata.

    A trace built :meth:`from_chunk` holds columns and builds ``records``
    on first access; from then on the list is authoritative, as it always
    is for a record-built trace, and :attr:`chunk` follows it.
    """

    records: list[TraceRecord]
    end_markers: list[EndMarker]
    exec_time: int
    meta: dict = field(default_factory=dict)

    @classmethod
    def from_chunk(cls, chunk: RecordChunk, end_markers: list[EndMarker],
                   exec_time: int, meta: Optional[dict] = None) -> "Trace":
        """A trace of ``chunk``; no record is built until ``.records`` is read."""
        trace = cls.__new__(cls)
        trace.__dict__.update(
            _columns_cache=(None, chunk, None), end_markers=end_markers,
            exec_time=exec_time, meta=meta or {})
        return trace

    def __getattr__(self, name: str):
        # Only reached for the first read of ``records`` on a trace of columns.
        held = self.__dict__.get("_columns_cache")
        if name != "records" or held is None:
            raise AttributeError(f"'Trace' object has no attribute {name!r}")
        records = self.__dict__["records"] = held[1].to_records()
        self.__dict__["_columns_cache"] = (list(records), *held[1:])
        return records

    @property
    def chunk(self) -> RecordChunk:
        """The records as columns.  ``_columns_cache`` — ``(copy of the list,
        or None while never read; chunk; solver view)``, set by
        :meth:`from_chunk` and ``plan.Columns.of`` — answers while the list
        is the one it copied (``==`` is an identity check per record:
        rebinding, growing and in-place replacement all miss); a miss
        builds the chunk from the records and does not keep it."""
        held = self.__dict__.get("_columns_cache")
        if held is not None and held[0] == self.__dict__.get("records"):
            return held[1]
        return RecordChunk.from_records(self.records)

    def semantic_keys(self) -> list[SemanticKey]:
        """Every record's ``key``, in records order."""
        records = self.__dict__.get("records")
        return self.chunk.keys if records is None else [r.key for r in records]

    # ---------------------------------------------------------- validation
    def validate(self) -> None:
        """Check referential integrity and causality; raises ValueError.

        Array checks on :attr:`chunk` that refuse what a walk over the
        records would, in its order: every :class:`TraceRecord` refusal,
        duplicates, then per record its cause and gap checks.
        """
        c = self.chunk
        c.check()
        ids, t_inject, t_deliver = c.msg_id, c.t_inject, c.t_deliver
        index = IdIndex(ids)
        if (index.sorted[1:] == index.sorted[:-1]).any():
            raise ValueError("duplicate msg_ids in trace")
        # One sort of the packed key columns brings equal keys together;
        # kinds compare as strings, so a table naming one twice is folded.
        first: dict[str, int] = {}
        fold = [first.setdefault(kind, i) for i, kind in enumerate(c.kinds)]
        kind = (c.key_kind_idx if len(first) == len(fold)
                else np.asarray(fold, dtype=np.int64)[c.key_kind_idx])
        if _has_duplicate_rows(
                (c.key_src, c.key_dst, kind, c.key_line, c.key_occ)):
            raise ValueError("duplicate semantic keys in trace")
        cause_idx = index.of(c.cause_id)
        has_cause = c.cause_id != -1
        cause_at = t_deliver[np.maximum(cause_idx, 0)]
        _raise_first([
            (cause_idx == -2, "record {id}: cause {cause} not in trace"),
            (has_cause & (cause_at > t_inject),
             "record {id}: injected at {t_inject} before cause {cause} "
             "delivered at {cause_at}"),
            (has_cause & (cause_at + c.gap != t_inject),
             "record {id}: gap {gap} inconsistent"),
            (~has_cause & (c.gap != t_inject),
             "root record {id}: gap != t_inject"),
        ], id=ids, cause=c.cause_id, t_inject=t_inject, cause_at=cause_at,
            gap=c.gap)
        # The per-edge checks above admit cycles, but only of zero-latency,
        # equal-timestamp records (along an edge ``t_inject`` grows strictly
        # unless the cause's latency is zero) — a shape no real network
        # captures and one that would stall the self-correcting replayer
        # forever.  With every cause present, nothing else stays unfired.
        cyclic = (sorted(ids[_unfired(cause_idx)].tolist())
                  if (c.latency == 0).any() else [])
        if cyclic:
            raise ValueError(
                f"dependency cycle among msg_ids {cyclic[:10]}"
                f"{'...' if len(cyclic) > 10 else ''}"
            )
        marker_causes = np.array([m.cause_id for m in self.end_markers],
                                 dtype=np.int64)
        dangling = index.of(marker_causes) == -2
        if dangling.any():
            m = self.end_markers[int(dangling.argmax())]
            raise ValueError(
                f"end marker node {m.node}: cause {m.cause_id} missing"
            )
        latest = max((m.t_finish for m in self.end_markers),
                     default=self.exec_time)
        if latest != self.exec_time:
            raise ValueError(
                f"exec_time {self.exec_time} != max end marker {latest}")

    # ------------------------------------------------------------- queries
    def __len__(self) -> int:
        records = self.__dict__.get("records")
        return len(self.chunk if records is None else records)

    def causal_order(self) -> list[TraceRecord]:
        """The records in captured ``(t_deliver, msg_id)`` order, except that
        a record follows its cause wherever a zero-latency tie sorts the
        cause later: a walk in this order meets every present cause before
        its dependents.  (A dependency cycle, possible only in an
        unvalidated trace, has no such order; its members keep the walk's.)"""
        by_id = {r.msg_id: r for r in self.records}
        seen: set[int] = set()
        out: list[TraceRecord] = []
        for r in sorted(self.records, key=lambda r: (r.t_deliver, r.msg_id)):
            chain = []
            while r is not None and r.msg_id not in seen:
                seen.add(r.msg_id)
                chain.append(r)
                r = by_id.get(r.cause_id)
            out.extend(reversed(chain))
        return out

    def dependency_depth(self) -> int:
        """Longest cause chain, in records."""
        depth: dict[int, int] = {}
        for r in self.causal_order():
            depth[r.msg_id] = depth.get(r.cause_id, 0) + 1
        return max(depth.values(), default=0)

    def roots(self) -> list[TraceRecord]:
        return [r for r in self.records if r.cause_id == -1]

    def bytes_total(self) -> int:
        return sum(r.size_bytes for r in self.records)

    # -------------------------------------------------------- serialization
    def to_json(self) -> str:
        """Portable JSON form (keys become lists; tuples restored on load)."""
        return json.dumps({
            "meta": self.meta,
            "exec_time": self.exec_time,
            "records": [
                [r.msg_id, list(r.key), r.src, r.dst, r.size_bytes, r.kind,
                 r.t_inject, r.t_deliver, r.cause_id, r.gap, -1, 0]
                for r in self.records
            ],
            "end_markers": [
                [m.node, m.t_finish, m.cause_id, m.gap]
                for m in self.end_markers
            ],
        })

    @staticmethod
    def from_json(text: str) -> "Trace":
        obj = json.loads(text)
        # A row's two trailing fields are the second trigger's; older
        # files lack them.
        second = next((row for row in obj["records"]
                       if row[10:] not in ([], [-1, 0])), None)
        if second is not None:
            raise ValueError(SECOND_TRIGGER.format(id=second[0]))
        records = [
            TraceRecord(
                msg_id=row[0],
                key=(row[1][0], row[1][1], row[1][2], row[1][3], row[1][4]),
                src=row[2], dst=row[3], size_bytes=row[4], kind=row[5],
                t_inject=row[6], t_deliver=row[7], cause_id=row[8], gap=row[9],
            )
            for row in obj["records"]
        ]
        markers = [
            EndMarker(node=row[0], t_finish=row[1], cause_id=row[2], gap=row[3])
            for row in obj["end_markers"]
        ]
        trace = Trace(records=records, end_markers=markers,
                      exec_time=obj["exec_time"], meta=obj.get("meta", {}))
        trace.validate()
        return trace

    def to_binary(self) -> bytes:
        """Chunked binary form (see :mod:`repro.core.tracebin`)."""
        from repro.core import tracebin
        return tracebin.dumps(self)

    @staticmethod
    def from_binary(data: bytes) -> "Trace":
        from repro.core import tracebin
        return tracebin.loads(data)


def latencies_by_key(records: Iterable[TraceRecord]) -> dict[SemanticKey, int]:
    """Semantic key -> end-to-end latency map (reference-building helper)."""
    return {r.key: r.latency for r in records}
