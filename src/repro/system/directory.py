"""Home L2 slice: directory controller + shared data array.

Each node owns an address-interleaved slice of the shared L2 (S-NUCA) and the
directory entries for those lines.  Transactions on one line are serialised
at the home: a second GETS/GETX for a busy line waits in a per-line FIFO.

Races handled (the classic MSI crossing cases):

* *Eviction writeback vs. fetch*: the home waits for owner data; whether the
  owner's WRITEBACK was a fetch reply or an eviction already in flight, the
  first WRITEBACK from the owner completes the transaction (the L1 drops
  stale fetches for lines it no longer holds in M).
* *Owner re-requesting its own evicted line*: the directory still names the
  requester as owner; no fetch is sent — the in-flight eviction WRITEBACK is
  the data source.
* *Silent shared evictions*: INV to a node that dropped its copy is simply
  acked without data.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.net import (
    MSG_INV,
    MSG_INV_ACK,
    MSG_MEM_READ,
    MSG_MEM_RESP,
    MSG_REQ_READ,
    MSG_REQ_WRITE,
    MSG_RESP_DATA,
    MSG_WRITEBACK,
    Message,
)
from repro.system.cache import CacheArray, CacheLineState
from repro.system.protocol import MSG_FETCH, MSG_FETCH_INV, ProtPayload

if TYPE_CHECKING:  # pragma: no cover
    from repro.system.cmp import FullSystem


class DirEntry:
    """Stable directory state of one line at its home."""

    __slots__ = ("state", "owner", "sharers", "seq")

    def __init__(self) -> None:
        self.state = CacheLineState.INVALID
        self.owner = -1
        self.sharers: set[int] = set()
        # Monotone per-line transaction counter; lets L1s order racing
        # messages (see ProtPayload.seq).
        self.seq = 0


class Txn:
    """One in-flight transaction (GETS/GETX being serviced)."""

    __slots__ = (
        "line",
        "requester",
        "is_write",
        "seq",
        "need_acks",
        "need_owner_data",
        "need_mem",
        "cause",
        "finishing",
        "prev_owner",
    )

    def __init__(self, line: int, requester: int, is_write: bool,
                 seq: int, cause: Message) -> None:
        self.line = line
        self.requester = requester
        self.is_write = is_write
        self.seq = seq
        self.need_acks = 0
        self.need_owner_data = False
        self.need_mem = False
        self.cause = cause          # latest message that advanced this txn
        self.finishing = False
        self.prev_owner = -1

    @property
    def ready(self) -> bool:
        return (
            self.need_acks == 0
            and not self.need_owner_data
            and not self.need_mem
            and not self.finishing
        )


class HomeSlice:
    """Directory + L2 data slice at one node."""

    __slots__ = ("node", "sys", "l2", "directory", "txns", "waiting",
                 "mem_reads", "invalidations_sent", "fetches_sent")

    def __init__(self, node: int, system: "FullSystem") -> None:
        self.node = node
        self.sys = system
        self.l2 = CacheArray(system.cfg.l2_slice)
        self.directory: dict[int, DirEntry] = {}
        self.txns: dict[int, Txn] = {}
        self.waiting: dict[int, deque[Message]] = {}
        self.mem_reads = 0
        self.invalidations_sent = 0
        self.fetches_sent = 0

    # -------------------------------------------------------------- inbox
    def handle(self, msg: Message) -> None:
        kind = msg.kind
        if kind in (MSG_REQ_READ, MSG_REQ_WRITE):
            line = msg.payload.line
            if line in self.txns:
                self.waiting.setdefault(line, deque()).append(msg)
            else:
                self._start(msg)
        elif kind == MSG_INV_ACK:
            self._on_inv_ack(msg)
        elif kind == MSG_WRITEBACK:
            self._on_writeback(msg)
        elif kind == MSG_MEM_RESP:
            self._on_mem_resp(msg)
        else:
            raise ValueError(f"home {self.node}: unexpected kind {kind!r}")

    # ------------------------------------------------------- transactions
    def _entry(self, line: int) -> DirEntry:
        e = self.directory.get(line)
        if e is None:
            e = DirEntry()
            self.directory[line] = e
        return e

    def _start(self, req: Message, inherited_cause: Message | None = None) -> None:
        """Begin servicing a GETS/GETX.

        ``inherited_cause`` is set when ``req`` was dequeued after waiting for
        a previous transaction on the same line: the event that actually
        *triggered* this transaction is whatever completed the previous one,
        not the (long-delivered) request itself.  Threading it keeps the
        captured gaps network-independent — attributing the queue wait to the
        request would bake the capture network's timing into the trace.
        """
        payload: ProtPayload = req.payload
        line, r = payload.line, payload.requester
        is_write = req.kind == MSG_REQ_WRITE
        trigger = inherited_cause if inherited_cause is not None else req
        # A dequeued request's own arrival is deliberately not a second
        # trigger: a queued transaction starts exactly at the previous one's
        # finish (its request always arrived earlier), and threading that
        # edge measured 3-5x *worse* replay accuracy (EXPERIMENTS.md,
        # "Two-trigger ablation").  A record has one cause.
        entry = self._entry(line)
        txn = Txn(line, r, is_write, seq=entry.seq, cause=trigger)
        entry.seq += 1
        self.txns[line] = txn

        if entry.state == CacheLineState.MODIFIED:
            txn.need_owner_data = True
            txn.prev_owner = entry.owner
            if entry.owner != r:
                self.fetches_sent += 1
                self.sys.send_protocol(
                    self.node,
                    entry.owner,
                    MSG_FETCH_INV if is_write else MSG_FETCH,
                    ProtPayload(line=line, requester=r, seq=txn.seq,
                                cause=trigger),
                )
            # owner == r: its eviction WRITEBACK is already in flight and
            # will serve as the data arrival.
        elif is_write:
            others = entry.sharers - {r}
            txn.need_acks = len(others)
            for s in sorted(others):
                self.invalidations_sent += 1
                self.sys.send_protocol(
                    self.node, s, MSG_INV,
                    ProtPayload(line=line, requester=r, seq=txn.seq,
                                cause=trigger),
                )
            if r not in entry.sharers:
                self._ensure_data(txn, trigger)
        else:
            self._ensure_data(txn, trigger)

        self._maybe_finish(txn)

    def _ensure_data(self, txn: Txn, trigger: Message) -> None:
        """Source the line's data from the L2 array or from memory."""
        if self.l2.lookup(txn.line) != CacheLineState.INVALID:
            return
        txn.need_mem = True
        self.mem_reads += 1
        self.sys.send_protocol(
            self.node,
            self.sys.memctrl_of(txn.line),
            MSG_MEM_READ,
            ProtPayload(line=txn.line, requester=self.node, cause=trigger),
        )

    # ------------------------------------------------------ txn advancing
    def _on_inv_ack(self, msg: Message) -> None:
        txn = self.txns.get(msg.payload.line)
        if txn is None or txn.need_acks <= 0:
            raise RuntimeError(
                f"home {self.node}: unexpected INV_ACK for line "
                f"{msg.payload.line}"
            )
        txn.need_acks -= 1
        txn.cause = msg
        self._maybe_finish(txn)

    def _on_writeback(self, msg: Message) -> None:
        payload: ProtPayload = msg.payload
        line = payload.line
        txn = self.txns.get(line)
        if txn is not None and txn.need_owner_data:
            txn.need_owner_data = False
            txn.cause = msg
            self._install_l2(line)
            entry = self._entry(line)
            if not txn.is_write and txn.prev_owner != txn.requester:
                # FETCH downgrade: old owner keeps a shared copy...
                if payload.aux == 1:
                    entry.sharers = {txn.prev_owner}
                else:
                    # ...unless this was actually a crossing eviction.
                    entry.sharers = set()
            else:
                entry.sharers = set()
            entry.owner = -1
            entry.state = (
                CacheLineState.SHARED if entry.sharers else CacheLineState.INVALID
            )
            self._maybe_finish(txn)
            return
        # Plain eviction writeback.
        entry = self._entry(line)
        if entry.state != CacheLineState.MODIFIED or entry.owner != msg.src:
            raise RuntimeError(
                f"home {self.node}: writeback for line {line} from {msg.src} "
                f"but dir state {entry.state.name}/owner {entry.owner}"
            )
        entry.state = CacheLineState.INVALID
        entry.owner = -1
        entry.sharers = set()
        self._install_l2(line)

    def _on_mem_resp(self, msg: Message) -> None:
        txn = self.txns.get(msg.payload.line)
        if txn is None or not txn.need_mem:
            raise RuntimeError(
                f"home {self.node}: unexpected MEM_RESP for line "
                f"{msg.payload.line}"
            )
        txn.need_mem = False
        txn.cause = msg
        self._install_l2(msg.payload.line)
        self._maybe_finish(txn)

    def _install_l2(self, line: int) -> None:
        """Install data, bypassing allocation if every victim is pinned."""
        def victim_ok(victim_line: int, _state: CacheLineState) -> bool:
            if victim_line in self.txns:
                return False
            e = self.directory.get(victim_line)
            return e is None or e.state == CacheLineState.INVALID

        try:
            self.l2.install(line, CacheLineState.VALID, victim_ok)
        except RuntimeError:
            pass  # all ways pinned by live directory state: serve-and-bypass

    # ----------------------------------------------------------- finishing
    def _maybe_finish(self, txn: Txn) -> None:
        if txn.ready:
            txn.finishing = True
            self.sys.sim.schedule_after(
                self.sys.cfg.l2_slice.hit_latency, self._finish, (txn,)
            )

    def _finish(self, txn: Txn) -> None:
        line = txn.line
        entry = self._entry(line)
        if txn.is_write:
            entry.state = CacheLineState.MODIFIED
            entry.owner = txn.requester
            entry.sharers = set()
        else:
            entry.state = CacheLineState.SHARED
            entry.owner = -1
            entry.sharers.add(txn.requester)
        self.sys.send_protocol(
            self.node,
            txn.requester,
            MSG_RESP_DATA,
            ProtPayload(line=line, requester=txn.requester,
                        aux=1 if txn.is_write else 0, seq=txn.seq,
                        cause=txn.cause),
        )
        del self.txns[line]
        q = self.waiting.get(line)
        if q:
            nxt = q.popleft()
            if not q:
                del self.waiting[line]
            # The dequeued transaction is triggered by whatever completed
            # this one (see _start's inherited_cause note).
            self._start(nxt, inherited_cause=txn.cause)

    # ------------------------------------------------------------- queries
    def busy_lines(self) -> list[int]:
        return sorted(self.txns)
