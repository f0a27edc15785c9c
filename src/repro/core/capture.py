"""Trace capture: the coupling between the full-system run and the trace.

Implements the :class:`repro.system.cmp.CaptureHook` protocol.  During the
run it only appends lightweight tuples; the trace is materialised by
:meth:`finalize` after the simulation drains (when every message's delivery
time is known).
"""

from __future__ import annotations

from typing import Optional

from repro.net import Message
from repro.core.trace import EndMarker, SemanticKey, Trace, TraceRecord
from repro.system.protocol import ProtPayload


class TraceCapture:
    """Records dependency-annotated network messages from a system run."""

    def __init__(self) -> None:
        self._sent: list[tuple[Message, Optional[Message]]] = []
        self._occurrence: dict[tuple[int, int, str, int], int] = {}
        self._keys: dict[int, SemanticKey] = {}      # msg_id -> key
        self._finishes: list[tuple[int, int, Optional[Message]]] = []

    # ------------------------------------------------------------ hooks
    def on_network_send(self, msg: Message) -> None:
        """Called by FullSystem for every message entering the network."""
        payload = msg.payload
        if not isinstance(payload, ProtPayload):
            raise TypeError(
                "TraceCapture requires protocol messages (ProtPayload); "
                f"got {type(payload).__name__}"
            )
        cause = payload.cause  # already normalised to a network msg or None
        # Incremental acyclicity: sends are hooked in simulation order, so a
        # trigger that has not itself been captured yet is a *forward*
        # reference — the only way a dependency cycle (possible solely under
        # degenerate zero-latency timing) can enter the trace.  Reject it at
        # the send that closes the cycle, naming the protocol transition,
        # instead of leaving it for the post-hoc ``Trace.validate()``
        # cycle check to flag anonymously after the run.
        if cause is not None and cause.id not in self._keys:
            raise RuntimeError(
                f"dependency cycle at capture: {msg.kind} "
                f"{msg.src}->{msg.dst} (line={payload.line}, "
                f"aux={payload.aux}, seq={payload.seq}) names the "
                f"not-yet-sent message {cause.id} ({cause.kind}) as its "
                "cause — the protocol threaded a trigger forward in time"
            )
        base = (msg.src, msg.dst, msg.kind,
                payload.line if payload.line >= 0 else payload.aux)
        occ = self._occurrence.get(base, 0)
        self._occurrence[base] = occ + 1
        self._keys[msg.id] = (*base[:3], base[3], occ)
        self._sent.append((msg, cause))

    def on_core_finish(self, node: int, finish_time: int,
                       cause: Optional[Message]) -> None:
        self._finishes.append((node, finish_time, cause))

    # --------------------------------------------------------- finalise
    def finalize(self, meta: Optional[dict] = None) -> Trace:
        """Build the validated Trace (call after the simulation drains)."""
        # Canonicalise msg_ids to 0..n-1 in injection order.  Raw Message
        # ids come from a process-global counter, so without this the same
        # (config, seed) capture would serialize differently depending on
        # what ran earlier in the process — breaking byte-identical golden
        # traces and content-addressed caching.
        order = sorted(self._sent, key=lambda s: (s[0].inject_time, s[0].id))
        remap = {s[0].id: i for i, s in enumerate(order)}
        remap[-1] = -1
        records: list[TraceRecord] = []
        for msg, cause in self._sent:
            if msg.deliver_time < 0:
                raise RuntimeError(
                    f"message {msg} was captured but never delivered — "
                    "network did not drain"
                )
            gap, cause_id = msg.inject_time, -1
            if cause is not None:
                if cause.id not in self._keys:
                    # A cause outside the captured set would be a
                    # cause-threading bug (all network messages are captured).
                    raise RuntimeError(
                        f"message {msg.id} triggered by uncaptured "
                        f"message {cause.id}"
                    )
                gap = msg.inject_time - cause.deliver_time
                cause_id = cause.id
                if gap < 0:
                    raise RuntimeError(
                        f"message {msg.id} injected {-gap} cycles before its "
                        "cause was delivered — causality bug"
                    )
            head = (self._keys[msg.id], msg.src, msg.dst, msg.size_bytes,
                    msg.kind, msg.inject_time, msg.deliver_time)
            try:
                records.append(TraceRecord(remap[msg.id], *head,
                                           remap[cause_id], gap))
            except ValueError:
                # The record's own refusal, naming the id the run gave it.
                TraceRecord(msg.id, *head, cause_id, gap)
                raise
        markers: list[EndMarker] = []
        for node, t_finish, cause in self._finishes:
            if cause is None:
                markers.append(EndMarker(node, t_finish, -1, t_finish))
            else:
                markers.append(EndMarker(
                    node, t_finish, cause.id, t_finish - cause.deliver_time
                ))
        records.sort(key=lambda r: r.msg_id)
        markers.sort(key=lambda m: m.node)
        markers = [
            EndMarker(m.node, m.t_finish, remap[m.cause_id], m.gap)
            for m in markers
        ]
        exec_time = max((m.t_finish for m in markers), default=0)
        trace = Trace(records=records, end_markers=markers,
                      exec_time=exec_time, meta=dict(meta or {}))
        trace.validate()
        return trace
