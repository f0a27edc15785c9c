"""Coherence-protocol message plumbing: payloads, sizes, cause threading.

Every protocol message carries a :class:`ProtPayload` whose ``cause`` field
threads the *causal trigger* through the system: the network message whose
arrival (transitively) provoked this send.  The trace-capture layer reads it
to annotate each trace record with its one dependency edge — the information
the paper's self-correction model adds over plain timestamped traces.

Cause-threading rule: when a handler processes network message X and sends Y,
Y's cause is X; when it processes a *local* (same-node, off-network) message
L, Y inherits L's own cause.  :func:`derive_cause` implements this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config import SystemConfig
from repro.net import (
    MSG_BARRIER_ARRIVE,
    MSG_BARRIER_RELEASE,
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

# Downgrade/recall requests from the home to the current owner.
MSG_FETCH = "fetch"            # owner supplies data, downgrades M -> S
MSG_FETCH_INV = "fetch_inv"    # owner supplies data and invalidates

CTRL_KINDS = frozenset({
    MSG_REQ_READ, MSG_REQ_WRITE, MSG_INV, MSG_INV_ACK, MSG_MEM_READ,
    MSG_FETCH, MSG_FETCH_INV, MSG_BARRIER_ARRIVE, MSG_BARRIER_RELEASE,
})
DATA_KINDS = frozenset({MSG_RESP_DATA, MSG_WRITEBACK, MSG_MEM_RESP})


def message_size(cfg: SystemConfig, kind: str) -> int:
    """Wire size of a protocol message of ``kind``."""
    if kind in CTRL_KINDS:
        return cfg.ctrl_msg_bytes
    if kind in DATA_KINDS:
        return cfg.data_msg_bytes
    raise ValueError(f"unknown protocol message kind {kind!r}")


@dataclass
class ProtPayload:
    """Protocol fields riding on a :class:`repro.net.Message`.

    ``line`` — cache-line index (byte address / line size); -1 for barriers.
    ``requester`` — original requesting node for forwarded transactions.
    ``aux`` — kind-specific scalar (barrier id, excl flag, ...).
    ``seq`` — per-line transaction sequence number stamped by the home;
    responses, invalidations and fetches carry the issuing transaction's
    seq so an L1 can order messages that raced in the network (a FETCH that
    overtakes the RESP_DATA granting ownership is deferred, a stale one is
    dropped).
    ``cause`` — causal-trigger network message (see module docstring).
    ``local`` — True for same-node messages that never touch the network.
    """

    line: int = -1
    requester: int = -1
    aux: int = 0
    seq: int = -1
    cause: Optional[Message] = None
    local: bool = False


def derive_cause(msg: Optional[Message]) -> Optional[Message]:
    """The network-level causal trigger represented by ``msg``.

    Network messages are their own trigger; local messages pass through the
    trigger they inherited.  ``None`` stays ``None`` (spontaneous activity at
    program start).
    """
    if msg is None:
        return None
    payload = msg.payload
    if isinstance(payload, ProtPayload) and payload.local:
        return payload.cause
    return msg


def line_of(addr: int, line_bytes: int) -> int:
    """Byte address -> cache-line index."""
    if addr < 0:
        raise ValueError(f"negative address {addr}")
    return addr // line_bytes
