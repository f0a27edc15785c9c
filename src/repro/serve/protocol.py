"""Wire protocol of the simulation service: newline-delimited JSON.

One JSON object per line, UTF-8, ``\n``-terminated — trivially scriptable
(``nc localhost 7433``, ``jq``), framing-free, and language-neutral.  The
same socket also answers plain HTTP/1.1 ``GET`` requests (``/healthz``,
``/metrics``, ``/jobs``): the server sniffs the first line and switches,
so one port serves both protocols (see :mod:`repro.serve.server`).

Client -> server (every request carries a client-chosen ``req`` id; the
server tags every reply with it, so responses interleave freely on one
connection):

``{"op": "submit", "req": 1, "fn": "scenario", "args": [...], "kwargs":
{...}, "quiet": false}``
    Run a registered operation.  ``fn`` is an operation alias from the
    server's registry (or a full ``module:qualname`` the registry allows);
    ``args``/``kwargs`` are :func:`repro.harness.encode_value` payloads —
    the same codec the sweep cache uses, so requests canonicalize to the
    same content-addressed keys.  With ``quiet`` only the terminal event is
    sent (no state-change stream).

``{"op": "status", "req": 2}``      service counters (jobs, dedup, shed...).
``{"op": "jobs", "req": 3}``        recent + active jobs.
``{"op": "ping", "req": 4}``        liveness probe.
``{"op": "drain", "req": 5}``       begin graceful drain (what SIGTERM does).

Fabric ops (node <-> node; protocol v2, see :mod:`repro.serve.peer`):

``{"op": "submit", ..., "fwd": true}``
    A submit forwarded by a peer that is not the key's owner.  The
    receiving node executes locally and never re-forwards — the marker
    breaks routing loops while membership views disagree.
``{"op": "peer_fetch", "req": 6, "key": "<sha256 hex>"}``
    Ask a peer for its cached result under a content key (both tiers:
    in-memory LRU, then disk).  Answered with one ``peer_result`` event
    carrying the entry: ``{"event": "peer_result", "hit": bool, "result":
    <encoded>|null, "obs": <registry snapshot>|null}`` — a missing ``obs``
    reads as "no snapshot", which a node running under metrics treats as a
    miss.  A fetch never triggers computation on the answering node.
``{"op": "membership", "req": 7, "action": "join"|"leave"|"sync",
"node": "<id>", "addr": "host:port", "members": [[node, addr], ...]}``
    Gossip membership.  ``join`` adds the announcing node, ``leave``
    removes it (graceful drain announces this), ``sync`` merges the
    carried member view.  Answered with one ``membership`` event carrying
    the receiver's full post-merge view, and ``holds``: whether either of
    its cache tiers holds a result (a joiner peer-fetches only then).

Server -> client events for a ``submit`` (all tagged with ``req``):

``{"event": "accepted", "job": "<key12>", "deduped": bool, ...}``
    Admission: the job entered the queue, or coalesced onto an identical
    in-flight job (single-flight dedup).
``{"event": "state", "state": "running", "attempt": 1}``
    Live progress (suppressed by ``quiet``); also ``"retrying"`` after a
    worker death, with the backoff delay.
``{"event": "done", "result": <encoded>, "obs": <snapshot>|null,
"cached": bool, ...}``
    Terminal success; ``result`` decodes via
    :func:`repro.harness.decode_value`.  ``obs`` is the snapshot stored
    beside the result, if any: clients ignore it, a forwarding node keeps
    it with the result in its LRU.
``{"event": "failed", "error": {"type", "message", "traceback"}, ...}``
    Terminal failure.  ``traceback`` is the *original worker-side* traceback
    string, so remote failures debug like local ones.
``{"event": "shed", "reason": "...", ...}``
    Admission control refused the request (queue full, or draining).  The
    client is expected to back off and resubmit; the server never blocks an
    accepted connection on a full queue.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Optional

#: Default service port (unassigned range; "RS" on a phone keypad).
DEFAULT_PORT = 7433

#: Protocol revision, reported by ping/status and checked by clients.
#: v2 adds the fabric surface: the ``fwd`` submit marker, ``peer_fetch``,
#: and ``membership`` (all additive; v1 clients interoperate unchanged).
PROTOCOL_VERSION = 2

#: Cap on one NDJSON line (requests and events).  Large simulation results
#: stay well under this; the cap bounds memory per connection.
MAX_LINE_BYTES = 32 * 1024 * 1024

# Request ops.
OP_SUBMIT = "submit"
OP_STATUS = "status"
OP_JOBS = "jobs"
OP_PING = "ping"
OP_DRAIN = "drain"
OP_PEER_FETCH = "peer_fetch"
OP_MEMBERSHIP = "membership"
OPS = (OP_SUBMIT, OP_STATUS, OP_JOBS, OP_PING, OP_DRAIN,
       OP_PEER_FETCH, OP_MEMBERSHIP)

# Membership actions.
MEMBER_JOIN = "join"
MEMBER_LEAVE = "leave"
MEMBER_SYNC = "sync"
MEMBER_ACTIONS = (MEMBER_JOIN, MEMBER_LEAVE, MEMBER_SYNC)

# Event names.
EV_ACCEPTED = "accepted"
EV_STATE = "state"
EV_DONE = "done"
EV_FAILED = "failed"
EV_SHED = "shed"
EV_ERROR = "error"          # protocol-level error (bad request), not job failure
EV_PONG = "pong"
EV_STATUS = "status"
EV_JOBS = "jobs"
EV_DRAINING = "draining"
EV_PEER_RESULT = "peer_result"      # answer to peer_fetch
EV_MEMBERSHIP = "membership"        # answer to a membership exchange

#: Events that end a submit stream.
TERMINAL_EVENTS = (EV_DONE, EV_FAILED, EV_SHED, EV_ERROR)


class ProtocolError(ValueError):
    """Malformed frame: not JSON, not an object, or over the line cap."""


@dataclass(frozen=True)
class RemoteError:
    """A worker-side exception, carried verbatim across the wire.

    ``traceback`` is the full ``traceback.format_exc()`` string captured in
    the worker process at the point of failure — the original frames, not a
    re-raise site in the service (see ``repro.serve.pool``).
    """

    type: str
    message: str
    traceback: str

    def as_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "RemoteError":
        return RemoteError(
            type=str(d.get("type", "Exception")),
            message=str(d.get("message", "")),
            traceback=str(d.get("traceback", "")),
        )

    def __str__(self) -> str:
        return f"{self.type}: {self.message}"


def dumps(obj: Any) -> str:
    """The frames' JSON text: compact, keys sorted."""
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def encode_frame(obj: dict) -> bytes:
    """One NDJSON frame: compact JSON + newline."""
    return dumps(obj).encode("utf-8") + b"\n"


def encode_event_with(req: Any, event: str, text: str, **fields: Any) -> bytes:
    """Decodes as ``encode_frame(event_frame(req, event, **fields, **obj))``
    where ``text`` is ``dumps(obj)``; ``obj`` is not encoded again."""
    head = dumps(event_frame(req, event, **fields))[:-1]
    tail = text[1:] if text == "{}" else "," + text[1:]
    return (head + tail).encode("utf-8") + b"\n"


def decode_frame(line: bytes) -> dict:
    """Parse one NDJSON line into a dict, or raise :class:`ProtocolError`."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"frame exceeds {MAX_LINE_BYTES} bytes")
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad frame: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(obj).__name__}")
    return obj


def submit_frame(req: int, fn: str, enc_args: Any, enc_kwargs: Any,
                 quiet: bool = False,
                 timeout_s: Optional[float] = None,
                 fwd: bool = False) -> dict:
    """Build a submit request (args/kwargs already codec-encoded)."""
    frame: dict = {"op": OP_SUBMIT, "req": req, "fn": fn,
                   "args": enc_args, "kwargs": enc_kwargs}
    if quiet:
        frame["quiet"] = True
    if timeout_s is not None:
        frame["timeout_s"] = timeout_s
    if fwd:
        frame["fwd"] = True
    return frame


def peer_fetch_frame(req: int, key: str) -> dict:
    """Build a peer cache-fetch request for a content key."""
    return {"op": OP_PEER_FETCH, "req": req, "key": key}


def membership_frame(req: int, action: str, node: str, addr: str,
                     members: list) -> dict:
    """Build a membership gossip frame (``members`` is [[node, addr], ...])."""
    return {"op": OP_MEMBERSHIP, "req": req, "action": action,
            "node": node, "addr": addr, "members": members}


def event_frame(req: Any, event: str, **fields: Any) -> dict:
    """Build a server event tagged with the request id."""
    return {"req": req, "event": event, **fields}
