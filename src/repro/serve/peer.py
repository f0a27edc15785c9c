"""Peer plumbing for the serve fabric: membership + node-to-node client.

Two pieces, both owned by :class:`repro.serve.server.SimulationServer`:

* :class:`Membership` — the node's view of the fabric (node id -> address)
  and the :class:`~repro.serve.ring.HashRing` derived from it.  Updated by
  gossip (``membership`` frames), by graceful ``leave`` announcements, and
  by failure detection (a dead forward target is removed locally).  Views
  converge epidemically: every exchange answers with the full post-merge
  view, and ``sync`` merges are unions — a node two peers disagree about
  is re-learned on the next exchange unless it announced ``leave``.
* :class:`PeerLink` — a lazy, self-healing NDJSON connection to one peer,
  built on :class:`repro.serve.client.AsyncServeClient`.  Used for the
  three fabric interactions: forwarding a submit to the key's owner
  (relaying the event stream back verbatim), fetching a cached result
  before recomputing, and membership announcements.  Every call is
  bounded by a timeout so a sick peer degrades the caller instead of
  wedging it.

All of this runs on the server's event loop — no locks, no threads.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Optional

from repro.serve import protocol as P
from repro.serve.client import AsyncServeClient, ServerClosed
from repro.serve.ring import HashRing

#: Deadline on peer control calls (fetch, announce).  Forwarded submits
#: are bounded by the job's own deadline, not this.
PEER_CALL_TIMEOUT_S = 5.0


def parse_addr(addr: str) -> tuple[str, int]:
    """Split ``"host:port"`` (the port is required)."""
    host, _, port = addr.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"bad peer address {addr!r}; expected host:port")
    return host, int(port)


class Membership:
    """This node's view of the fabric and the ring derived from it."""

    def __init__(self, node: str, addr: str) -> None:
        self.self_node = node
        self.self_addr = addr
        self.members: dict[str, str] = {node: addr}
        self.ring = HashRing([node])
        self.version = 0        # bumps on every change (convergence probe)

    # ------------------------------------------------------------ updates
    def add(self, node: str, addr: str) -> bool:
        """Learn a member; returns True if the view changed."""
        if not node or self.members.get(node) == addr:
            return False
        self.members[node] = addr
        self.ring.add(node)
        self.version += 1
        return True

    def remove(self, node: str) -> bool:
        """Forget a member (leave announcement or failure detection)."""
        if node == self.self_node or node not in self.members:
            return False
        del self.members[node]
        self.ring.remove(node)
        self.version += 1
        return True

    def merge(self, members: list) -> bool:
        """Union-merge a gossiped ``[[node, addr], ...]`` view."""
        changed = False
        for entry in members or []:
            try:
                node, addr = entry
            except (TypeError, ValueError):
                continue
            if isinstance(node, str) and isinstance(addr, str):
                changed = self.add(node, addr) or changed
        return changed

    # ------------------------------------------------------------- views
    def view(self) -> list[list[str]]:
        """The full member view, sorted for deterministic frames."""
        return [[n, a] for n, a in sorted(self.members.items())]

    def owner(self, key: str) -> str:
        """The member owning ``key`` (always defined: self is a member)."""
        return self.ring.owner(key) or self.self_node

    def others(self) -> list[str]:
        """Every member except this node, sorted."""
        return sorted(n for n in self.members if n != self.self_node)

    def addr_of(self, node: str) -> Optional[str]:
        return self.members.get(node)


class PeerLink:
    """A lazy, reconnecting client connection to one peer node."""

    def __init__(self, addr: str) -> None:
        self.addr = addr
        self.host, self.port = parse_addr(addr)
        self._client: Optional[AsyncServeClient] = None

    async def _ensure(self) -> AsyncServeClient:
        c = self._client
        if (c is None or c._writer is None or c._writer.is_closing()
                or c._reader_task is None or c._reader_task.done()):
            await self.aclose()
            self._client = await AsyncServeClient.connect(self.host,
                                                          self.port)
        return self._client

    async def aclose(self) -> None:
        if self._client is not None:
            client, self._client = self._client, None
            await client.close()

    # ------------------------------------------------------- interactions
    async def peer_fetch(self, key: str,
                         timeout_s: float = PEER_CALL_TIMEOUT_S
                         ) -> Optional[dict]:
        """The peer's cached ``result``/``obs`` entry for ``key``, or None.

        Misses, timeouts, and connection failures all read as None — the
        caller recomputes either way.
        """
        try:
            client = await self._ensure()
            event = await asyncio.wait_for(
                client._one_shot(P.peer_fetch_frame(0, key)), timeout_s)
        except (OSError, asyncio.TimeoutError, ServerClosed):
            await self.aclose()
            return None
        if event.get("event") != P.EV_PEER_RESULT or not event.get("hit"):
            return None
        return {"result": event.get("result"), "obs": event.get("obs")}

    async def announce(self, action: str, node: str, addr: str,
                       members: list,
                       timeout_s: float = PEER_CALL_TIMEOUT_S
                       ) -> Optional[list]:
        """Send a membership frame; returns the peer's view or None."""
        try:
            client = await self._ensure()
            event = await asyncio.wait_for(
                client._one_shot(
                    P.membership_frame(0, action, node, addr, members)),
                timeout_s)
        except (OSError, asyncio.TimeoutError, ServerClosed):
            await self.aclose()
            return None
        if event.get("event") != P.EV_MEMBERSHIP:
            return None
        return event.get("members")

    async def forward_submit(
        self,
        frame: dict,
        relay: Callable,
        via: str,
        accept_timeout_s: float = PEER_CALL_TIMEOUT_S,
    ) -> bool:
        """Forward a submit to this peer, relaying its event stream.

        ``frame`` is the client's original submit frame; it is re-tagged
        with the ``fwd`` marker so the owner never re-forwards.  Every
        event the owner emits is passed to ``relay(event)`` with the
        peer-side ``req`` replaced by the original one and a ``via`` field
        recording the forwarding node.

        The *first* event must arrive within ``accept_timeout_s`` — a
        healthy owner acknowledges a submit immediately, so silence means
        the peer is gone in a way TCP never surfaced (e.g. a connection
        that landed in a dying node's accept backlog and was discarded
        without a reset).  Later events are unbounded: they track the
        job's own lifetime.

        Returns True once a terminal event has been relayed.  Returns
        False if the peer could not be reached, never acknowledged, or
        died mid-stream *before* a terminal event — the caller falls back
        to local execution (safe: jobs are content-keyed, deterministic,
        and idempotent).
        """
        orig_req = frame.get("req")
        fwd = dict(frame)
        fwd["fwd"] = True
        fwd.pop("req", None)
        try:
            client = await self._ensure()
            queue = await client._request(fwd)
        except (OSError, ServerClosed):
            await self.aclose()
            return False
        accepted = False
        try:
            while True:
                if accepted:
                    event = await queue.get()
                else:
                    try:
                        event = await asyncio.wait_for(queue.get(),
                                                       accept_timeout_s)
                    except asyncio.TimeoutError:
                        await self.aclose()
                        return False
                if event.get("event") == "__closed__":
                    await self.aclose()
                    return False
                accepted = True
                out = dict(event)
                out["req"] = orig_req
                out["via"] = via
                await relay(out)
                if event.get("event") in P.TERMINAL_EVENTS:
                    return True
        finally:
            client._pending.pop(fwd["req"], None)
