"""The resident simulation service.

``SimulationServer`` is a single-loop asyncio TCP server speaking the
NDJSON protocol of :mod:`repro.serve.protocol`, with a minimal HTTP/1.1
shim on the same port (``/healthz``, ``/metrics``, ``/jobs`` — the first
line of a connection decides which protocol it speaks).  Requests become
:class:`~repro.serve.jobs.Job` objects executed on a bounded
:class:`~repro.serve.pool.WorkerPool`; every layer below is shared with the
batch front ends rather than duplicated:

* Requests canonicalize to :class:`repro.harness.SweepTask` content keys —
  the *same* keys :class:`repro.harness.SweepRunner` uses — which gives
  **single-flight dedup** (identical in-flight requests coalesce onto one
  execution) and **cross-front-end caching** (a result computed by a batch
  sweep is a cache hit for the service, and vice versa) for free.
* Every tier holds one entry shape, ``{"result": <encoded>, "obs":
  <registry snapshot> | None}``, under one key; :func:`repro.harness.
  parallel.answers` decides whether an entry may answer.  When the service
  was started under :mod:`repro.obs`, the snapshot of each entry it answers
  with merges into its registry (merges are commutative, so totals are
  deterministic), surfacing on ``/metrics``.

Robustness under load:

* **Admission control.**  At most ``max_pending`` jobs may be queued or
  running; a submit beyond that receives an immediate ``shed`` event
  instead of queueing unboundedly (deduplicated submits piggyback on
  existing work and are always admitted).  Clients back off and resubmit.
* **Bounded retry** with exponential backoff when a worker process dies,
  and **per-job deadlines** — both from :class:`~repro.serve.pool.WorkerPool`.
* **Graceful drain.**  SIGTERM (or the ``drain`` op) stops admitting new
  work, lets in-flight jobs finish and their results reach every waiting
  subscriber, then closes the listener and exits.  A second SIGTERM hard
  stops.

The fabric (``peers=[...]`` / ``repro serve --peers``): N peer nodes form
a shared-nothing cluster routed by a consistent-hash ring over the same
content keys (:mod:`repro.serve.ring`).  A submit landing on a non-owner
is **forwarded** to the key's owner (its event stream relayed back
verbatim, tagged ``via``), so identical requests entering *any* node
coalesce on one execution — cross-node single-flight.  Reads go through
a **two-tier cache**: a hot in-memory LRU (:mod:`repro.serve.lru`) in
front of the on-disk :class:`ResultCache`, and on a double miss the owner
asks its peers for the key (**peer-fetch**) before paying for recompute —
only while a peer may hold it (:meth:`SimulationServer._peers_may_hold`).
Membership is gossiped (:mod:`repro.serve.peer`): joins announce
themselves and propagate, graceful drains announce ``leave`` before
finishing, and an unreachable forward target is removed locally — the
ring re-shards and the submit falls back to local execution, so a dead
node degrades throughput, never correctness.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from typing import Any, Optional, Sequence

from repro import obs
from repro.harness.parallel import (
    ResultCache,
    SweepTask,
    _canonical,
    answers,
    decode_value,
    encode_value,
)
from repro.serve import protocol as P
from repro.serve.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    Job,
    JobTable,
    RUNNING,
    TIMEOUT,
)
from repro.serve.lru import DEFAULT_MAX_ENTRIES, LRUCache
from repro.serve.ops import DEFAULT_OPERATIONS
from repro.serve.peer import Membership, PeerLink
from repro.serve.pool import JobFailure, JobTimeout, WorkerDied, WorkerPool
from repro.serve.protocol import RemoteError


class SimulationServer:
    """One resident service instance; see module docstring.

    Parameters mirror the ``repro serve`` CLI flags.  ``port=0`` binds an
    ephemeral port (tests); the bound port is ``self.port`` after
    :meth:`start`.  ``operations`` extends/overrides the default alias
    registry; only registered operations can be invoked over the wire.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = P.DEFAULT_PORT,
        workers: int = 2,
        max_pending: int = 32,
        job_timeout_s: Optional[float] = None,
        cache_dir: Optional[str] = None,
        salt: str = "",
        operations: Optional[dict[str, str]] = None,
        max_retries: int = 3,
        backoff_base_s: float = 0.05,
        node_id: Optional[str] = None,
        peers: Optional[Sequence[str]] = None,
        lru_entries: int = DEFAULT_MAX_ENTRIES,
    ) -> None:
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.host = host
        self.port = port
        self.workers = workers
        self.max_pending = max_pending
        self.job_timeout_s = job_timeout_s
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.salt = salt
        self.operations = dict(DEFAULT_OPERATIONS)
        if operations:
            self.operations.update(operations)
        self._max_retries = max_retries
        self._backoff_base_s = backoff_base_s

        # Fabric state.  node_id defaults to "host:port" once the socket
        # is bound; membership (self + gossip-learned peers) and the ring
        # are built in start().
        self.node_id = node_id
        self.seed_peers: list[str] = list(peers or [])
        self.membership: Optional[Membership] = None
        self.lru = LRUCache(max_entries=lru_entries)
        self._links: dict[str, PeerLink] = {}
        # Set when this node joined members that already held results.
        self._joined_holders = False

        self.table = JobTable()
        self.pool: Optional[WorkerPool] = None
        self.draining = False
        self._started_s = 0.0
        self._server: Optional[asyncio.base_events.Server] = None
        self._job_tasks: set[asyncio.Task] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._stream_tasks: set[asyncio.Task] = set()
        self._gossip_tasks: set[asyncio.Task] = set()
        self._closed = asyncio.Event()
        self._with_obs = False
        self._counters = None

    # ------------------------------------------------------------ lifecycle
    async def start(self) -> "SimulationServer":
        """Bind the listener and start accepting connections."""
        self.pool = WorkerPool(max_workers=self.workers,
                               max_retries=self._max_retries,
                               backoff_base_s=self._backoff_base_s)
        # Snapshot the instrumentation state once: jobs run with obs, and
        # entries need a snapshot to answer, iff the service started with it
        # (matches SweepRunner's run()-time check).
        self._with_obs = obs.enabled()
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port,
            limit=P.MAX_LINE_BYTES)
        self.port = self._server.sockets[0].getsockname()[1]
        if self.node_id is None:
            self.node_id = f"{self.host}:{self.port}"
        self.membership = Membership(self.node_id,
                                     f"{self.host}:{self.port}")
        scope = obs.metrics(f"serve.{self.node_id}")
        self._counters = {
            name: scope.counter(name)
            for name in ("forwarded", "forward_failed", "peer_fetch_hits",
                         "peer_fetch_misses", "lru_hits", "shed")
        }
        await self._announce_join()
        self._started_s = time.monotonic()
        return self

    def install_signal_handlers(self) -> bool:
        """SIGTERM/SIGINT -> graceful drain; second signal -> hard stop.

        Returns False where loop signal handlers are unsupported (non-main
        thread, non-Unix); the ``drain`` op still works there.
        """
        loop = asyncio.get_running_loop()

        def _on_signal() -> None:
            if self.draining:
                asyncio.ensure_future(self.aclose())
            else:
                self.begin_drain()

        try:
            loop.add_signal_handler(signal.SIGTERM, _on_signal)
            loop.add_signal_handler(signal.SIGINT, _on_signal)
        except (NotImplementedError, RuntimeError, ValueError):
            return False
        return True

    def begin_drain(self) -> None:
        """Stop admitting work; exit once in-flight jobs have finished."""
        if self.draining:
            return
        self.draining = True
        asyncio.ensure_future(self._drain())

    async def _drain(self) -> None:
        # Graceful re-shard: tell every peer we are leaving *before*
        # draining, so new keys stop routing here while in-flight jobs
        # finish.  Best effort — an unreachable peer will discover the
        # departure through forward-failure detection instead.
        await self._announce_leave()
        # In-flight jobs run to completion; their terminal events are
        # published to subscriber queues before the tasks finish.
        while self._job_tasks:
            await asyncio.gather(*list(self._job_tasks),
                                 return_exceptions=True)
        # Let submit streams flush those terminal events to their sockets
        # (idle connections are simply closed; no need to wait on them).
        if self._stream_tasks:
            await asyncio.wait(list(self._stream_tasks), timeout=2.0)
        await self.aclose()

    async def aclose(self) -> None:
        """Hard stop: close the listener and connections, kill the pool."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for t in list(self._gossip_tasks):
            t.cancel()
        for link in list(self._links.values()):
            await link.aclose()
        self._links.clear()
        for t in list(self._conn_tasks):
            t.cancel()
        for t in list(self._job_tasks):
            t.cancel()
        if self.pool is not None:
            self.pool.shutdown()
        self._closed.set()

    async def wait_closed(self) -> None:
        """Block until the service has fully shut down."""
        await self._closed.wait()

    # ------------------------------------------------------------- fabric
    def _count(self, name: str, n: int = 1) -> None:
        """Increment the node's obs counter ``serve.<node_id>.<name>``."""
        if self._counters is not None:
            self._counters[name].inc(n)

    def _link(self, addr: str) -> PeerLink:
        link = self._links.get(addr)
        if link is None:
            link = self._links[addr] = PeerLink(addr)
        return link

    async def _announce_join(self) -> None:
        """Introduce this node to its seed peers and whoever they know.

        Walks outward from the configured ``peers`` list: every answered
        announcement merges the peer's member view, and newly learned
        members get announced to as well, so a join converges in one pass
        even when the seeds only know a subset of the fabric.  Peers that
        are not up yet are skipped — they will learn about us when *they*
        join through any node that heard this announcement.
        """
        assert self.membership is not None
        announced = {self.membership.self_addr}
        pending = list(self.seed_peers)
        unreached: list[str] = []
        while pending:
            addr = pending.pop()
            if addr in announced:
                continue
            announced.add(addr)
            reply = await self._link(addr).announce(
                P.MEMBER_JOIN, self.node_id, self.membership.self_addr,
                self.membership.view())
            if reply is not None:
                self._joined(reply)
                pending.extend(a for _, a in self.membership.view()
                               if a not in announced)
            elif addr in self.seed_peers:
                unreached.append(addr)
        if unreached:
            t = asyncio.ensure_future(self._retry_join(unreached))
            self._gossip_tasks.add(t)
            t.add_done_callback(self._gossip_tasks.discard)

    async def _retry_join(self, addrs: list, base_s: float = 0.25,
                          attempts: int = 6) -> None:
        """Keep knocking on configured seeds that were not up yet.

        Two nodes started simultaneously race their listeners: the
        one-shot join announcement can hit a seed whose socket is not
        bound yet, and a *seed* never joins anyone itself, so without a
        retry the fabric stays silently partitioned.  Seeds are explicit
        operator configuration, so they get a bounded retry window
        (~16 s of exponential backoff); transitively learned members
        remain one-shot — they reach us through gossip.
        """
        for attempt in range(attempts):
            await asyncio.sleep(base_s * (2 ** attempt))
            if self.draining or self._closed.is_set():
                return
            assert self.membership is not None
            still: list[str] = []
            for addr in addrs:
                reply = await self._link(addr).announce(
                    P.MEMBER_JOIN, self.node_id, self.membership.self_addr,
                    self.membership.view())
                if reply is None:
                    still.append(addr)
                else:
                    self._joined(reply)
            if not still:
                return
            addrs = still

    def _joined(self, reply: dict) -> None:
        """Merge a join answer; a member that already holds results may
        hold keys this node owns from now on."""
        self.membership.merge(reply.get("members"))
        self._joined_holders |= bool(reply.get("holds"))

    async def _announce_leave(self) -> None:
        if self.membership is None:
            return
        for node in self.membership.others():
            addr = self.membership.addr_of(node)
            if addr:
                await self._link(addr).announce(
                    P.MEMBER_LEAVE, self.node_id, self.membership.self_addr,
                    [])

    def _spawn_gossip(self) -> None:
        """Push the current view to every known member (fire and forget)."""
        t = asyncio.ensure_future(self._gossip_sync())
        self._gossip_tasks.add(t)
        t.add_done_callback(self._gossip_tasks.discard)

    async def _gossip_sync(self) -> None:
        if self.membership is None:
            return
        view = self.membership.view()
        for node in self.membership.others():
            addr = self.membership.addr_of(node)
            if addr:
                reply = await self._link(addr).announce(
                    P.MEMBER_SYNC, self.node_id, self.membership.self_addr,
                    view)
                if reply is not None:
                    self.membership.merge(reply.get("members"))

    # ------------------------------------------------------------- status
    def status(self) -> dict:
        pool = self.pool
        m = self.membership
        return {
            "version": P.PROTOCOL_VERSION,
            "uptime_s": round(time.monotonic() - self._started_s, 3)
            if self._started_s else 0.0,
            "draining": self.draining,
            "workers": self.workers,
            "max_pending": self.max_pending,
            "depth": self.table.depth,
            "cache": self.cache is not None,
            "node": self.node_id,
            "members": m.view() if m is not None else [],
            "membership_version": m.version if m is not None else 0,
            "lru": {"entries": len(self.lru), "bytes": self.lru.bytes,
                    **self.lru.stats.as_dict()},
            "pool": {
                "retries": pool.retries if pool else 0,
                "recycles": pool.recycles if pool else 0,
                "abandoned": pool.abandoned if pool else 0,
            },
            "stats": self.table.stats.as_dict(),
        }

    # -------------------------------------------------------- connections
    def _on_connection(self, reader: asyncio.StreamReader,
                       writer: asyncio.StreamWriter) -> None:
        task = asyncio.ensure_future(self._serve_connection(reader, writer))
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        try:
            first = await reader.readline()
            if not first:
                return
            if first.split(b" ", 1)[0] in (b"GET", b"HEAD"):
                await self._serve_http(first, reader, writer)
                return
            await self._serve_ndjson(first, reader, writer)
        except (asyncio.IncompleteReadError, ConnectionResetError,
                BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    # ------------------------------------------------------------- NDJSON
    async def _serve_ndjson(self, first: bytes, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        wlock = asyncio.Lock()
        stream_tasks: set[asyncio.Task] = set()

        async def send(frame) -> None:     # an event, or encoded frames
            async with wlock:
                writer.write(frame if isinstance(frame, bytes)
                             else P.encode_frame(frame))
                await writer.drain()

        line = first
        try:
            while line:
                line = line.strip()
                if line:
                    await self._dispatch(line, send, stream_tasks)
                line = await reader.readline()
        finally:
            for t in stream_tasks:
                t.cancel()

    async def _dispatch(self, line: bytes, send, stream_tasks: set) -> None:
        try:
            frame = P.decode_frame(line)
        except P.ProtocolError as exc:
            await send(P.event_frame(None, P.EV_ERROR, error=str(exc)))
            return
        req = frame.get("req")
        op = frame.get("op")
        if op == P.OP_SUBMIT:
            await self._submit(req, frame, send, stream_tasks)
        elif op == P.OP_PING:
            await send(P.event_frame(req, P.EV_PONG,
                                     version=P.PROTOCOL_VERSION))
        elif op == P.OP_STATUS:
            await send(P.event_frame(req, P.EV_STATUS, **self.status()))
        elif op == P.OP_JOBS:
            await send(P.event_frame(req, P.EV_JOBS,
                                     jobs=self.table.listing()))
        elif op == P.OP_DRAIN:
            self.begin_drain()
            await send(P.event_frame(req, P.EV_DRAINING,
                                     depth=self.table.depth))
        elif op == P.OP_PEER_FETCH:
            await self._handle_peer_fetch(req, frame, send)
        elif op == P.OP_MEMBERSHIP:
            await self._handle_membership(req, frame, send)
        else:
            await send(P.event_frame(req, P.EV_ERROR,
                                     error=f"unknown op {op!r}"))

    # -------------------------------------------------------------- submit
    def _canonical_task(self, frame: dict) -> SweepTask:
        """Canonicalize a wire request into a SweepTask.

        The alias resolves through the registry; args/kwargs round-trip
        through the codec so equivalent requests (tagged tuple vs plain
        list, any key order) hash to the *same* content key SweepTask.make
        produces locally.
        """
        fn = frame.get("fn")
        ref = self.operations.get(fn)
        if ref is None:
            if fn in self.operations.values():
                ref = fn        # full dotted ref of a registered op
            else:
                raise KeyError(f"unknown operation {fn!r}")
        args = frame.get("args") or []
        if isinstance(args, list):      # a plain list spells the tuple
            args = {"$": "tuple", "v": args}
        kwargs = frame.get("kwargs") or {}
        enc_args, enc_kwargs = _canonical(args), _canonical(kwargs)
        # Any other shape takes the decode -> tuple()/dict() -> encode trip.
        if not isinstance(enc_args, dict) or enc_args.get("$") != "tuple":
            enc_args = encode_value(tuple(decode_value(args)))
        if (not isinstance(enc_kwargs, dict)
                or enc_kwargs.get("$") not in (None, "dict")):
            enc_kwargs = encode_value(dict(decode_value(kwargs)))
        return SweepTask(fn=ref, args=enc_args, kwargs=enc_kwargs)

    async def _submit(self, req, frame: dict, send,
                      stream_tasks: set) -> None:
        """Shed, refuse or answer a submit from the LRU; else stream its job."""
        if self.draining:
            self.table.stats.shed += 1
            self._count("shed")
            await send(P.event_frame(req, P.EV_SHED, reason="draining",
                                     depth=self.table.depth))
            return
        try:
            task = self._canonical_task(frame)
        except Exception as exc:  # bad alias / non-codec args
            await send(P.event_frame(req, P.EV_ERROR, error=str(exc)))
            return
        key = task.cache_key(self.salt)

        # Hot tier: an LRU hit answers immediately on any node — owner or
        # not — without touching admission control, the ring, or a worker.
        hit = self.lru.lookup(key)
        if hit is not None and answers(hit[0], self._with_obs):
            self.table.stats.lru_hits += 1
            self._count("lru_hits")
            self._merge_obs(hit[0])
            await send(P.encode_frame(P.event_frame(
                req, P.EV_ACCEPTED, job=key[:12], deduped=False,
                depth=self.table.depth, tier="lru"))
                + P.encode_event_with(req, P.EV_DONE, hit[1], job=key[:12],
                                      cached=True, attempts=0, elapsed_s=0.0))
            return

        t = asyncio.ensure_future(
            self._handle_submit(req, frame, send, task, key))
        stream_tasks.add(t)
        self._stream_tasks.add(t)
        t.add_done_callback(stream_tasks.discard)
        t.add_done_callback(self._stream_tasks.discard)

    async def _handle_submit(self, req, frame: dict, send, task: SweepTask,
                             key: str) -> None:
        # Routing: a submit for a key another node owns is forwarded there
        # (cross-node single-flight), unless it already *was* forwarded —
        # the fwd marker breaks loops while membership views disagree.
        if self.membership is not None and not frame.get("fwd"):
            owner = self.membership.owner(key)
            if owner != self.node_id:
                if await self._forward_submit(req, frame, send, key, owner):
                    return
                # Unreachable owner: drop it from the ring (re-shard) and
                # run the job here — degraded placement, same answer.

        in_flight = key in self.table.active
        if not in_flight and self.table.depth >= self.max_pending:
            self.table.stats.shed += 1
            self._count("shed")
            await send(P.event_frame(
                req, P.EV_SHED, depth=self.table.depth,
                reason=f"queue full ({self.table.depth}/{self.max_pending})"))
            return

        now = time.monotonic()
        job, deduped = self.table.get_or_create(task, key, now)
        queue = job.subscribe()
        if not deduped:
            timeout_s = frame.get("timeout_s", self.job_timeout_s)
            t = asyncio.ensure_future(self._run_job(job, timeout_s))
            self._job_tasks.add(t)
            t.add_done_callback(self._job_tasks.discard)
        await send(P.event_frame(req, P.EV_ACCEPTED, job=job.short_key,
                                 deduped=deduped, depth=self.table.depth))
        quiet = bool(frame.get("quiet"))
        try:
            while True:
                event = await queue.get()
                if event["event"] == P.EV_STATE and quiet:
                    continue
                await send(P.event_frame(req, **event))
                if event["event"] in P.TERMINAL_EVENTS:
                    return
        finally:
            job.unsubscribe(queue)
            job.subscribers -= 1

    async def _forward_submit(self, req, frame: dict, send, key: str,
                              owner: str) -> bool:
        """Relay a submit to the key's owner; True once terminal relayed.

        The owner's ``done`` entry warms this node's LRU, so a hot key
        answers locally next time no matter which node it lands on.
        """
        addr = self.membership.addr_of(owner)
        if addr is None:
            return False
        self.table.stats.forwarded += 1
        self._count("forwarded")

        async def relay(event: dict) -> None:
            if event.get("event") == P.EV_DONE and "result" in event:
                self.lru.put(key, {"result": event["result"],
                                   "obs": event.get("obs")})
            await send(event)

        fwd = dict(frame)
        fwd["req"] = req
        ok = await self._link(addr).forward_submit(fwd, relay,
                                                   via=self.node_id)
        if not ok:
            self.table.stats.forward_failed += 1
            self._count("forward_failed")
            self.membership.remove(owner)
        return ok

    async def _handle_peer_fetch(self, req, frame: dict, send) -> None:
        """Answer a peer's cache probe from either tier; never computes."""
        key = frame.get("key")
        entry = None
        if isinstance(key, str) and key:
            entry = self.lru.get(key) or self._disk(key)
        await send(P.event_frame(req, P.EV_PEER_RESULT, key=key,
                                 hit=entry is not None, node=self.node_id,
                                 **(entry or {"result": None, "obs": None})))

    async def _handle_membership(self, req, frame: dict, send) -> None:
        action = frame.get("action")
        node = frame.get("node")
        addr = frame.get("addr")
        changed = False
        if self.membership is not None:
            if action == P.MEMBER_LEAVE:
                if isinstance(node, str):
                    changed = self.membership.remove(node)
            elif action in (P.MEMBER_JOIN, P.MEMBER_SYNC):
                if (action == P.MEMBER_JOIN and isinstance(node, str)
                        and isinstance(addr, str)):
                    changed = self.membership.add(node, addr)
                changed = self.membership.merge(
                    frame.get("members") or []) or changed
                # A join that taught us something propagates: push the
                # merged view to everyone so the fabric converges without
                # the joiner having to know every member up front.
                if changed and action == P.MEMBER_JOIN:
                    self._spawn_gossip()
            else:
                await send(P.event_frame(
                    req, P.EV_ERROR,
                    error=f"unknown membership action {action!r}"))
                return
        await send(P.event_frame(
            req, P.EV_MEMBERSHIP, node=self.node_id,
            members=self.membership.view() if self.membership else [],
            version=self.membership.version if self.membership else 0,
            changed=changed, holds=self._holds_results()))

    def _holds_results(self) -> bool:
        """Whether either cache tier holds any result (told to joiners)."""
        return len(self.lru) > 0 or (
            self.cache is not None
            and any(self.cache.cache_dir.glob("*.json")))

    def _peers_may_hold(self) -> bool:
        """Whether a peer may hold a result for a key this node owns.

        A node gains keys only by joining members that already served, or
        when a member is removed; another node's join moves keys away from
        it.  On a ring that formed empty and never lost a member, a copy a
        peer holds was relayed from its owner, whose disk tier keeps it.
        Without a disk tier an LRU eviction can leave that relayed copy as
        the only one, so a node without one always asks.
        """
        m = self.membership
        return bool(m is not None and m.others()) and (
            self.cache is None or self._joined_holders or m.removed > 0)

    # ---------------------------------------------------------------- jobs
    async def _run_job(self, job: Job, timeout_s: Optional[float]) -> None:
        """Execute one fresh job: caches, then peers, then the pool."""
        # On-disk cache first — a completed identical request (from this
        # service or any SweepRunner sweep) answers without a worker.
        entry = self._disk(job.key)
        if answers(entry, self._with_obs):
            job.cached = True
            self.table.stats.cache_hits += 1
            self._complete(job, entry)
            return
        # Peer-fetch before recompute, while a peer may hold a key this
        # node owns — ask the fabric before paying for a worker.  Any
        # failure just reads as a miss.
        if self._peers_may_hold():
            fetched = await self._peer_fetch(job.key)
            if fetched is not None:
                job.cached = True
                job.peer_fetched = True
                self.table.stats.peer_fetch_hits += 1
                self._count("peer_fetch_hits")
                self._complete(job, fetched, store=True)
                return
            self.table.stats.peer_fetch_misses += 1
            self._count("peer_fetch_misses")
        try:
            # Jobs admitted before a drain began still run to completion;
            # drain only blocks new submissions.
            async with self.pool.slots:
                job.state = RUNNING
                job.started_s = time.monotonic()
                job.attempts = 1
                job.publish({"event": P.EV_STATE, "state": RUNNING,
                             "attempt": 1, "job": job.short_key})

                def on_retry(attempt: int, delay_s: float) -> None:
                    job.attempts = attempt + 1
                    self.table.stats.retries += 1
                    job.publish({"event": P.EV_STATE, "state": "retrying",
                                 "attempt": attempt + 1,
                                 "delay_s": round(delay_s, 4),
                                 "job": job.short_key})

                entry = await self.pool.execute(
                    job.task, with_obs=self._with_obs,
                    timeout_s=timeout_s, on_retry=on_retry)
        except JobFailure as exc:
            self._fail(job, FAILED, exc.error)
            return
        except JobTimeout as exc:
            self._fail(job, TIMEOUT, RemoteError(
                type="JobTimeout", message=str(exc), traceback=""))
            return
        except WorkerDied as exc:
            self._fail(job, FAILED, RemoteError(
                type="WorkerDied", message=str(exc), traceback=""))
            return
        except asyncio.CancelledError:
            self.table.finish(job, CANCELLED, time.monotonic())
            job.publish({"event": P.EV_FAILED, "job": job.short_key,
                         "state": CANCELLED,
                         "error": RemoteError(
                             type="Cancelled",
                             message="service shut down before completion",
                             traceback="").as_dict()})
            raise
        self.table.stats.executed += 1
        self._complete(job, entry, store=True)

    async def _peer_fetch(self, key: str) -> Optional[dict]:
        """Ask each other member for ``key``; the first entry that may
        answer wins, else None."""
        for node in self.membership.others():
            addr = self.membership.addr_of(node)
            if addr is None:
                continue
            entry = await self._link(addr).peer_fetch(key)
            if answers(entry, self._with_obs):
                return entry
        return None

    def _disk(self, key: str) -> Optional[dict]:
        """The disk tier's entry for ``key`` (its blob minus the task)."""
        blob = self.cache.load(key) if self.cache is not None else None
        return blob and {"result": blob["result"], "obs": blob["obs"]}

    def _merge_obs(self, entry: dict) -> None:
        """Fold the snapshot of an entry that answers into the registry."""
        if self._with_obs:
            obs.registry().merge_snapshot(entry["obs"])

    def _complete(self, job: Job, entry: dict, store: bool = False) -> None:
        """Record success (``store``: on disk too, the entry is new here)
        and publish the terminal ``done`` event."""
        if store and self.cache is not None:
            self.cache.store(job.key, job.task, entry["result"], self.salt,
                             entry["obs"])
        self.lru.put(job.key, entry)
        self._merge_obs(entry)
        self.table.finish(job, DONE, time.monotonic())
        job.publish({"event": P.EV_DONE, "job": job.short_key,
                     **entry, "cached": job.cached,
                     "attempts": job.attempts,
                     "elapsed_s": round(job.elapsed_s, 6)})

    def _fail(self, job: Job, state: str, error: RemoteError) -> None:
        job.error = error
        self.table.finish(job, state, time.monotonic())
        job.publish({"event": P.EV_FAILED, "job": job.short_key,
                     "state": state, "attempts": job.attempts,
                     "error": error.as_dict()})

    # ---------------------------------------------------------------- HTTP
    async def _serve_http(self, first: bytes, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        """One-shot HTTP/1.1 shim: GET /healthz, /metrics, /jobs."""
        try:
            parts = first.decode("latin-1").split()
            path = parts[1] if len(parts) >= 2 else "/"
        except (IndexError, UnicodeDecodeError):
            path = "/"
        while True:     # drain request headers
            line = await reader.readline()
            if not line or line in (b"\r\n", b"\n"):
                break
        status, body = self._http_body(path)
        payload = json.dumps(body, sort_keys=True).encode()
        writer.write(
            b"HTTP/1.1 " + status + b"\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(len(payload)).encode() + b"\r\n"
            b"Connection: close\r\n\r\n" + payload)
        await writer.drain()

    def _http_body(self, path: str) -> tuple[bytes, Any]:
        if path == "/healthz":
            return b"200 OK", {"ok": True, "draining": self.draining,
                               "depth": self.table.depth}
        if path == "/metrics":
            return b"200 OK", {"status": self.status(),
                               "obs": obs.registry().snapshot()}
        if path == "/jobs":
            return b"200 OK", {"jobs": self.table.listing()}
        return b"404 Not Found", {"error": f"no such path {path!r}",
                                  "paths": ["/healthz", "/metrics", "/jobs"]}
