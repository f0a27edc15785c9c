"""Multi-node fabric tests: an in-process 3-node asyncio cluster.

Every test boots real :class:`SimulationServer` nodes on ephemeral ports
inside one event loop — real sockets, real gossip, real forwarding — and
drives them with real clients.  Pinned here, per the PR acceptance
criteria:

* gossip membership converges from seed peers (a joiner that knows one
  node learns the whole fabric, and the fabric learns it);
* results are byte-identical no matter which node receives the submit
  (forwarding relays the owner's stream verbatim);
* 50 concurrent duplicates entering through *different* nodes coalesce
  onto exactly one execution (cross-node single-flight);
* peer-fetch answers an owner's cache miss from another node's cache
  instead of recomputing, with the hit/miss accounting visible both in
  service stats and the per-node obs counters;
* the hot LRU tier short-circuits repeat submits on any node, including
  the forwarding (non-owner) node, whose LRU is warmed by relayed results.

Chaos (kill/restart/drain under churn) lives in ``test_serve_chaos.py``.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro import obs
from repro.harness import SweepRunner, decode_value, encode_value, task
from repro.harness.parallel import _execute_encoded
from repro.serve import AsyncServeClient, SimulationServer
from repro.serve import protocol as P
from repro.serve.ops import echo

CLUSTER = 3
CONVERGE_TIMEOUT_S = 10.0


async def start_cluster(n: int = CLUSTER, tmp_path=None, **server_kw):
    """Boot ``n`` nodes; each joins through node 0 and gossip does the rest.

    Returns the servers, membership-converged (every node sees all ``n``
    members).  Node ids are ``n0..n{n-1}``; per-node on-disk caches live
    under ``tmp_path/node<i>`` when a tmp_path is given.
    """
    servers: list[SimulationServer] = []
    for i in range(n):
        kw = dict(server_kw)
        if tmp_path is not None and "cache_dir" not in kw:
            kw["cache_dir"] = str(tmp_path / f"node{i}")
        server = SimulationServer(
            port=0, node_id=f"n{i}",
            peers=[f"127.0.0.1:{servers[0].port}"] if servers else [],
            **kw)
        await server.start()
        servers.append(server)
    await converge(servers)
    return servers


async def converge(servers, n: int | None = None,
                   timeout_s: float = CONVERGE_TIMEOUT_S) -> None:
    """Wait until every node's membership holds all ``n`` members."""
    want = n if n is not None else len(servers)

    async def _wait():
        while any(len(s.membership.members) != want for s in servers):
            await asyncio.sleep(0.01)

    try:
        await asyncio.wait_for(_wait(), timeout_s)
    except asyncio.TimeoutError:  # pragma: no cover - diagnostics
        views = {s.node_id: s.membership.view() for s in servers}
        pytest.fail(f"membership failed to converge to {want}: {views}")


async def stop_cluster(servers) -> None:
    for s in servers:
        await s.aclose()


def fabric_run(body, n: int = CLUSTER, tmp_path=None, **server_kw):
    """Run async ``body(servers)`` against a fresh converged cluster."""

    async def _main():
        servers = await start_cluster(n=n, tmp_path=tmp_path,
                                      **server_kw)
        try:
            return await body(servers)
        finally:
            await stop_cluster(servers)

    return asyncio.run(_main())


def _canon(value) -> str:
    return json.dumps(encode_value(value), sort_keys=True)


def _local(payload, **kwargs) -> str:
    t = task(echo, payload, **kwargs)
    return json.dumps(_execute_encoded(t.fn, t.args, t.kwargs, False)["result"],
                      sort_keys=True)


def _key_on(server, payload, **kwargs) -> str:
    """The content key ``server`` computes for an echo submit."""
    t = server._canonical_task({
        "fn": "echo", "args": encode_value((payload,)),
        "kwargs": encode_value(kwargs)})
    return t.cache_key(server.salt)


def payload_owned_by(server, node_id: str, tag: str, **kwargs):
    """An echo payload whose content key the ring places on ``node_id``."""
    for i in range(512):
        payload = {"tag": tag, "i": i}
        if server.membership.owner(_key_on(server, payload,
                                           **kwargs)) == node_id:
            return payload
    raise AssertionError(f"no payload found owned by {node_id}")


# ---------------------------------------------------------- membership
def test_gossip_converges_from_single_seed(tmp_path):
    """n1 and n2 only seed-know n0, yet every node ends up with the full
    member view at the same version-agnostic membership, and status()
    reports it."""

    async def body(servers):
        views = {s.node_id: s.membership.view() for s in servers}
        assert len(set(map(json.dumps, views.values()))) == 1
        assert sorted(n for n, _ in views["n0"]) == ["n0", "n1", "n2"]
        async with await AsyncServeClient.connect(
                port=servers[2].port) as c:
            status = await c.status()
        assert status["node"] == "n2"
        assert sorted(n for n, _ in status["members"]) == ["n0", "n1", "n2"]
        # Placement agreement: every node routes every key identically.
        for i in range(32):
            key = _key_on(servers[0], {"k": i})
            owners = {s.membership.owner(key) for s in servers}
            assert len(owners) == 1

    fabric_run(body, tmp_path=tmp_path, workers=1)


def test_join_retries_seed_that_starts_later(tmp_path):
    """Simultaneous starts race their listeners: a joiner whose seed is
    not accepting yet must keep knocking instead of silently partitioning
    the fabric (the seed never joins anyone, so it would otherwise never
    learn about the joiner)."""

    async def body():
        # Reserve a port for the seed, then release it so the joiner's
        # first announcement targets a dead address.
        import socket
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        seed_port = probe.getsockname()[1]
        probe.close()

        joiner = SimulationServer(
            port=0, node_id="n1", workers=1,
            cache_dir=str(tmp_path / "joiner"),
            peers=[f"127.0.0.1:{seed_port}"])
        await joiner.start()
        seed = None
        try:
            assert sorted(joiner.membership.members) == ["n1"]
            await asyncio.sleep(0.1)        # joiner is up, seed is not
            seed = SimulationServer(
                port=seed_port, node_id="n0", workers=1,
                cache_dir=str(tmp_path / "seed"))
            await seed.start()
            await converge([seed, joiner])
            for s in (seed, joiner):
                assert sorted(s.membership.members) == ["n0", "n1"]
            # The healed fabric routes: a key owned by the seed, entered
            # through the joiner, is forwarded and executed there.
            payload = payload_owned_by(joiner, "n0", "late-seed")
            async with await AsyncServeClient.connect(
                    port=joiner.port) as c:
                assert await c.submit("echo", payload) == payload
            assert joiner.table.stats.forwarded == 1
            assert seed.table.stats.executed == 1
        finally:
            if seed is not None:
                await seed.aclose()
            await joiner.aclose()

    asyncio.run(body())


# -------------------------------------------- byte-identity of routing
def test_results_byte_identical_regardless_of_entry_node(tmp_path):
    """The same submit through each of the 3 nodes returns byte-identical
    results — identical to the local execution — while only one node ever
    executes (the other entries forward or hit a warmed cache)."""
    payloads = [{"route": r} for r in range(6)]

    async def body(servers):
        clients = [await AsyncServeClient.connect(port=s.port)
                   for s in servers]
        try:
            results = {}
            for p_idx, payload in enumerate(payloads):
                for c_idx, c in enumerate(clients):
                    results[(p_idx, c_idx)] = await c.submit("echo", payload)
            stats = [dict(s.table.stats.as_dict()) for s in servers]
        finally:
            for c in clients:
                await c.close()
        return results, stats

    results, stats = fabric_run(body, tmp_path=tmp_path, workers=1)

    for p_idx, payload in enumerate(payloads):
        local = _local(payload)
        for c_idx in range(CLUSTER):
            assert _canon(results[(p_idx, c_idx)]) == local

    # One execution per distinct payload across the whole fabric; the
    # other 12 entries were forwards, LRU hits, or cache hits.
    assert sum(s["executed"] for s in stats) == len(payloads)
    assert sum(s["forwarded"] for s in stats) >= 1
    assert sum(s["failed"] for s in stats) == 0


def test_forwarded_stream_is_tagged_via(tmp_path):
    """A forwarded submit's events reach the client tagged with the
    forwarding node (via), proving the stream really was relayed."""

    async def body(servers):
        entry = servers[1]
        payload = payload_owned_by(entry, "n0", "via-test")
        assert entry.membership.owner(_key_on(entry, payload)) == "n0"
        events = []
        async with await AsyncServeClient.connect(port=entry.port) as c:
            result = await c.submit("echo", payload, quiet=False,
                                    on_event=events.append)
        assert result == payload
        assert events and all(e.get("via") == "n1" for e in events)
        assert servers[1].table.stats.forwarded == 1
        assert servers[0].table.stats.executed == 1

    fabric_run(body, tmp_path=tmp_path, workers=1)


# ------------------------------------------------ cross-node dedup
def test_fifty_cross_node_duplicates_execute_once(tmp_path):
    """50 concurrent duplicates of one payload, fanned across all three
    nodes' clients, coalesce onto a single execution: non-owners forward,
    the owner's job table absorbs every arrival in flight."""
    payload = {"dedup": "everywhere"}
    sleep_s = 0.4

    async def body(servers):
        clients = [await AsyncServeClient.connect(port=s.port)
                   for s in servers]
        try:
            results = await asyncio.gather(*[
                clients[i % CLUSTER].submit("echo", payload,
                                            sleep_s=sleep_s)
                for i in range(50)])
            stats = [dict(s.table.stats.as_dict()) for s in servers]
        finally:
            for c in clients:
                await c.close()
        return results, stats

    results, stats = fabric_run(body, tmp_path=tmp_path, workers=2,
                                max_pending=64)

    local = _local(payload, sleep_s=sleep_s)
    assert len(results) == 50
    assert all(_canon(r) == local for r in results)

    total = {k: sum(s[k] for s in stats) for k in stats[0]}
    # Exactly one execution fabric-wide; every other arrival was absorbed
    # without a worker — coalesced in flight (dedup), or answered by a
    # cache tier if it raced past completion.  Every submit is accounted
    # for as exactly one of: job creation, dedup hit, or LRU hit; and
    # every created job resolved without recomputing.
    assert total["executed"] == 1
    assert total["submitted"] + total["dedup_hits"] + total["lru_hits"] == 50
    assert (total["executed"] + total["cache_hits"]
            + total["peer_fetch_hits"]) == total["submitted"]
    assert total["dedup_hits"] >= 1
    assert total["shed"] == 0 and total["failed"] == 0


# ------------------------------------------------- two-tier + peer-fetch
def test_lru_warms_on_forwarding_node(tmp_path):
    """After a forwarded submit completes, the *forwarding* node answers a
    repeat from its hot LRU — no second forward, no execution anywhere."""

    async def body(servers):
        entry = servers[2]
        payload = payload_owned_by(entry, "n0", "lru-warm")
        async with await AsyncServeClient.connect(port=entry.port) as c:
            first = await c.submit("echo", payload)
            forwarded = entry.table.stats.forwarded
            second = await c.submit("echo", payload)
        assert _canon(first) == _canon(second) == _local(payload)
        assert entry.table.stats.forwarded == forwarded  # no re-forward
        assert entry.table.stats.lru_hits == 1
        assert sum(s.table.stats.executed for s in servers) == 1

    fabric_run(body, tmp_path=tmp_path, workers=1)


def test_peer_fetch_hit_vs_recompute_accounting(tmp_path):
    """A node that becomes owner of a key another node already computed
    answers by peer-fetch, not recompute; a genuinely novel key is a
    peer-fetch miss and executes.  Both paths are visible in the service
    stats and the per-node obs counters (serve.<node>.peer_fetch_*)."""
    obs.enable(True)
    obs.reset()
    try:
        async def body():
            # Stage 1: a lone node computes some payloads.
            first = SimulationServer(port=0, node_id="n0", workers=1,
                                     cache_dir=str(tmp_path / "node0"))
            await first.start()
            payloads = [{"pf": i} for i in range(24)]
            async with await AsyncServeClient.connect(
                    port=first.port) as c:
                for p in payloads:
                    await c.submit("echo", p)
            assert first.table.stats.executed == len(payloads)
            # Evict n0's hot tier so the later fetch exercises the disk
            # tier on the answering side too.
            first.lru.clear()

            # Stage 2: a second node joins; it now owns some of those keys.
            second = SimulationServer(
                port=0, node_id="n1", workers=1,
                cache_dir=str(tmp_path / "node1"),
                peers=[f"127.0.0.1:{first.port}"])
            await second.start()
            await converge([first, second])
            try:
                owned = [p for p in payloads
                         if second.membership.owner(
                             _key_on(second, p)) == "n1"]
                assert owned, "ring placed nothing on the joiner"
                hit_payload = owned[0]
                miss_payload = payload_owned_by(second, "n1", "novel")

                async with await AsyncServeClient.connect(
                        port=second.port) as c:
                    fetched = await c.submit("echo", hit_payload)
                    fresh = await c.submit("echo", miss_payload)
                assert fetched == hit_payload and fresh == miss_payload

                stats = second.table.stats
                assert stats.peer_fetch_hits == 1
                assert stats.peer_fetch_misses == 1
                assert stats.executed == 1          # only the novel key
                # The peer-fetched result was re-homed into both of the
                # owner's tiers.
                key = _key_on(second, hit_payload)
                assert second.cache.load(key) is not None
                assert second.lru.get(key) is not None

                snap = obs.registry().snapshot()
                assert snap["serve.n1.peer_fetch_hits"]["value"] == 1
                assert snap["serve.n1.peer_fetch_misses"]["value"] == 1
                # The answering node registered its own counters but never
                # fetched anything itself.
                assert snap["serve.n0.peer_fetch_hits"]["value"] == 0
            finally:
                await second.aclose()
                await first.aclose()

        asyncio.run(body())
    finally:
        obs.enable(False)
        obs.reset()


def test_obs_counters_per_node_forward_and_lru(tmp_path):
    """The per-node obs counters (forwarded, lru_hits) attribute fabric
    traffic to the node that did the work, named serve.<node_id>.*."""
    obs.enable(True)
    obs.reset()
    try:
        async def body(servers):
            entry = servers[1]
            payload = payload_owned_by(entry, "n2", "obs-fwd")
            async with await AsyncServeClient.connect(
                    port=entry.port) as c:
                await c.submit("echo", payload)
                await c.submit("echo", payload)     # hot LRU repeat
            snap = obs.registry().snapshot()
            assert snap["serve.n1.forwarded"]["value"] == 1
            assert snap["serve.n1.lru_hits"]["value"] == 1
            assert snap["serve.n2.forwarded"]["value"] == 0
            assert snap["serve.n0.lru_hits"]["value"] == 0

        fabric_run(body, tmp_path=tmp_path, workers=1)
    finally:
        obs.enable(False)
        obs.reset()


def test_result_obs_shaped_payload_round_trips_on_every_tier(tmp_path):
    """A payload that is itself ``{"result": ..., "obs": ...}`` is data, not
    an instrumentation wrapper: under metrics it comes back intact from a
    SweepRunner (fresh and cached) and from every serve tier — executed,
    the forwarding node's LRU, the owner's LRU, disk, and a peer fetch."""
    payload = {"result": 1, "obs": 2}
    obs.enable(True)
    obs.reset()
    try:
        runner = SweepRunner(workers=1, cache_dir=tmp_path / "sweep")
        assert runner.run([task(echo, payload)]) == [payload]
        assert runner.run([task(echo, payload)]) == [payload]
        assert runner.last_stats.cached == 1

        async def body(servers):
            key = _key_on(servers[0], payload)
            by_id = {s.node_id: s for s in servers}
            owner = by_id.pop(servers[0].membership.owner(key))
            entry, third = by_id.values()

            async def ask(c):   # a mis-parsed payload must fail, not hang
                return await asyncio.wait_for(c.submit("echo", payload), 20)

            got = []
            async with await AsyncServeClient.connect(port=entry.port) as c:
                got.append(await ask(c))            # executed on the owner
                got.append(await ask(c))            # the forwarder's LRU
            async with await AsyncServeClient.connect(port=owner.port) as c:
                got.append(await ask(c))            # the owner's LRU
                owner.lru.clear()
                got.append(await ask(c))            # disk
            fetched = await third._peer_fetch(key)
            got.append(decode_value(fetched["result"]))
            assert fetched["obs"] is not None
            assert (entry.table.stats.lru_hits, owner.table.stats.lru_hits,
                    owner.table.stats.cache_hits) == (1, 1, 1)
            assert sum(s.table.stats.executed for s in servers) == 1
            return got

        assert fabric_run(body, tmp_path=tmp_path, workers=1) == [payload] * 5
    finally:
        obs.enable(False)
        obs.reset()


def test_single_node_fabric_is_plain_server(tmp_path):
    """A fabric of one (no peers) behaves exactly like the pre-fabric
    server: no forwards, no peer fetches, same byte-identical results."""

    async def body(servers):
        (server,) = servers
        payload = {"solo": True}
        async with await AsyncServeClient.connect(port=server.port) as c:
            first = await c.submit("echo", payload)
            second = await c.submit("echo", payload)
        assert _canon(first) == _canon(second) == _local(payload)
        stats = server.table.stats
        assert stats.executed == 1 and stats.lru_hits == 1
        assert stats.forwarded == 0
        assert stats.peer_fetch_hits == 0 and stats.peer_fetch_misses == 0
        assert server.membership.view() == [
            ["n0", f"127.0.0.1:{server.port}"]]

    fabric_run(body, n=1, tmp_path=tmp_path, workers=1)
