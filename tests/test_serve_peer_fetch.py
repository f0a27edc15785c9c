"""When a peer can hold a key this node owns, and when peer-fetch asks.

A cold job asks every peer for its key before it pays for a worker, but
that round trip can only pay off if some peer holds a result for a key
this node owns.  These tests establish when that is possible while the
owner's ring is unchanged:

* **forwarded results** — a non-owner keeps the owner's answer in its
  LRU, but the owner stored the same entry in its own tiers, and its disk
  tier keeps it; so on a ring that formed empty, every copy a peer holds
  is on its owner's disk (per-node and shared cache directories alike);
* **no disk tier** — an LRU eviction on the owner can leave a relayed copy
  as the only one, so a node without a disk tier always asks;
* **degraded placement** — a node that could not reach the owner drops
  it and runs the job itself.  The owner's ring did not move, so it
  recomputes that key if asked (the same answer; a removal is what opens
  peer-fetch, and it happened on the other node).

The join case (a node joining members that already served asks them) is
``tests/test_serve_fabric.py::test_peer_fetch_hit_vs_recompute_accounting``.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.serve import AsyncServeClient
from tests.test_serve_fabric import (
    _key_on,
    payload_owned_by,
    start_cluster,
    stop_cluster,
)


def _total(servers, field: str) -> int:
    return sum(getattr(s.table.stats, field) for s in servers)


def _held(server) -> set[str]:
    """Every key either tier of ``server`` holds."""
    disk = ({p.stem for p in server.cache.cache_dir.glob("*.json")}
            if server.cache is not None else set())
    return set(server.lru._entries) | disk


@pytest.mark.parametrize("layout", ["per_node", "shared"])
def test_static_ring_every_peer_copy_is_on_its_owners_disk(tmp_path, layout):
    kw = {"cache_dir": str(tmp_path / "shared")} if layout == "shared" else {}

    async def body():
        servers = await start_cluster(tmp_path=tmp_path, workers=1, **kw)
        try:
            versions = [s.membership.version for s in servers]
            payloads = [{"static": i} for i in range(24)]
            # Every payload enters through every node: forwarded answers
            # land in the non-owners' LRUs.
            for s in servers:
                async with await AsyncServeClient.connect(port=s.port) as c:
                    for p in payloads:
                        assert await c.submit("echo", p) == p
            assert [s.membership.version for s in servers] == versions
            by_id = {s.node_id: s for s in servers}
            copies = 0
            for peer in servers:
                for key in _held(peer):
                    owner = by_id[peer.membership.owner(key)]
                    assert owner._disk(key) is not None, (peer.node_id, key)
                    copies += owner is not peer
            assert copies > 0           # relayed copies really exist
            assert _total(servers, "executed") == len(payloads)
            assert _total(servers, "peer_fetch_hits") == 0
            assert _total(servers, "peer_fetch_misses") == 0
        finally:
            await stop_cluster(servers)

    asyncio.run(body())


def test_without_a_disk_tier_a_relayed_copy_can_outlive_the_owners():
    async def body():
        servers = await start_cluster(n=2, workers=1, lru_entries=1)
        owner, other = servers
        try:
            first = payload_owned_by(owner, "n0", "first")
            second = payload_owned_by(owner, "n0", "second")
            async with await AsyncServeClient.connect(port=other.port) as c:
                await c.submit("echo", first)     # relayed copy on n1
            async with await AsyncServeClient.connect(port=owner.port) as c:
                await c.submit("echo", second)    # evicts n0's copy
                assert owner.lru.get(_key_on(owner, first)) is None
                assert await c.submit("echo", first) == first
            assert owner.table.stats.peer_fetch_hits == 1
            assert owner.table.stats.executed == 2
        finally:
            await stop_cluster(servers)

    asyncio.run(body())


def test_degraded_placement_leaves_a_copy_its_owner_recomputes(tmp_path):
    async def body():
        servers = await start_cluster(tmp_path=tmp_path, workers=1)
        owner, stray, _ = servers
        try:
            payload = payload_owned_by(owner, "n0", "degraded")
            key = _key_on(owner, payload)
            for s in servers:       # let the join's gossip settle first
                await asyncio.gather(*s._gossip_tasks)
            version = owner.membership.version
            # What failure detection does when a forward to n0 fails.
            assert stray.membership.remove("n0")
            assert stray.membership.owner(key) != "n0"
            async with await AsyncServeClient.connect(port=stray.port) as c:
                assert await c.submit("echo", payload) == payload
            held = [s for s in servers if s._disk(key) is not None]
            assert held and owner not in held
            # The removal opened peer-fetch on the node that lost a member;
            # the owner's ring never moved, so it does not ask.
            assert stray._peers_may_hold() and not owner._peers_may_hold()
            assert owner.membership.version == version
            async with await AsyncServeClient.connect(port=owner.port) as c:
                assert await c.submit("echo", payload) == payload
            assert owner.table.stats.executed == 1
            assert owner.table.stats.peer_fetch_misses == 0
        finally:
            await stop_cluster(servers)

    asyncio.run(body())
