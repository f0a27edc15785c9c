"""The serve node's warm-hit path and the one-walk canonical form.

An LRU hit is answered where its submit is read: one canonical walk, one
hash, one lookup and one write of two frames, the ``done`` frame carrying
the JSON text the LRU stored when it measured the entry.  These tests pin
that the frames decode to exactly what the generic path would send, that
the checks in front of the lookup (drain, metrics) still decide, and that
the walk gives the codec's own canonical form, so content keys never move.
"""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.harness import parallel
from repro.harness.parallel import (
    SweepTask,
    _canonical,
    decode_value,
    encode_value,
    task,
)
from repro.serve import protocol as P
from repro.serve import server as server_module
from repro.serve.lru import LRUCache
from repro.serve.ops import echo
from repro.serve.server import SimulationServer

#: A result with non-ASCII text and floats; the marker finds it in spies.
MARKER = "résumé-µs-✓"
RESULT = {"name": MARKER, "values": [0.1, 1e-300, -2.5, 3.0],
          "pair": (1.25, "ß")}
SNAPSHOT = {"task.calls": {"kind": "counter", "value": 1}}


def _run(body, **server_kw):
    """Run async ``body(server)`` against a fresh in-process server."""

    async def main():
        server = SimulationServer(port=0, **server_kw)
        await server.start()
        try:
            return await body(server)
        finally:
            await server.aclose()

    return asyncio.run(main())


async def _exchange(server, frames, n_replies):
    """Send raw submit frames on one connection; read ``n_replies``."""
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    try:
        for frame in frames:
            writer.write(P.encode_frame(frame))
        await writer.drain()
        return [P.decode_frame(await reader.readline())
                for _ in range(n_replies)]
    finally:
        writer.close()
        await writer.wait_closed()


def _submit(req, value, **kw):
    t = task(echo, value, **kw)
    return P.submit_frame(req, "echo", t.args, t.kwargs), t.cache_key()


# ------------------------------------------------------------ hit frames
@pytest.mark.parametrize("snapshot", [None, SNAPSHOT])
def test_hit_frames_decode_to_the_generic_frames(snapshot):
    frame, key = _submit(7, "hit")
    entry = {"result": encode_value(RESULT), "obs": snapshot}

    async def body(server):
        server.lru.put(key, entry)
        return await _exchange(server, [frame], 2)

    accepted, done = _run(body, workers=1)
    assert accepted == P.event_frame(7, P.EV_ACCEPTED, job=key[:12],
                                     deduped=False, depth=0, tier="lru")
    generic = P.event_frame(7, P.EV_DONE, job=key[:12], **entry, cached=True,
                            attempts=0, elapsed_s=0.0)
    assert done == json.loads(P.encode_frame(generic))
    assert decode_value(done["result"]) == RESULT


@pytest.mark.parametrize("obj", [{}, {"result": encode_value(RESULT),
                                    "obs": SNAPSHOT}])
def test_event_with_stored_text_decodes_to_the_event_frame(obj):
    got = P.encode_event_with(4, P.EV_DONE, P.dumps(obj), job="j",
                              cached=True)
    assert P.decode_frame(got) == P.event_frame(4, P.EV_DONE, job="j",
                                                cached=True, **obj)


def test_lru_text_follows_the_frame_rules():
    lru = LRUCache()
    with pytest.raises(TypeError):      # a frame would refuse it too
        lru.put("k", {"result": object(), "obs": None})
    assert len(lru) == 0


def test_draining_server_sheds_a_key_the_lru_holds():
    frame, key = _submit(3, "hit")

    async def body(server):
        server.lru.put(key, {"result": "r", "obs": None})
        server.draining = True
        replies = await _exchange(server, [frame], 1)
        return replies, server.table.stats.as_dict(), server.lru.stats.hits

    [shed], stats, lru_reads = _run(body, workers=1)
    assert shed == P.event_frame(3, P.EV_SHED, reason="draining", depth=0)
    assert stats["shed"] == 1 and stats["lru_hits"] == 0 and lru_reads == 0


def test_metrics_on_server_runs_past_a_snapshotless_entry():
    frame, key = _submit(5, "fresh")

    async def body(server):
        server.lru.put(key, {"result": "stale", "obs": None})
        replies = await _exchange(server, [frame], 3)
        return replies, server.table.stats.as_dict()

    try:
        with obs.collecting():
            replies, stats = _run(body, workers=1)
    finally:
        obs.reset()
    accepted, running, done = replies
    assert "tier" not in accepted and running["state"] == "running"
    assert done["result"] == "fresh" and done["obs"] is not None
    assert done["cached"] is False
    assert (stats["executed"], stats["lru_hits"]) == (1, 0)


def test_hit_is_answered_while_an_earlier_submit_runs():
    slow, _ = _submit(1, "slow", sleep_s=1.5)
    hot, hot_key = _submit(2, "hot")

    async def body(server):
        server.lru.put(hot_key, {"result": "hot", "obs": None})
        return await _exchange(server, [slow, hot], 5)

    replies = _run(body, workers=1)
    order = [(r["req"], r["event"]) for r in replies]
    assert order.index((2, P.EV_DONE)) < order.index((1, P.EV_DONE))
    assert order[-1] == (1, P.EV_DONE)


def test_hit_encodes_nothing_of_the_result(monkeypatch):
    frame, key = _submit(9, "hit")
    seen: list[str] = []

    def spy(fn):
        def wrapped(obj, *a, **kw):
            seen.append(repr(obj))
            return fn(obj, *a, **kw)
        return wrapped

    async def body(server):
        server.lru.put(key, {"result": encode_value(RESULT), "obs": None})
        monkeypatch.setattr(json, "dumps", spy(json.dumps))
        for module in (parallel, server_module):
            monkeypatch.setattr(module, "encode_value",
                                spy(module.encode_value))
        replies = await _exchange(server, [frame], 2)
        monkeypatch.undo()
        return replies

    _, done = _run(body, workers=1)
    assert decode_value(done["result"]) == RESULT
    assert seen and not [s for s in seen if MARKER in s]


# --------------------------------------------------------- canonical walk
_leaf = st.one_of(st.none(), st.booleans(), st.integers(),
                  st.floats(allow_nan=False), st.text(max_size=4))
_key = st.one_of(st.text(max_size=3), st.integers(-3, 3),
                 st.tuples(st.integers(0, 2), st.text(max_size=2)),
                 st.just("$"))
_values = st.recursive(
    _leaf,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_key, inner, max_size=3)),
    max_leaves=12)


def _dataclass_payloads():
    """``dc`` payloads sent with default fields left out."""
    from repro.config import ExperimentConfig

    scenario = {"workload": "fft", "cores": 16, "seed": 3, "scale": 0.25,
                "capture": "electrical", "target": "crossbar"}
    return st.sampled_from([
        {"$": "dc", "t": "repro.config:ExperimentConfig", "v": {}},
        {"$": "dc", "t": "repro.config:ExperimentConfig", "v": {"seed": 9}},
        encode_value(ExperimentConfig(seed=5)),
        {"$": "dc", "t": "repro.validate.scenario:Scenario", "v": scenario},
        {"$": "dc", "t": "repro.validate.scenario:Scenario",
         "v": {**scenario, "faults": []}},
    ])


#: Wire payloads that are not the codec's own output.
_raw = st.recursive(
    st.one_of(_leaf, st.just({"$": None}), _dataclass_payloads()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
        st.lists(inner, max_size=3).map(lambda v: {"$": "tuple", "v": v}),
        st.lists(st.tuples(st.text(max_size=3), inner), max_size=3).map(
            lambda kv: {"$": "dict", "v": [list(p) for p in kv]})),
    max_leaves=10)

_payloads = st.one_of(_values.map(encode_value), _raw)


def _outcome(fn, x):
    try:
        return fn(x)
    except Exception as exc:        # the same refusal, type and text
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(_payloads)
def test_canonical_walk_is_the_codec_round_trip(x):
    assert _canonical(x) == encode_value(decode_value(x))
    assert json.dumps(_canonical(x), sort_keys=True) == json.dumps(
        encode_value(decode_value(x)), sort_keys=True)


@pytest.mark.parametrize("x", [
    {"$": None},
    {"$": "dict", "v": [["a", 1], ["b", {"$": None}]]},
    {"$": "dict", "v": [[1, "int"], [True, "bool"]]},
    {"$": "tuple", "v": [{"$": "tuple", "v": [[{"$": "tuple", "v": []}]]}]},
    [{"$": "tuple", "v": [1, 2]}, {"$": "tuple", "v": ["x"]}],
    {"$": "bogus", "v": []},
    {"$": "dict", "v": [[[1], 2]]},
    {"$": "dc", "t": "repro.config:ExperimentConfig", "v": {"seed": -1}},
])
def test_canonical_walk_edge_payloads(x):
    assert _outcome(_canonical, x) == _outcome(
        lambda y: encode_value(decode_value(y)), x)


def _parent_task(ref, frame) -> SweepTask:
    """The decode -> encode round trip the serve node used to run."""
    args = decode_value(frame.get("args") or [])
    kwargs = decode_value(frame.get("kwargs") or {})
    return SweepTask(fn=ref, args=encode_value(tuple(args)),
                     kwargs=encode_value(dict(kwargs)))


_kwargs = st.one_of(
    st.dictionaries(st.text(max_size=3), _payloads, max_size=3),
    st.lists(st.tuples(st.text(max_size=3), _payloads), max_size=3).map(
        lambda kv: {"$": "dict", "v": [list(p) for p in kv]}))
_args = st.one_of(
    st.lists(_payloads, max_size=3),                            # plain list
    st.lists(_payloads, max_size=3).map(encode_value).map(      # tagged
        lambda v: {"$": "tuple", "v": v}),
    st.dictionaries(st.text(max_size=3), _payloads, max_size=3))  # object


@settings(max_examples=200, deadline=None)
@given(_args, _kwargs)
def test_server_canonical_task_is_the_round_trip(args, kwargs):
    server = SimulationServer(port=0)
    frame = {"fn": "echo", "args": args, "kwargs": kwargs}
    got = _outcome(server._canonical_task, frame)
    want = _outcome(lambda f: _parent_task("repro.serve.ops:echo", f), frame)
    assert got == want
    if isinstance(got, SweepTask):
        assert got.cache_key() == want.cache_key()
