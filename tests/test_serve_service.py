"""End-to-end tests for the repro.serve service.

Each test starts a real :class:`SimulationServer` on an ephemeral port
inside ``asyncio.run`` and talks to it over real sockets with real worker
processes — the full production path.  Covered here, per the PR acceptance
criteria:

* 50 concurrent requests (with duplicates) through the async client,
  results byte-identical to the equivalent local executions;
* single-flight dedup coalescing identical in-flight requests onto one
  execution;
* shed responses once the admission queue is full;
* SIGTERM draining in-flight jobs (results delivered) before exit;
* worker-side failures surfacing the *original* traceback (the
  deliberately-infeasible-OnocConfig regression), timeouts, and
  worker-death retry exhaustion;
* the shared on-disk cache answering across front ends (SweepRunner
  sweep -> service hit);
* the HTTP shim and the ``repro submit`` CLI.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading

import pytest

from repro import obs
from repro.cli import main
from repro.harness import ResultCache, SweepRunner, encode_value, task
from repro.harness.parallel import _execute_encoded
from repro.serve import (
    AsyncServeClient,
    JobFailed,
    Shed,
    SimulationServer,
)
from repro.serve import protocol as P
from repro.serve.ops import echo, run_scenario_json


def die_op() -> None:
    """Test operation: kill the worker process outright (breaks the pool)."""
    os._exit(23)


def serve_run(body, **server_kw):
    """Run async ``body(server)`` against a fresh in-process server."""

    async def _main():
        server = SimulationServer(port=0, **server_kw)
        await server.start()
        try:
            return await body(server)
        finally:
            await server.aclose()

    return asyncio.run(_main())


def _canon(value) -> str:
    """Canonical JSON spelling of a decoded result, for byte comparison."""
    return json.dumps(encode_value(value), sort_keys=True)


# ------------------------------------------------- concurrency + identity
def test_fifty_concurrent_submits_dedup_and_byte_identical(tmp_path):
    """The acceptance-criteria test: 50 concurrent submits (10 distinct
    payloads x 5 duplicates) through one async client.  Every duplicate
    coalesces onto the in-flight execution, and every result is
    byte-identical to running the same task locally."""
    payloads = [{"i": i, "blob": [i, [i + 1, "x"]]} for i in range(10)]
    sleep_s = 0.05

    async def body(server):
        async with await AsyncServeClient.connect(port=server.port) as c:
            results = await asyncio.gather(*[
                c.submit("echo", payloads[i % 10], sleep_s=sleep_s)
                for i in range(50)])
            status = await c.status()
        return results, status["stats"]

    results, stats = serve_run(body, workers=2, max_pending=64,
                               cache_dir=str(tmp_path))

    # Byte-identical to the equivalent local executions (same codec path
    # the CLI and SweepRunner use).
    local = {}
    for i, payload in enumerate(payloads):
        t = task(echo, payload, sleep_s=sleep_s)
        local[i] = json.dumps(_execute_encoded(t.fn, t.args, t.kwargs, False)["result"],
                              sort_keys=True)
    assert len(results) == 50
    for i, remote in enumerate(results):
        assert _canon(remote) == local[i % 10]

    # Single-flight dedup: 10 executions served all 50 requests.
    assert stats["submitted"] == 10
    assert stats["executed"] == 10
    assert stats["dedup_hits"] == 40
    assert stats["completed"] == 10
    assert stats["shed"] == 0 and stats["failed"] == 0


def test_remote_scenario_matches_local_run():
    """A real simulation op end to end: the service's answer is
    byte-identical to calling the same entry point locally."""
    params = {"workload": "prodcons", "cores": 4, "seed": 1, "scale": 0.1,
              "capture": "electrical", "target": "crossbar"}

    async def body(server):
        async with await AsyncServeClient.connect(port=server.port) as c:
            return await c.submit("scenario_json", params)

    remote = serve_run(body, workers=1)
    assert _canon(remote) == _canon(run_scenario_json(params))
    assert remote.scenario.workload == "prodcons"


def test_cache_shared_with_sweep_runner(tmp_path):
    """A result computed by a batch sweep is a cache hit for the service:
    same content key, same on-disk entry, no worker involved."""
    payload = {"shared": True}
    runner = SweepRunner(workers=1, cache_dir=tmp_path)
    assert runner.run([task(echo, payload)]) == [payload]

    events = []

    async def body(server):
        async with await AsyncServeClient.connect(port=server.port) as c:
            result = await c.submit("echo", payload, quiet=False,
                                    on_event=events.append)
        return result, dict(server.table.stats.as_dict())

    result, stats = serve_run(body, workers=1, cache_dir=str(tmp_path))
    assert result == payload
    assert stats["cache_hits"] == 1
    assert stats["executed"] == 0
    done = [e for e in events if e.get("event") == P.EV_DONE]
    assert done and done[0]["cached"] is True


def test_metrics_on_server_shares_entries_with_metrics_off(tmp_path):
    """One key, one entry, whatever the obs state: a metrics-off server
    populates the cache; a metrics-on server on the same directory finds the
    entry snapshot-less, executes once, overwrites it, and from then on
    every tier answers with the snapshot."""
    ops = {"obs_task": "tests.test_obs:obs_task"}
    t = task("tests.test_obs:obs_task", 6)
    cache = ResultCache(tmp_path)

    async def once(server):
        async with await AsyncServeClient.connect(port=server.port) as c:
            return await c.submit("obs_task", 6)

    assert serve_run(once, workers=1, cache_dir=str(tmp_path),
                     operations=ops) == 36
    assert cache.load(t.cache_key())["obs"] is None

    async def thrice(server):
        async with await AsyncServeClient.connect(port=server.port) as c:
            fresh = await c.submit("obs_task", 6)      # disk: no snapshot
            server.lru.clear()
            disk = await c.submit("obs_task", 6)
            hot = await c.submit("obs_task", 6)
        return [fresh, disk, hot], server.table.stats.as_dict()

    try:
        with obs.collecting() as reg:
            results, stats = serve_run(thrice, workers=1, operations=ops,
                                       cache_dir=str(tmp_path))
            answered = reg.snapshot()["task.calls"]["value"]
    finally:
        obs.reset()
    assert results == [36, 36, 36]
    assert (stats["executed"], stats["cache_hits"], stats["lru_hits"]) == (
        1, 1, 1)
    assert answered == 3                  # each answer merged its snapshot
    assert cache.load(t.cache_key())["obs"]["task.calls"]["value"] == 1
    assert [p.name for p in tmp_path.glob("*.json")] == [
        t.cache_key() + ".json"]


def test_obs_enabled_after_start_keeps_key_and_entry_usable(tmp_path):
    """Enabling obs under a running server changes neither the key it
    stores under nor what its workers return (``_with_obs`` was snapshotted
    in ``start()``): the entry is a plain snapshot-less one, which a
    metrics-on SweepRunner recomputes once and then reuses."""
    payload = {"late": "obs"}
    t = task(echo, payload)

    async def body(server):
        obs.enable(True)
        async with await AsyncServeClient.connect(port=server.port) as c:
            return await c.submit("echo", payload)

    try:
        assert serve_run(body, workers=1, cache_dir=str(tmp_path)) == payload
        assert ResultCache(tmp_path).load(t.cache_key())["obs"] is None
        runner = SweepRunner(workers=1, cache_dir=tmp_path)
        for executed in (1, 0):
            assert runner.run([t]) == [payload]
            assert runner.last_stats.executed == executed
            assert runner.last_metrics == {}
    finally:
        obs.enable(False)
        obs.reset()
    assert [p.name for p in tmp_path.glob("*.json")] == [
        t.cache_key() + ".json"]


# ------------------------------------------------------ admission control
def test_shed_when_queue_full_but_dedup_admitted():
    async def body(server):
        async with await AsyncServeClient.connect(port=server.port) as c:
            slow = [asyncio.ensure_future(c.submit("echo", i, sleep_s=0.5))
                    for i in range(2)]
            while server.table.depth < 2:
                await asyncio.sleep(0.005)

            # A third *distinct* job is shed with an explanatory reason...
            with pytest.raises(Shed) as exc:
                await c.submit("echo", 99)
            assert "queue full" in exc.value.reason
            assert exc.value.depth == 2

            # ...but a duplicate of in-flight work piggybacks for free.
            dup = await c.submit("echo", 0, sleep_s=0.5)
            results = await asyncio.gather(*slow)
            status = await c.status()
        return dup, results, status["stats"]

    dup, results, stats = serve_run(body, workers=1, max_pending=2)
    assert dup == 0 and results == [0, 1]
    assert stats["shed"] == 1
    assert stats["dedup_hits"] == 1
    assert stats["executed"] == 2


# ------------------------------------------------------- failure surfacing
def test_worker_failure_surfaces_original_traceback():
    """Satellite regression: an infeasible OnocConfig fails in the worker
    and the client sees the *original* worker-side traceback, not a bare
    'job failed' status."""

    async def body(server):
        async with await AsyncServeClient.connect(port=server.port) as c:
            with pytest.raises(JobFailed) as exc:
                await c.submit("resolve_config", cores=16, wavelengths=4,
                               topology="awgr")
        return exc.value

    failure = serve_run(body, workers=1)
    assert failure.error.type == "ConfigError"
    assert "awgr needs" in failure.error.message
    msg = str(failure)
    assert "Traceback (most recent call last)" in msg
    assert "ConfigError" in msg and "awgr needs" in msg


def test_job_timeout_abandons_worker():
    async def body(server):
        async with await AsyncServeClient.connect(port=server.port) as c:
            with pytest.raises(JobFailed) as exc:
                await c.submit("echo", 1, sleep_s=2.0, timeout_s=0.25)
            status = await c.status()
        return exc.value, status

    failure, status = serve_run(body, workers=1)
    assert failure.error.type == "JobTimeout"
    assert failure.state == "timeout"
    assert status["stats"]["timeouts"] == 1
    # The lone worker slot was clogged by the straggler, so the pool
    # recycled the executor wholesale.
    assert status["pool"]["recycles"] >= 1


def test_worker_death_retries_then_fails():
    events = []

    async def body(server):
        async with await AsyncServeClient.connect(port=server.port) as c:
            with pytest.raises(JobFailed) as exc:
                await c.submit("die", quiet=False, on_event=events.append)
            status = await c.status()
        return exc.value, status

    failure, status = serve_run(
        body, workers=1, max_retries=2, backoff_base_s=0.01,
        operations={"die": "tests.test_serve_service:die_op"})
    assert failure.error.type == "WorkerDied"
    assert "2 attempts" in failure.error.message
    assert status["stats"]["retries"] == 1
    assert status["stats"]["failed"] == 1
    # The client watched the retry happen live.
    retrying = [e for e in events
                if e.get("event") == P.EV_STATE
                and e.get("state") == "retrying"]
    assert retrying and retrying[0]["attempt"] == 2


# --------------------------------------------------------- graceful drain
def test_sigterm_drains_in_flight_jobs():
    """SIGTERM stops admission immediately but in-flight jobs run to
    completion and their results reach waiting subscribers before the
    server exits."""

    async def body():
        server = SimulationServer(port=0, workers=1)
        await server.start()
        assert server.install_signal_handlers()
        async with await AsyncServeClient.connect(port=server.port) as c:
            pending = asyncio.ensure_future(
                c.submit("echo", "drain-me", sleep_s=0.5))
            while not server.table.active:
                await asyncio.sleep(0.005)

            os.kill(os.getpid(), signal.SIGTERM)
            while not server.draining:
                await asyncio.sleep(0.005)

            # New work is refused the moment draining begins...
            with pytest.raises(Shed) as exc:
                await c.submit("echo", "too-late")
            assert exc.value.reason == "draining"

            # ...but the in-flight job still delivers its result.
            assert await pending == "drain-me"
        await asyncio.wait_for(server.wait_closed(), timeout=10)
        return server

    server = asyncio.run(body())
    assert server.table.stats.completed == 1
    assert server.table.stats.shed == 1
    assert server.table.stats.cancelled == 0


# ------------------------------------------------------ HTTP + wire errors
def test_http_shim_endpoints():
    async def body(server):
        async def get(path):
            r, w = await asyncio.open_connection("127.0.0.1", server.port)
            w.write(f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
            await w.drain()
            raw = await r.read()
            w.close()
            head, _, payload = raw.partition(b"\r\n\r\n")
            return head.split(b"\r\n")[0], json.loads(payload)

        status, health = await get("/healthz")
        assert status == b"HTTP/1.1 200 OK"
        assert health == {"ok": True, "draining": False, "depth": 0}

        _, metrics = await get("/metrics")
        assert metrics["status"]["version"] == P.PROTOCOL_VERSION
        assert "stats" in metrics["status"] and "obs" in metrics

        _, jobs = await get("/jobs")
        assert jobs == {"jobs": []}

        status, err = await get("/nope")
        assert status == b"HTTP/1.1 404 Not Found"
        assert "/healthz" in err["paths"]

    serve_run(body)


def test_http_jobs_reports_abandoned_job_as_terminal_timeout():
    """Regression: a job abandoned at its deadline must show up on the
    ``/jobs`` endpoint in the terminal ``timeout`` state with a typed
    error — not linger as ``running``.  (The worker may still be
    crunching, but the *job* is over; reporting it as running made
    operators wait on work the service had already written off.)"""

    async def body(server):
        async with await AsyncServeClient.connect(port=server.port) as c:
            with pytest.raises(JobFailed) as exc:
                await c.submit("echo", 1, sleep_s=3.0, timeout_s=0.2)
            assert exc.value.state == "timeout"

        r, w = await asyncio.open_connection("127.0.0.1", server.port)
        w.write(b"GET /jobs HTTP/1.1\r\nHost: t\r\n\r\n")
        await w.drain()
        raw = await r.read()
        w.close()
        _, _, payload = raw.partition(b"\r\n\r\n")
        jobs = json.loads(payload)["jobs"]

        assert len(jobs) == 1
        entry = jobs[0]
        assert entry["state"] == "timeout"          # terminal, not running
        assert entry["fn"].endswith("echo")
        assert "JobTimeout" in entry["error"]       # typed, actionable
        assert "0.2" in entry["error"]              # the deadline it blew
        assert entry["elapsed_s"] > 0
        # And the wire-protocol listing agrees with the HTTP shim.
        async with await AsyncServeClient.connect(port=server.port) as c:
            wire = await c.jobs()
        assert [(j["id"], j["state"]) for j in wire] == \
            [(entry["id"], "timeout")]

    serve_run(body, workers=1)


def test_wire_protocol_errors():
    async def body(server):
        # Raw garbage and unknown ops answer with error events — the
        # connection survives both.
        r, w = await asyncio.open_connection("127.0.0.1", server.port)
        w.write(b"certainly not json\n")
        await w.drain()
        ev = json.loads(await r.readline())
        assert ev["event"] == P.EV_ERROR

        w.write(P.encode_frame({"op": "warp", "req": 9}))
        await w.drain()
        ev = json.loads(await r.readline())
        assert ev["event"] == P.EV_ERROR and "unknown op" in ev["error"]
        assert ev["req"] == 9
        w.close()

        async with await AsyncServeClient.connect(port=server.port) as c:
            with pytest.raises(P.ProtocolError, match="unknown operation"):
                await c.submit("not_an_op")
            pong = await c.ping()
            assert pong["version"] == P.PROTOCOL_VERSION
            assert await c.jobs() == []

    serve_run(body)


# ------------------------------------------------------------------- CLI
@pytest.fixture()
def threaded_server():
    """A live server on a background thread, for the blocking CLI client."""
    box: dict = {}
    started = threading.Event()

    def run():
        async def amain():
            server = SimulationServer(port=0, workers=1)
            await server.start()
            box["server"] = server
            box["loop"] = asyncio.get_running_loop()
            started.set()
            await server.wait_closed()

        asyncio.run(amain())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(10), "server thread failed to start"
    yield box["server"]
    box["loop"].call_soon_threadsafe(
        lambda: asyncio.ensure_future(box["server"].aclose()))
    thread.join(timeout=10)


def test_cli_submit_round_trip(threaded_server, capsys):
    port = str(threaded_server.port)
    assert main(["submit", "--port", port, "--ping"]) == 0
    assert json.loads(capsys.readouterr().out)["version"] == \
        P.PROTOCOL_VERSION

    assert main(["submit", "echo", "--params",
                 '{"value": {"x": [1, 2]}}', "--port", port]) == 0
    assert json.loads(capsys.readouterr().out) == {"x": [1, 2]}

    assert main(["submit", "--port", port, "--status"]) == 0
    status = json.loads(capsys.readouterr().out)
    assert status["stats"]["completed"] == 1


def test_cli_submit_reports_worker_traceback(threaded_server, capsys):
    """The CLI regression for satellite 3: a worker-side ConfigError lands
    on stderr with the original traceback, exit code 1."""
    rc = main(["submit", "resolve_config", "--params",
               '{"cores": 16, "wavelengths": 4, "topology": "awgr"}',
               "--port", str(threaded_server.port)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "ConfigError" in err
    assert "awgr needs" in err
    assert "Traceback (most recent call last)" in err
