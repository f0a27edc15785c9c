"""Tests for the ``repro.obs`` instrumentation layer.

Covers the ISSUE.md checklist: registry merge associativity, timeline
ring-buffer wraparound, the disabled path staying a strict no-op, kernel
probe accounting, deterministic sweep-runner metric merging (worker-count
independent), and the obs-aware cache salt.

``obs_task`` lives at module level so worker processes can resolve it by
dotted reference (``tests.test_obs:obs_task``), like the real drivers.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro import obs
from repro.engine import Simulator
from repro.harness import SweepRunner, task
from repro.obs.registry import NULL_SCOPE, Registry, Scope, format_value
from repro.obs.timeline import Timeline


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Obs state is process-global; start and leave every test pristine."""
    obs.disable()
    obs.disable_timeline()
    obs.registry().clear()
    yield
    obs.disable()
    obs.disable_timeline()
    obs.registry().clear()


# ------------------------------------------------- module-level task fns
def obs_task(n: int) -> int:
    """Sweep task that records metrics (when enabled) and returns n*n."""
    m = obs.metrics("task")
    m.counter("calls").inc()
    m.counter("n_total").inc(n)
    m.gauge("n_max").set_max(n)
    m.distribution("n").observe(float(n))
    return n * n


def marker_task(x: int, marker_dir: str) -> int:
    """Side-effecting task: proves (non-)execution via marker files."""
    d = pathlib.Path(marker_dir)
    d.mkdir(parents=True, exist_ok=True)
    (d / f"ran_{x}_{len(list(d.iterdir()))}").touch()
    obs.metrics("marker").counter("runs").inc()
    return x + 1


# ---------------------------------------------------------------- registry
def test_registry_counter_gauge_distribution():
    reg = Registry()
    c = reg.counter("hits")
    c.inc()
    c.inc(4)
    g = reg.gauge("depth")
    g.set(3.0)
    g.set_max(7.0)
    g.set_max(2.0)
    d = reg.distribution("lat")
    for v in (1.0, 2.0, 3.0):
        d.observe(v)
    snap = reg.snapshot()
    assert snap["hits"]["value"] == 5
    assert snap["depth"]["value"] == 7.0
    assert snap["lat"]["count"] == 3
    assert snap["lat"]["total"] == pytest.approx(6.0)
    assert snap["lat"]["min"] == 1.0 and snap["lat"]["max"] == 3.0
    # Same name + same kind is the same object; a kind clash is an error.
    assert reg.counter("hits") is c
    with pytest.raises(TypeError):
        reg.gauge("hits")
    with pytest.raises(TypeError):
        reg.distribution("depth")


def test_scope_prefixes_names():
    reg = Registry()
    scope = Scope(reg, "net.mesh")
    scope.counter("injected").inc(2)
    assert reg.snapshot()["net.mesh.injected"]["value"] == 2


def test_format_value_is_one_line():
    reg = Registry()
    reg.counter("c").inc(3)
    reg.gauge("g").set_max(1.5)
    d = reg.distribution("d")
    d.observe(2.0)
    for entry in reg.snapshot().values():
        text = format_value(entry)
        assert "\n" not in text and text


def _filled(seed_values):
    reg = Registry()
    for v in seed_values:
        reg.counter("c").inc(v)
        reg.gauge("g").set_max(float(v))
        reg.distribution("d").observe(float(v))
    return reg.snapshot()


def _merge(*snaps):
    reg = Registry()
    for s in snaps:
        reg.merge_snapshot(s)
    return reg.snapshot()


def test_merge_snapshot_is_associative():
    a = _filled([1, 2])
    b = _filled([30, 4])
    c = _filled([5, 600])
    left = _merge(_merge(a, b), c)
    right = _merge(a, _merge(b, c))
    # Counters, gauges, and the integer distribution fields are exact.
    assert left["c"] == right["c"]
    assert left["g"] == right["g"]
    for field in ("count", "min", "max"):
        assert left["d"][field] == right["d"][field]
    # Mean/m2 are float-associative only up to rounding.
    assert left["d"]["mean"] == pytest.approx(right["d"]["mean"])
    assert left["d"]["m2"] == pytest.approx(right["d"]["m2"])
    assert left["d"]["total"] == pytest.approx(right["d"]["total"])


def test_merge_with_empty_is_identity():
    a = _filled([7, 8, 9])
    assert _merge(a, Registry().snapshot()) == a
    assert _merge(Registry().snapshot(), a) == a


def test_registry_from_snapshot_roundtrip():
    a = _filled([3, 1, 4, 1, 5])
    json.dumps(a)  # snapshots must be pure JSON
    assert Registry.from_snapshot(a).snapshot() == a


# ---------------------------------------------------------------- timeline
def test_timeline_ring_wraparound():
    tl = Timeline(capacity=4)
    for i in range(6):
        tl.record(10 * i, f"e{i}", "tick")
    assert tl.recorded == 6
    assert tl.dropped == 2
    events = tl.events()
    assert len(events) == 4
    # Oldest two overwritten; survivors in insertion order.
    assert [e[0] for e in events] == [20, 30, 40, 50]
    assert [e[1] for e in events] == ["e2", "e3", "e4", "e5"]


def test_timeline_no_wrap_keeps_order():
    tl = Timeline(capacity=8)
    for i in range(3):
        tl.record(i, "x", f"k{i}")
    assert tl.dropped == 0
    assert [e[2] for e in tl.events()] == ["k0", "k1", "k2"]


def test_timeline_chrome_trace_structure():
    tl = Timeline(capacity=16)
    tl.record(5, "node0", "inject")
    tl.record(9, "node1", "deliver")
    doc = tl.to_chrome_trace()
    json.dumps(doc)
    events = doc["traceEvents"]
    metas = [e for e in events if e["ph"] == "M"]
    instants = [e for e in events if e["ph"] == "i"]
    assert {m["args"]["name"] for m in metas} == {"node0", "node1"}
    assert [e["ts"] for e in instants] == [5, 9]
    assert {e["name"] for e in instants} == {"inject", "deliver"}


def test_timeline_write_chrome_trace(tmp_path):
    tl = Timeline(capacity=4)
    tl.record(1, "a", "x")
    out = tmp_path / "trace.json"
    tl.write_chrome_trace(out)
    assert json.loads(out.read_text())["traceEvents"]


# ----------------------------------------------------------- disabled path
def test_disabled_path_is_noop():
    assert not obs.enabled()
    scope = obs.metrics("anything")
    assert scope is NULL_SCOPE
    # All null-metric operations are accepted and record nothing.
    scope.counter("c").inc(5)
    scope.gauge("g").set_max(1.0)
    scope.distribution("d").observe(2.0)
    assert obs.registry().snapshot() == {}
    assert obs.timeline() is None


def test_disabled_probes_are_none():
    assert not obs.enabled()
    sim = Simulator()
    assert obs.attach_kernel_probe(sim) is None
    assert sim.probe is None
    assert obs.net_probe("mesh") is None
    assert obs.replay_scope("self-correcting") is None


def test_collecting_restores_ambient_state():
    assert not obs.enabled()
    with obs.collecting(capacity=8) as reg:
        assert obs.enabled()
        assert obs.timeline() is not None
        obs.metrics("x").counter("c").inc()
        assert reg.snapshot()["x.c"]["value"] == 1
    assert not obs.enabled()
    assert obs.timeline() is None
    assert obs.registry().snapshot() == {}


# ------------------------------------------------------------ kernel probe
def _boom():
    raise RuntimeError("boom")


def test_kernel_probe_records_each_run_once():
    """One ``record_run`` per ``run()`` — on drain, on an early ``until``
    exit, and when a callback raises."""
    with obs.collecting() as reg:
        sim = Simulator()
        probe = obs.attach_kernel_probe(sim)
        assert probe is not None
        hits = []
        for t in range(10):
            sim.schedule(t, hits.append, (t,))
        sim.schedule(20, _boom)
        sim.schedule(30, hits.append, (30,))

        sim.run(until=4)  # early exit: t=0..4 fired
        assert (probe.runs, probe.events_fired, probe.cycles) == (1, 5, 4)
        assert probe.heap_high_water == 12
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()  # t=5..9, then the raising t=20
        assert (probe.runs, probe.events_fired, probe.cycles) == (2, 11, 20)
        sim.run()  # drain: t=30
        assert (probe.runs, probe.events_fired, probe.cycles) == (3, 12, 30)
        sim.run()  # an empty run is still a run
        assert (probe.runs, probe.events_fired, probe.cycles) == (4, 12, 30)
        snap = reg.snapshot()
    assert hits == [*range(10), 30]
    assert snap["kernel.events_fired"]["value"] == sim.event_count == 12
    assert snap["kernel.cycles"]["value"] == sim.now == 30
    assert snap["kernel.heap_high_water"]["value"] == 12
    assert snap["kernel.run_wall_s"]["count"] == 4
    assert not any("cancel" in name for name in snap)


# ----------------------------------------------------- sweep merge + cache
TASKS = [task("tests.test_obs:obs_task", n) for n in (2, 3, 5, 7, 11)]


def _run_sweep(jobs: int):
    was = obs.enabled()
    obs.enable(True)
    try:
        with obs.use_registry(Registry()):
            runner = SweepRunner(workers=jobs)
            results = runner.run(list(TASKS))
            return results, runner.last_metrics
    finally:
        obs.enable(was)


def test_sweep_merged_metrics_independent_of_worker_count():
    r1, m1 = _run_sweep(jobs=1)
    r2, m2 = _run_sweep(jobs=2)
    assert r1 == r2 == [4, 9, 25, 49, 121]
    assert m1 == m2
    assert m1["task.calls"]["value"] == 5
    assert m1["task.n_total"]["value"] == 2 + 3 + 5 + 7 + 11
    assert m1["task.n_max"]["value"] == 11.0
    assert m1["task.n"]["count"] == 5


def test_sweep_merges_into_ambient_registry():
    with obs.collecting() as reg:
        SweepRunner(workers=1).run([task("tests.test_obs:obs_task", 4)])
        assert reg.snapshot()["task.calls"]["value"] == 1


def test_obs_runs_share_one_cache_entry(tmp_path):
    cache = tmp_path / "cache"
    markers = tmp_path / "markers"
    runner = SweepRunner(workers=1, cache_dir=cache)
    t = [task("tests.test_obs:marker_task", 1, str(markers))]

    assert not obs.enabled()
    assert runner.run(list(t)) == [2]
    assert runner.last_stats.executed == 1
    assert runner.last_metrics is None

    # Enabling metrics cannot be answered by the snapshot-less entry: the
    # task is recomputed once and the *same* entry gains the snapshot.
    with obs.collecting():
        assert runner.run(list(t)) == [2]
        assert runner.last_stats.executed == 1
        fresh = runner.last_metrics
        assert fresh["marker.runs"]["value"] == 1

        # A second enabled run hits that entry and reproduces the
        # identical merged metrics from its snapshot.
        assert runner.run(list(t)) == [2]
        assert runner.last_stats.cached == 1
        assert runner.last_metrics == fresh

    # Back to disabled: the one entry still answers.
    assert runner.run(list(t)) == [2]
    assert runner.last_stats.cached == 1
    assert runner.last_metrics is None
    assert len(list(markers.iterdir())) == 2
    assert [p.name for p in cache.glob("*.json")] == [t[0].cache_key() + ".json"]
