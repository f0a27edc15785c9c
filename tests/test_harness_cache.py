"""ResultCache and ``repro cache`` CLI tests.

The on-disk result cache is shared by SweepRunner (batch sweeps) and
repro.serve (the resident service); these tests pin the store layout, the
miss-on-damage semantics, and the CLI front end over it.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.cli import main
from repro.harness import ResultCache, SweepRunner, task
from repro.harness.parallel import CACHE_SALT
from repro import obs


def add(a: int, b: int) -> int:
    return a + b


def make_task(a: int, b: int):
    return task(add, a, b)


def _race_writer(cache_dir: str, label: str, rounds: int, barrier) -> None:
    """Child-process body: hammer one key with this writer's blobs."""
    cache = ResultCache(cache_dir)
    t = make_task(20, 22)
    key = t.cache_key()
    barrier.wait()
    for i in range(rounds):
        cache.store(key, t, {"writer": label, "round": i})


# ---------------------------------------------------------- ResultCache
def test_store_load_round_trip(tmp_path):
    cache = ResultCache(tmp_path)
    t = make_task(1, 2)
    key = t.cache_key()
    cache.store(key, t, 3)
    blob = cache.load(key)
    assert blob["result"] == 3
    assert blob["fn"] == t.fn
    assert blob["salt"] == CACHE_SALT
    # Entries are self-describing: the stored blob records the full task.
    assert (blob["args"], blob["kwargs"]) == (t.args, t.kwargs)


def test_load_misses(tmp_path):
    cache = ResultCache(tmp_path)
    t = make_task(1, 2)
    key = t.cache_key()
    assert cache.load(key) is None                 # nothing stored
    cache.store(key, t, 3)

    entry = cache.path_for(key)
    entry.write_text("{ torn write")
    assert cache.load(key) is None                 # corrupt JSON: miss

    blob = {"key": "someone-else", "fn": t.fn, "args": t.args,
            "kwargs": t.kwargs, "salt": CACHE_SALT, "result": 3}
    entry.write_text(json.dumps(blob))
    assert cache.load(key) is None                 # key mismatch: miss

    entry.write_text("[]")
    assert cache.load(key) is None                 # JSON, not an object: miss

    del blob["result"]
    entry.write_text(json.dumps({**blob, "key": key}))
    assert cache.load(key) is None                 # right key, no result: miss


def test_store_is_atomic_no_tmp_left_behind(tmp_path):
    cache = ResultCache(tmp_path)
    t = make_task(4, 4)
    cache.store(t.cache_key(), t, 8)
    assert not list(tmp_path.glob("*.tmp"))


def test_info_and_clear(tmp_path):
    cache = ResultCache(tmp_path / "fresh")
    assert cache.info()["entries"] == 0            # missing dir: empty
    assert cache.clear() == 0
    for x in range(4):
        t = make_task(x, x)
        cache.store(t.cache_key(), t, 2 * x)
    assert cache.info()["entries"] == 4
    assert cache.info()["bytes"] > 0
    assert cache.clear() == 4
    assert cache.info()["entries"] == 0


def test_concurrent_cross_process_writers_converge(tmp_path):
    """Two separate processes racing ``store`` on the same key while this
    process ``load``s concurrently: readers only ever observe a complete,
    self-consistent blob (or a miss before the first publish lands), the
    final state is exactly one valid entry belonging wholly to one writer,
    and no ``.tmp`` intermediates leak.  This is the atomicity contract
    the serve fabric leans on: peer nodes and sweep runners share one
    cache directory with no coordination beyond ``os.replace``."""
    t = make_task(20, 22)
    key = t.cache_key()
    rounds = 150
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(3)             # 2 writers + this process
    writers = [
        ctx.Process(target=_race_writer,
                    args=(str(tmp_path), label, rounds, barrier))
        for label in ("a", "b")
    ]
    for p in writers:
        p.start()
    try:
        cache = ResultCache(tmp_path)
        barrier.wait(timeout=60)
        observed = 0
        while any(p.is_alive() for p in writers):
            blob = cache.load(key)
            if blob is None:             # only legal before the 1st publish
                assert observed == 0
                continue
            # Never a torn read: whatever we see parses, matches the key,
            # and is one writer's blob in its entirety.
            assert blob["key"] == key
            assert blob["result"]["writer"] in ("a", "b")
            assert 0 <= blob["result"]["round"] < rounds
            observed += 1
        for p in writers:
            p.join(timeout=60)
            assert p.exitcode == 0
    finally:
        for p in writers:
            if p.is_alive():
                p.terminate()
                p.join(timeout=10)

    # Converged: exactly one well-formed entry, last write wins whole.
    final = cache.load(key)
    assert final is not None
    assert final["result"] == {"writer": final["result"]["writer"],
                               "round": rounds - 1}
    assert sorted(p.name for p in tmp_path.glob("*")) == [f"{key}.json"]
    assert observed > 0                  # the race actually overlapped


def test_obs_state_does_not_change_keys(tmp_path):
    """A result's key is its task: an instrumented run is stored under the
    key of the bare one, with its snapshot beside the result."""
    t = make_task(2, 5)
    runner = SweepRunner(workers=1, cache_dir=tmp_path)
    with obs.collecting():
        assert runner.run([t]) == [7]
    blob = runner.cache.load(t.cache_key())        # obs off here
    assert blob["result"] == 7 and blob["obs"] is not None
    assert [p.name for p in tmp_path.glob("*.json")] == [
        t.cache_key() + ".json"]


# ------------------------------------------- SweepRunner eviction paths
def test_runner_recovers_after_eviction(tmp_path):
    runner = SweepRunner(workers=1, cache_dir=tmp_path)
    tasks = [make_task(i, 10) for i in range(3)]
    assert runner.run(tasks) == [10, 11, 12]
    assert runner.last_stats.executed == 3

    assert runner.cache.clear() == 3               # evict everything
    assert runner.run(tasks) == [10, 11, 12]       # recomputed, not stale
    assert runner.last_stats.executed == 3
    assert runner.run(tasks) == [10, 11, 12]
    assert runner.last_stats.cached == 3


def test_runner_overwrites_damaged_entry(tmp_path):
    runner = SweepRunner(workers=1, cache_dir=tmp_path)
    t = make_task(7, 8)
    runner.run([t])
    entry = runner.cache.path_for(t.cache_key())
    entry.write_text("not json at all")
    assert runner.run([t]) == [15]
    assert runner.last_stats.executed == 1
    # The damaged entry was replaced with a well-formed one.
    assert json.loads(entry.read_text())["result"] == 15


def test_uncached_runner_has_no_cache(tmp_path):
    runner = SweepRunner(workers=1, cache_dir=None)
    assert runner.cache is None
    assert runner.run([make_task(1, 1)]) == [2]
    assert not list(tmp_path.iterdir())


# -------------------------------------------------------- repro cache CLI
def _cache_cli(capsys, *argv: str) -> str:
    rc = main(["cache", *argv])
    assert rc == 0
    return capsys.readouterr().out


def test_cache_cli_info_empty(tmp_path, capsys):
    out = _cache_cli(capsys, "--dir", str(tmp_path / "none"))
    assert "entries" in out and "0" in out


def test_cache_cli_info_and_clear(tmp_path, capsys):
    runner = SweepRunner(workers=1, cache_dir=tmp_path)
    runner.run([make_task(i, i) for i in range(5)])

    out = _cache_cli(capsys, "--dir", str(tmp_path))
    assert str(tmp_path) in out
    assert "5" in out

    out = _cache_cli(capsys, "--dir", str(tmp_path), "--clear")
    assert "cleared 5" in out
    assert not list(tmp_path.glob("*.json"))

    out = _cache_cli(capsys, "--dir", str(tmp_path), "--clear")
    assert "cleared 0" in out


def test_cache_cli_default_dir_env(tmp_path, capsys, monkeypatch):
    """REPRO_CACHE_DIR steers the CLI's default directory."""
    from repro.harness.parallel import default_cache_dir
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
    runner = SweepRunner(workers=1, cache_dir=default_cache_dir())
    runner.run([make_task(3, 9)])
    out = _cache_cli(capsys)
    assert "envcache" in out
    assert "entries   | 1" in out.replace("  ", " ") or " 1 " in out


@pytest.mark.parametrize("flag", ["--clear"])
def test_cache_cli_clear_missing_dir(tmp_path, capsys, flag):
    out = _cache_cli(capsys, "--dir", str(tmp_path / "ghost"), flag)
    assert "cleared 0" in out
