"""SweepRunner tests: codec round-trips, caching, serial/parallel identity.

The worker task functions live at module level (``tests`` is a package) so
they can be shipped to worker processes by dotted reference and hashed into
cache keys, exactly like the real experiment drivers.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import numpy as np
import pytest

from repro.config import (
    ExperimentConfig,
    NocConfig,
    OnocConfig,
    SystemConfig,
    default_16core_config,
)
from repro.harness import (
    SweepRunner,
    cache_clear,
    cache_info,
    decode_value,
    encode_value,
    make_optical,
    task,
)
from repro.harness.parallel import CodecError, callable_ref, resolve_callable
from repro.stats import ErrorReport
from repro.traffic import SyntheticTrafficGenerator, TrafficResult


def tiny_exp(seed: int = 5) -> ExperimentConfig:
    return ExperimentConfig(
        system=SystemConfig(num_cores=4, num_mem_ctrls=2),
        noc=NocConfig(width=2, height=2),
        onoc=OnocConfig(num_nodes=4, num_wavelengths=16),
        seed=seed,
    )


# ------------------------------------------------- module-level task fns
def add(a: int, b: int, scale: int = 1) -> int:
    return (a + b) * scale


def touch_and_square(x: int, marker_dir: str) -> int:
    """Side-effecting task: proves (non-)execution via marker files."""
    d = pathlib.Path(marker_dir)
    d.mkdir(parents=True, exist_ok=True)
    (d / f"ran_{x}").touch()
    return x * x


def traffic_point(exp: ExperimentConfig, rate: float) -> TrafficResult:
    """A real network simulation whose result is a dataclass."""
    sim, net = make_optical(exp.onoc, exp.seed)
    return SyntheticTrafficGenerator(sim, net, "uniform", rate).run(
        warmup=50, measure=300)


# ----------------------------------------------------------------- codec
def test_codec_round_trips_primitives_and_containers():
    values = [
        None, True, False, 3, -7.25, "x",
        [1, [2, 3], "s"],
        (1, 2, (3, "four")),
        {"a": 1, "b": [2, 3]},
        {(0, 1, "data", 5, 0): 17, (2, 3, "ctrl", 1, 1): 9},
        {"$": "not-a-tag"},
    ]
    for v in values:
        enc = encode_value(v)
        json.dumps(enc)                       # must be pure JSON
        assert decode_value(enc) == v


def test_codec_round_trips_nested_dataclasses():
    exp = default_16core_config().with_seed(9)
    enc = encode_value(exp)
    json.dumps(enc)
    assert decode_value(enc) == exp


def test_codec_round_trips_error_report():
    rep = ErrorReport(exec_time_error_pct=1.5, exec_time_signed_pct=-1.5,
                      mean_latency_error_pct=2.0, latency_mape_pct=8.0,
                      matched_messages=100, unmatched_messages=3)
    assert decode_value(encode_value(rep)) == rep


def test_codec_normalises_numpy_scalars():
    assert encode_value(np.int64(4)) == 4
    assert isinstance(encode_value(np.int64(4)), int)
    assert encode_value(np.float64(0.5)) == 0.5
    assert isinstance(encode_value(np.float64(0.5)), float)


def test_codec_rejects_opaque_objects():
    with pytest.raises(CodecError):
        encode_value(object())


def test_callable_ref_round_trip():
    ref = callable_ref(add)
    assert ref == "tests.test_harness_parallel:add"
    assert resolve_callable(ref) is add


def test_callable_ref_rejects_lambdas():
    with pytest.raises(ValueError, match="module-level"):
        callable_ref(lambda: None)


# ---------------------------------------------------------------- runner
def test_results_in_submission_order():
    runner = SweepRunner(workers=1)
    results = runner.map(add, [(i, 10 * i) for i in range(8)])
    assert results == [11 * i for i in range(8)]
    assert runner.last_stats.executed == 8
    assert runner.last_stats.cached == 0


def test_kwargs_participate_in_task_identity(tmp_path):
    runner = SweepRunner(workers=1, cache_dir=tmp_path)
    a = runner.run([task(add, 1, 2, scale=1)])
    b = runner.run([task(add, 1, 2, scale=10)])
    assert (a, b) == ([3], [30])
    assert runner.last_stats.executed == 1     # different key: not a hit


def test_cache_hit_skips_all_simulations(tmp_path):
    cache = tmp_path / "cache"
    markers = tmp_path / "markers"
    runner = SweepRunner(workers=1, cache_dir=cache)
    tasks = [task(touch_and_square, x, str(markers)) for x in range(5)]

    first = runner.run(tasks)
    assert first == [x * x for x in range(5)]
    assert runner.last_stats.executed == 5
    assert len(list(markers.iterdir())) == 5

    for f in markers.iterdir():
        f.unlink()
    second = runner.run(tasks)
    assert second == first
    assert runner.last_stats.executed == 0
    assert runner.last_stats.cached == 5
    assert list(markers.iterdir()) == []       # zero task executions


def test_cache_salt_invalidates(tmp_path):
    t = [task(add, 2, 3)]
    a = SweepRunner(workers=1, cache_dir=tmp_path, salt="rev1")
    a.run(t)
    b = SweepRunner(workers=1, cache_dir=tmp_path, salt="rev2")
    b.run(t)
    assert b.last_stats.executed == 1          # salt change: miss


def test_corrupt_cache_entry_recomputed(tmp_path):
    runner = SweepRunner(workers=1, cache_dir=tmp_path)
    t = [task(add, 4, 5)]
    runner.run(t)
    entry = next(tmp_path.glob("*.json"))
    entry.write_text("{ not json")
    assert runner.run(t) == [9]
    assert runner.last_stats.executed == 1


def test_cache_info_and_clear(tmp_path):
    runner = SweepRunner(workers=1, cache_dir=tmp_path)
    runner.map(add, [(i, i) for i in range(3)])
    info = cache_info(tmp_path)
    assert info["entries"] == 3 and info["bytes"] > 0
    assert cache_clear(tmp_path) == 3
    assert cache_info(tmp_path)["entries"] == 0


# ------------------------------------------- serial vs parallel identity
@pytest.mark.parametrize("workers", [1, 2])
def test_real_sweep_serial_and_parallel_identical(workers, tmp_path):
    """The ISSUE-1 acceptance criterion: bit-identical results regardless
    of worker count, on real network simulations."""
    exp = tiny_exp()
    runner = SweepRunner(workers=workers, cache_dir=None)
    results = runner.map(traffic_point, [(exp, r) for r in (0.02, 0.05, 0.1)])
    # Golden-free identity check: compare against the direct in-process run.
    # wall_clock_s is host timing, not a simulation output — mask it.
    direct = [traffic_point(exp, r) for r in (0.02, 0.05, 0.1)]
    mask = [dataclasses.replace(r, wall_clock_s=0.0) for r in results]
    assert mask == [dataclasses.replace(r, wall_clock_s=0.0) for r in direct]


def test_parallel_cache_round_trip_preserves_result_types(tmp_path):
    exp = tiny_exp()
    runner = SweepRunner(workers=1, cache_dir=tmp_path)
    first = runner.map(traffic_point, [(exp, 0.05)])
    again = runner.map(traffic_point, [(exp, 0.05)])
    assert runner.last_stats.cached == 1
    assert again == first
    res = again[0]
    assert type(res).__name__ == "TrafficResult"
    assert isinstance(res.avg_latency, float)
    assert isinstance(res.delivered_messages, int)
