"""Harness building-block tests (small configs so the whole file stays fast);
the experiment drivers themselves are covered per catalogue entry in
tests/test_experiments.py."""

from __future__ import annotations

import pytest

from repro.config import (
    CacheConfig,
    ExperimentConfig,
    NocConfig,
    OnocConfig,
    SystemConfig,
)
from repro.harness import (
    format_table,
    make_electrical,
    make_optical,
    run_execution_driven,
)


@pytest.fixture(scope="module")
def exp():
    return ExperimentConfig(
        system=SystemConfig(
            num_cores=4,
            l1=CacheConfig(size_bytes=1024, assoc=2, line_bytes=64, hit_latency=1),
            l2_slice=CacheConfig(size_bytes=4096, assoc=4, line_bytes=64, hit_latency=4),
            mem_latency=30, num_mem_ctrls=2,
        ),
        noc=NocConfig(width=2, height=2),
        onoc=OnocConfig(num_nodes=4, num_wavelengths=16),
        seed=5,
    )


def test_run_execution_driven_targets(exp):
    res_e, trace_e, net_e = run_execution_driven(exp, "lu", "electrical")
    res_o, trace_o, net_o = run_execution_driven(exp, "lu", "optical")
    assert res_e.exec_time_cycles > 0 and res_o.exec_time_cycles > 0
    assert trace_e is not None and trace_o is not None
    with pytest.raises(ValueError, match="target"):
        run_execution_driven(exp, "lu", "hybrid")


def test_run_execution_driven_no_capture(exp):
    _, trace, _ = run_execution_driven(exp, "lu", "electrical", capture=False)
    assert trace is None


def test_factories(exp):
    sim, net = make_electrical(exp.noc, 1)
    assert net.num_nodes == 4
    sim, net = make_optical(exp.onoc, 1)
    assert net.num_nodes == 4


def test_format_table():
    rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.125}]
    text = format_table(rows, title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "b" in lines[1]
    assert len(lines) == 5
    assert format_table([]) == "(empty)"
