"""Offline iterative-refinement tests."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.config import (
    CacheConfig,
    ExperimentConfig,
    NocConfig,
    OnocConfig,
    SystemConfig,
)
from repro.core import IterativeRefiner
from repro.harness import optical_factory, run_execution_driven

from tests.test_core_trace import zero_latency_tie


def small_exp(seed=5):
    return ExperimentConfig(
        system=SystemConfig(
            num_cores=4,
            l1=CacheConfig(size_bytes=1024, assoc=2, line_bytes=64, hit_latency=1),
            l2_slice=CacheConfig(size_bytes=4096, assoc=4, line_bytes=64, hit_latency=4),
            mem_latency=30, num_mem_ctrls=2,
        ),
        noc=NocConfig(width=2, height=2),
        onoc=OnocConfig(num_nodes=4, num_wavelengths=16),
        seed=seed,
    )


@pytest.fixture(scope="module")
def setting():
    exp = small_exp()
    _, trace, _ = run_execution_driven(exp, "randshare", "electrical")
    res_o, _, _ = run_execution_driven(exp, "randshare", "optical",
                                       capture=False)
    return exp, trace, res_o.exec_time_cycles


def test_first_pass_equals_naive_schedule(setting):
    exp, trace, _ = setting
    r = IterativeRefiner(trace, optical_factory(exp.onoc, exp.seed),
                         max_iterations=1).run()
    # One pass means the captured schedule was replayed verbatim.
    hist = r.extra["history"]
    assert len(hist) == 1
    assert hist[0].iteration == 0
    assert hist[0].rel_change == float("inf")


def test_iteration_reduces_error(setting):
    exp, trace, ref_exec = setting
    r = IterativeRefiner(trace, optical_factory(exp.onoc, exp.seed),
                         max_iterations=8, convergence_tol=1e-3).run()
    hist = r.extra["history"]
    first_err = abs(hist[0].exec_time_estimate - ref_exec) / ref_exec
    last_err = abs(hist[-1].exec_time_estimate - ref_exec) / ref_exec
    assert last_err < first_err
    assert last_err < 0.10


def test_convergence_stops_early(setting):
    exp, trace, _ = setting
    r = IterativeRefiner(trace, optical_factory(exp.onoc, exp.seed),
                         max_iterations=20, convergence_tol=5e-2).run()
    assert r.extra["iterations"] < 20
    assert r.extra["history"][-1].rel_change <= 5e-2


def test_history_monotone_timestamps(setting):
    exp, trace, _ = setting
    r = IterativeRefiner(trace, optical_factory(exp.onoc, exp.seed),
                         max_iterations=4).run()
    iters = [h.iteration for h in r.extra["history"]]
    assert iters == list(range(len(iters)))


def test_mode_label(setting):
    exp, trace, _ = setting
    r = IterativeRefiner(trace, optical_factory(exp.onoc, exp.seed),
                         max_iterations=2).run()
    assert r.mode == "iterative_self_correcting"


def test_parameter_validation(setting):
    exp, trace, _ = setting
    factory = optical_factory(exp.onoc, exp.seed)
    with pytest.raises(ValueError):
        IterativeRefiner(trace, factory, max_iterations=0)
    with pytest.raises(ValueError):
        IterativeRefiner(trace, factory, convergence_tol=0)
    with pytest.raises(ValueError):
        IterativeRefiner(trace, factory, damping=0.0)
    with pytest.raises(ValueError):
        IterativeRefiner(trace, factory, damping=1.5)


def test_undamped_variant_runs(setting):
    exp, trace, _ = setting
    r = IterativeRefiner(trace, optical_factory(exp.onoc, exp.seed),
                         max_iterations=3, damping=1.0).run()
    assert r.extra["iterations"] >= 1


def test_rebuild_meets_a_cause_that_ties_its_dependent():
    """A root measured at 10 cycles moves its zero-gap dependent from the
    captured 5 to 15, although the dependent sorts first by delivery."""
    prev = SimpleNamespace(injections={9: 5, 1: 5, 0: 5},
                           deliveries={9: 15, 1: 15, 0: 16})
    refiner = IterativeRefiner(zero_latency_tie(), network_factory=None)
    assert refiner._next_schedule(prev) == {9: 5, 1: 15, 0: 25}
