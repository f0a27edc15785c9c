"""Generational vs event-driven replay: per-commit differential subset.

The full 36-cell matrix (both gap policies + the fault slice) backs
``repro validate --engines`` and the CI validation leg; this file runs the
fast subset on every commit plus targeted unit checks of the generational
engine's contract — exact schedule equality where the windowed solver
promises it, envelope-level equality everywhere else, and the dispatch
rules around ``TraceConfig.engine``.
"""

from __future__ import annotations

import dataclasses
import pathlib

import pytest

from repro.config import (
    ENGINE_GENERATIONAL,
    GAP_POLICIES,
    ONOC_TOPOLOGIES,
    OnocConfig,
    TRACE_MODES,
    TRACE_NAIVE,
    TRACE_SELF_CORRECTING,
    TraceConfig,
)
from repro.core import Trace, replay_trace
from repro.core.trace import EndMarker, TraceRecord
from repro.harness.builders import electrical_factory, optical_factory
from repro.validate.engines import check_engines
from repro.validate.golden import GOLDEN_SCENARIOS, _trace_path

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
NODES = 16


def test_fast_engine_differential_passes():
    """One naive + two self-correcting cells per golden scenario, plus the
    binary/JSON container-identity check — the per-commit gate."""
    report = check_engines(GOLDEN_DIR, fast=True)
    assert report.cells, "empty differential matrix"
    failed = [c.describe() for c in report.cells if not c.passed]
    assert report.passed, "\n".join(failed + report.format_failures)


def _chain_trace(n=40, nodes=4) -> Trace:
    """A contended request chain bouncing across all node pairs."""
    records = []
    t = 0
    for i in range(n):
        src, dst = i % nodes, (i + 1) % nodes
        records.append(TraceRecord(
            msg_id=i, key=(src, dst, "data", i, 0), src=src, dst=dst,
            size_bytes=64 if i % 3 else 512, kind="data",
            t_inject=t, t_deliver=t + 30,
            cause_id=i - 1 if i else -1, gap=5 if i else t))
        t += 35
    return Trace(records=records,
                 end_markers=[EndMarker(0, t + 10, n - 1, 10)],
                 exec_time=t + 10)


@pytest.mark.parametrize("topology", sorted(ONOC_TOPOLOGIES))
@pytest.mark.parametrize("mode", [TRACE_NAIVE, TRACE_SELF_CORRECTING])
def test_engines_agree_per_message_on_chain(topology, mode):
    """On a pure dependency chain there is no FIFO-tie freedom (and no
    circuit contention, covering circuit_mesh's contention-free closed
    form), so the two engines must agree *per message*, not just at the
    envelope."""
    trace = _chain_trace()
    onoc = OnocConfig(num_nodes=4, topology=topology)
    cfg = TraceConfig(mode=mode)
    ev = replay_trace(trace, optical_factory(onoc, 3), cfg)
    gen = replay_trace(trace, optical_factory(onoc, 3),
                       dataclasses.replace(cfg, engine=ENGINE_GENERATIONAL))
    assert gen.extra["engine"] == "generational"
    assert gen.injections == ev.injections
    assert gen.deliveries == ev.deliveries
    assert gen.exec_time_estimate == ev.exec_time_estimate


def test_generational_requires_optical_factory():
    from repro.config import default_16core_config

    trace = _chain_trace()
    exp = default_16core_config()
    with pytest.raises(ValueError, match="optical target"):
        replay_trace(trace, electrical_factory(exp.noc, 1),
                     TraceConfig(mode=TRACE_NAIVE,
                                 engine=ENGINE_GENERATIONAL))


def test_generational_binary_and_json_identical_on_golden():
    scenario = GOLDEN_SCENARIOS[0]
    trace = Trace.from_json(_trace_path(GOLDEN_DIR, scenario).read_text())
    rt = Trace.from_binary(trace.to_binary())
    onoc = OnocConfig(num_nodes=scenario.cores,
                      num_wavelengths=scenario.wavelengths,
                      topology=scenario.target)
    cfg = TraceConfig(mode=TRACE_SELF_CORRECTING,
                      engine=ENGINE_GENERATIONAL)
    a = replay_trace(trace, optical_factory(onoc, scenario.seed), cfg)
    b = replay_trace(rt, optical_factory(onoc, scenario.seed), cfg)
    assert a.exec_time_estimate == b.exec_time_estimate
    assert a.injections == b.injections
    assert a.deliveries == b.deliveries


@pytest.mark.parametrize("engine", ["event", ENGINE_GENERATIONAL])
def test_record_replaced_in_place_is_replayed_as_edited(engine):
    """Both engines read one columnar view memoised on the trace; swapping a
    record inside the same ``records`` list (same length, same list object
    — the suite itself edits traces this way) must not be served the stale
    columns."""
    def rec(msg_id, cause_id, t_inject, gap, src, dst):
        return TraceRecord(
            msg_id=msg_id, key=(src, dst, "data", msg_id, 0), src=src,
            dst=dst, size_bytes=64, kind="data", t_inject=t_inject,
            t_deliver=t_inject + 10, cause_id=cause_id, gap=gap)

    trace = Trace(records=[rec(0, -1, 0, 0, 0, 1), rec(1, 0, 15, 5, 1, 2)],
                  end_markers=[], exec_time=0)
    onoc = OnocConfig(num_nodes=4, num_wavelengths=16)
    cfg = TraceConfig(engine=engine)
    first = replay_trace(trace, optical_factory(onoc, 3), cfg)
    assert (first.deliveries[0], first.injections[1]) == (11, 16)
    trace.records[1] = rec(1, 0, 115, 105, 1, 2)
    again = replay_trace(trace, optical_factory(onoc, 3), cfg)
    assert again.injections[1] == 116


def test_differential_compares_which_records_not_only_how_many():
    """Same counts, different records: the id-level comparison notices."""
    from repro.validate.engines import _counts_diff

    trace = _chain_trace(n=10)
    trace.records[5] = dataclasses.replace(trace.records[5], cause_id=77)
    trace.records[6] = dataclasses.replace(trace.records[6], cause_id=78)
    onoc = OnocConfig(num_nodes=4, topology="crossbar")
    r = replay_trace(trace, optical_factory(onoc, 3),
                     TraceConfig(degraded_gap_policy="neighbor_gap"))
    assert r.fault_exposure.rederived_msg_ids == (5, 6)
    assert _counts_diff(r, r) == ()
    moved = dataclasses.replace(r, fault_exposure=dataclasses.replace(
        r.fault_exposure, rederived_msg_ids=(5, 7)))
    assert _counts_diff(r, moved) == ("fault_exposure",)
    other = dict(r.injections)
    other[99] = other.pop(9)
    assert _counts_diff(r, dataclasses.replace(r, injections=other)) == (
        "replayed ids",)


# ------------------------------------------------------- one replay domain
@pytest.mark.parametrize("keep", [1.0, 0.7])
@pytest.mark.parametrize("policy", GAP_POLICIES)
@pytest.mark.parametrize("mode", TRACE_MODES)
def test_both_engines_serve_every_trace_config(mode, policy, keep):
    """On an optical target the generational engine accepts every
    ``TraceConfig`` the event engine does, and both replay the same
    records."""
    from repro.validate.engines import _counts_diff

    trace = _chain_trace()
    onoc = OnocConfig(num_nodes=4, topology="awgr")
    cfg = TraceConfig(mode=mode, degraded_gap_policy=policy,
                      keep_dep_fraction=keep, dep_drop_seed=7)
    ev = replay_trace(trace, optical_factory(onoc, 3), cfg)
    gen = replay_trace(trace, optical_factory(onoc, 3),
                       dataclasses.replace(cfg, engine=ENGINE_GENERATIONAL))
    assert _counts_diff(ev, gen) == ()


def test_dead_edges_do_not_narrow_the_solver_horizon():
    """Record 1 can never fire (its cause 77 is not in the trace), so its
    zero-gap edge to record 5 is dead.  With one cause per record an edge
    is dead only under a parent that never fires, which never joins the
    frontier: records 0 and 3 leave in one batch, their children in a
    second, with no reachability sweep to prune the edge."""
    def rec(msg_id, cause_id, t_inject, gap, src, dst):
        return TraceRecord(
            msg_id=msg_id, key=(src, dst, "data", msg_id, 0), src=src,
            dst=dst, size_bytes=64, kind="data", t_inject=t_inject,
            t_deliver=t_inject + 10, cause_id=cause_id, gap=gap)

    trace = Trace(records=[
        rec(0, -1, 0, 0, 0, 1),
        rec(1, 77, 20, 0, 1, 2),
        rec(2, 0, 1020, 1000, 1, 3),
        rec(3, -1, 50, 50, 2, 3),
        rec(4, 3, 70, 0, 3, 0),
        rec(5, 1, 30, 0, 2, 0),
    ], end_markers=[], exec_time=0)
    onoc = OnocConfig(num_nodes=4, topology="crossbar")
    cfg = TraceConfig(degraded_gap_policy="captured")
    ev = replay_trace(trace, optical_factory(onoc, 3), cfg)
    gen = replay_trace(trace, optical_factory(onoc, 3),
                       dataclasses.replace(cfg, engine=ENGINE_GENERATIONAL))
    assert gen.extra["iterations"] == 2
    assert gen.injections == ev.injections
    assert gen.deliveries == ev.deliveries
    assert gen.stalled_on == ev.stalled_on == {1: [77], 5: [1]}
