"""Trace-characterisation tests."""

from __future__ import annotations


import pytest

from repro.config import (
    CacheConfig,
    ExperimentConfig,
    NocConfig,
    OnocConfig,
    SystemConfig,
)
from repro.core import (
    Trace,
    TraceRecord,
    critical_chain,
    dependency_fanout,
    destination_entropy,
    injection_burstiness,
    profile_trace,
)
from repro.harness import run_execution_driven

from tests.test_core_trace import zero_latency_tie


def rec(mid, src, dst, t_in, t_del, cause=-1, gap=None, kind="req_read"):
    return TraceRecord(
        msg_id=mid, key=(src, dst, kind, mid, 0), src=src, dst=dst,
        size_bytes=8, kind=kind, t_inject=t_in, t_deliver=t_del,
        cause_id=cause, gap=(t_in if cause == -1 else gap))


def chain(n=4, gap=5, lat=10):
    """Linear chain: r0 -> r1 -> ... alternating 0<->1."""
    records = []
    t = 0
    for i in range(n):
        src, dst = (0, 1) if i % 2 == 0 else (1, 0)
        records.append(rec(i, src, dst, t, t + lat,
                           cause=-1 if i == 0 else i - 1,
                           gap=t if i == 0 else gap))
        t = t + lat + gap
    tr = Trace(records=records, end_markers=[], exec_time=0)
    tr.validate()
    return tr


def test_critical_chain_linear():
    tr = chain(n=5, gap=7)
    depth, gap_sum = critical_chain(tr)
    assert depth == 5
    assert gap_sum == 0 + 4 * 7  # root gap 0 (t_inject 0) + four links


def test_critical_chain_picks_deepest():
    tr = chain(n=3, gap=5)
    # add an independent root far away
    tr.records.append(rec(99, 2, 3, 0, 9))
    depth, _ = critical_chain(tr)
    assert depth == 3


def test_critical_chain_follows_a_cause_that_ties_its_dependent():
    # A's gap is its injection time 5; B and C add nothing.
    assert critical_chain(zero_latency_tie()) == (3, 5)


def test_dependency_fanout_linear():
    tr = chain(n=4)
    fan = dependency_fanout(tr)
    assert fan[1] == 3   # three records have exactly one dependent
    assert fan[0] == 1   # the last record has none


def test_destination_entropy_uniform_vs_hotspot():
    uniform = Trace(records=[rec(i, 0, 1 + (i % 4), i * 10, i * 10 + 5)
                             for i in range(32)],
                    end_markers=[], exec_time=0)
    hotspot = Trace(records=[rec(i, 0, 1, i * 10, i * 10 + 5)
                             for i in range(32)],
                    end_markers=[], exec_time=0)
    ent_u, _ = destination_entropy(uniform)
    ent_h, _ = destination_entropy(hotspot)
    assert ent_u == pytest.approx(2.0)   # 4 equiprobable destinations
    assert ent_h == pytest.approx(0.0)


def test_destination_entropy_empty():
    assert destination_entropy(Trace([], [], 0)) == (0.0, 0.0)


def test_burstiness_smooth_vs_bursty():
    smooth = Trace(records=[rec(i, 0, 1, i * 8, i * 8 + 5)
                            for i in range(128)],
                   end_markers=[], exec_time=1024)
    bursty_records = [rec(i, 0, 1, (i // 32) * 512, (i // 32) * 512 + 5 + i % 32)
                      for i in range(128)]
    bursty = Trace(records=bursty_records, end_markers=[], exec_time=2048)
    assert injection_burstiness(bursty, 128) > injection_burstiness(smooth, 128)
    with pytest.raises(ValueError):
        injection_burstiness(smooth, 0)


def test_profile_on_real_trace():
    exp = ExperimentConfig(
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
    _, trace, _ = run_execution_driven(exp, "lu", "electrical")
    prof = profile_trace(trace)
    assert prof.messages == len(trace)
    assert prof.dependency_depth == trace.dependency_depth()
    assert prof.roots == len(trace.roots())
    assert 0 < prof.dest_entropy_bits <= prof.dest_entropy_max_bits
    assert prof.critical_gap_sum < trace.exec_time  # compute < total
    assert prof.injection_cv > 0  # barrier-phased workload is bursty
    rows = prof.as_rows()
    assert any(r["property"] == "dependency depth" for r in rows)
    assert prof.kind_mix["resp_data"] > 0


def test_barrier_fanout_visible():
    """Barrier releases give one record a fanout ~ num_cores."""
    exp = ExperimentConfig(
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
    _, trace, _ = run_execution_driven(exp, "fft", "electrical")
    prof = profile_trace(trace)
    assert prof.max_fanout >= 3  # a barrier arrival triggers ~N-1 releases
