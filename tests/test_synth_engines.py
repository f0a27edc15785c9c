"""Event vs generational agreement on synthetic traces (satellite 2).

The engine-equivalence contract (docs/TRACE_FORMAT.md) was pinned on the
captured golden corpus — 64 cores, fixed workloads.  The synthetic
generator is what takes the simulator beyond that corpus, so this file
re-pins the contract on *generated* traces at 64 and 1024 nodes across
all four optical backends, via the same ``repro.validate.engines``
scoring the golden differential uses.

The contract's domain matters: ``circuit_mesh``'s generational model is
the documented contention-free closed form, so its cells use
light-contention profiles (few chains, long gaps) where the closed form
is the right answer.  The heavy-contention regime is covered too — there
the *counts* must still match exactly (bookkeeping has no scheduling
freedom), even though exec estimates legitimately diverge on the mesh.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.config import (
    ONOC_TOPOLOGIES,
    TRACE_NAIVE,
    TRACE_SELF_CORRECTING,
    TraceConfig,
)
from repro.core import replay_trace, stream_naive_summary, tracebin
from repro.harness.builders import optical_factory
from repro.synth import default_profile, generate, synth_onoc
from repro.validate.engines import compare_engines

NODE_COUNTS = (64, 1024)


def _light_profile(topology: str, nodes: int):
    """A profile inside the equivalence contract's domain for ``topology``.

    The mesh needs genuinely sparse circuits (its generational model
    ignores segment contention between overlapping setups); the FIFO
    backends tolerate moderate load.
    """
    if topology == "circuit_mesh":
        if nodes >= 1024:
            return default_profile(nodes, 1200, chains=4, gap_mean=200.0,
                                   gap_max=800, fanout_prob=0.1,
                                   root_spread=2000)
        return default_profile(nodes, 1500, chains=4, gap_mean=60.0,
                               gap_max=240, fanout_prob=0.1)
    return default_profile(nodes, 1500, chains=6, gap_mean=80.0,
                           gap_max=320, fanout_prob=0.1)


@pytest.fixture(scope="module")
def light_traces():
    cache = {}

    def get(topology: str, nodes: int):
        profile = _light_profile(topology, nodes)
        key = (profile, nodes)
        if key not in cache:
            cache[key] = generate(profile, seed=11)
        return cache[key]

    return get


@pytest.mark.parametrize("nodes", NODE_COUNTS)
@pytest.mark.parametrize("topology", ONOC_TOPOLOGIES)
def test_engines_agree_on_synthetic_traces(light_traces, topology, nodes):
    trace = light_traces(topology, nodes)
    onoc = synth_onoc(topology, nodes)
    for mode in (TRACE_NAIVE, TRACE_SELF_CORRECTING):
        cell = compare_engines(
            trace, onoc, TraceConfig(mode=mode), 7,
            scenario=f"synth/{topology}/{nodes}")
        assert cell.passed, cell.describe()


@pytest.mark.parametrize("topology", ONOC_TOPOLOGIES)
def test_counts_match_even_under_heavy_contention(topology):
    """Bookkeeping counts have no scheduling freedom: they must agree
    exactly even where the mesh's exec estimates legitimately diverge."""
    trace = generate(
        default_profile(64, 2000, chains=128, gap_mean=18.0), seed=11)
    cell = compare_engines(
        trace, synth_onoc(topology, 64),
        TraceConfig(mode=TRACE_SELF_CORRECTING), 7,
        scenario=f"synth-heavy/{topology}")
    assert cell.count_mismatches == ()
    assert cell.violations == ()
    assert cell.converged


@pytest.mark.parametrize("topology", ("crossbar", "swmr_crossbar"))
def test_4096_node_cell_agrees_and_allocates_nothing_pairwise(tmp_path,
                                                              topology):
    """A node count a ``[src, dst]`` propagation table priced out (1.7x10^7
    scalar calls and 128 MiB per replay): the three naive replays agree
    exactly, self-correction agrees through the usual cell, and the
    generational and streamed replays, timing objects included, stay far
    below what any n x n array would take.  (AWGR is left out of the
    bound only: one carry slot per lane *is* n^2.)"""
    nodes = 4096
    trace = generate(default_profile(nodes, 3000, pattern="uniform"), seed=5)
    onoc = synth_onoc(topology, nodes)

    def naive(engine):
        return replay_trace(trace, optical_factory(onoc, 7),
                            TraceConfig(mode=TRACE_NAIVE, engine=engine))

    event = naive("event")
    path = tmp_path / "cell.rtrc"
    tracebin.write_file(trace, path)
    # Both replays build the backend's timing object; the stream holds its
    # one across every chunk.
    tracemalloc.start()
    try:
        generational = naive("generational")
        summary = stream_naive_summary(path, onoc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, f"{peak / 2 ** 20:.1f} MiB"
    assert event.deliveries == generational.deliveries
    assert (summary["exec_time_estimate"] == generational.exec_time_estimate
            == event.exec_time_estimate)
    assert summary["max_deliver"] == max(event.deliveries.values())

    cell = compare_engines(
        trace, onoc, TraceConfig(mode=TRACE_SELF_CORRECTING), 7,
        scenario=f"synth/{topology}/{nodes}")
    assert cell.passed, cell.describe()
