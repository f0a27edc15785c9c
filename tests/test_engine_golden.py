"""Golden determinism tests pinning the kernel's exact event ordering.

The expected values below were captured from the pre-fast-path kernel (the
``Event``-object heap with Python ``__lt__`` comparisons) and assert that
the tuple-keyed rewrite fires events in the *identical* (time, priority,
seq) order and that ``replay_trace`` produces bit-identical timings — the
ISSUE-1 acceptance criterion that the optimisation does not perturb
simulation results.

Every case runs twice, without and with a kernel probe attached: the
kernel has one run loop, and a probe must not move a single firing.
"""

from __future__ import annotations

import contextlib

import pytest

from repro import obs
from repro.config import OnocConfig, TraceConfig
from repro.core import replay_trace
from repro.core.trace import EndMarker, Trace, TraceRecord
from repro.engine import Simulator
from repro.harness import optical_factory

# Captured from the seed kernel (commit a59a29a) by running the scripted
# scenario below: (time, tag) pairs in firing order.
GOLDEN_SCENARIO_ORDER = [
    (5, "n0"), (5, "n1"),
    (10, "a0"), (10, "a3"), (10, "n1.child"), (10, "a1"), (10, "a4"),
    (10, "n0.child"), (10, "a2"), (10, "a5"),
    (15, "t0"), (15, "t1"), (15, "t2"), (15, "t3"),
    (20, "z"),
]

# Captured from the seed kernel: exact replay outputs of the hand-built
# dependency trace below on a 4-node/16-wavelength optical crossbar, seed 11.
GOLDEN_REPLAY = {
    "naive": {
        "exec_time_estimate": 81,
        "injections": {0: 0, 1: 12, 2: 25, 3: 0, 4: 14, 5: 40, 6: 12, 7: 30,
                       8: 60, 9: 25},
        "deliveries": {0: 11, 1: 23, 2: 50, 3: 5, 4: 25, 5: 51, 6: 42, 7: 50,
                       8: 71, 9: 42},
        "sim_events": 30,
    },
    "self_correcting": {
        "exec_time_estimate": 99,
        "injections": {0: 0, 1: 14, 2: 30, 3: 0, 4: 9, 5: 59, 6: 14, 7: 50,
                       8: 78, 9: 30},
        "deliveries": {0: 11, 1: 25, 2: 52, 3: 5, 4: 20, 5: 70, 6: 44, 7: 61,
                       8: 89, 9: 47},
        "sim_events": 30,
    },
}


def run_scenario(probed: bool) -> list[tuple[int, str]]:
    """Same-time collisions, mixed priorities, nested rescheduling."""
    sim = Simulator(seed=3)
    probe = obs.KernelProbe() if probed else None
    if probed:
        sim.attach_probe(probe)
    fired: list[tuple[int, str]] = []

    def tag(name: str) -> None:
        fired.append((sim.now, name))

    def nested(name: str, extra_t: int, extra_prio: int) -> None:
        tag(name)
        sim.schedule(extra_t, tag, (name + ".child",), priority=extra_prio)

    for i in range(6):
        sim.schedule(10, tag, (f"a{i}",), priority=i % 3)
    sim.schedule(5, nested, ("n0", 10, 1))
    sim.schedule(5, nested, ("n1", 10, 0))
    sim.schedule(20, tag, ("z",), priority=-1)
    for i in range(4):
        sim.schedule(15, tag, (f"t{i}",), priority=2)
    sim.run()
    if probed:
        assert (probe.runs, probe.events_fired) == (1, len(fired))
    return fired


def _rec(msg_id, src, dst, t_inject, t_deliver, cause_id, gap, size=64,
         kind="data"):
    return TraceRecord(
        msg_id=msg_id, key=(src, dst, kind, msg_id, 0), src=src, dst=dst,
        size_bytes=size, kind=kind, t_inject=t_inject, t_deliver=t_deliver,
        cause_id=cause_id, gap=gap)


def golden_trace() -> Trace:
    """Hand-built dependency trace: chains, fan-out, same-time contention
    on the target channels."""
    recs = [
        _rec(0, 0, 1, 0, 9, -1, 0),
        _rec(1, 1, 2, 12, 20, 0, 3),
        _rec(2, 2, 3, 25, 33, 1, 5),
        _rec(3, 0, 2, 0, 10, -1, 0, size=8, kind="ctrl"),
        _rec(4, 2, 0, 14, 22, 3, 4),
        _rec(5, 3, 0, 40, 52, 2, 7),
        _rec(6, 1, 3, 12, 24, 0, 3, size=256),
        _rec(7, 3, 1, 30, 41, 6, 6),
        _rec(8, 0, 3, 60, 70, 5, 8),
        _rec(9, 2, 1, 25, 36, 1, 5, size=128),
    ]
    markers = [
        EndMarker(node=0, t_finish=75, cause_id=5, gap=23),
        EndMarker(node=3, t_finish=80, cause_id=8, gap=10),
    ]
    return Trace(records=recs, end_markers=markers, exec_time=80,
                 meta={"synthetic": True})


# ``probed`` is a loop inside each case, not a parametrize axis: one more
# input to the same four tests, whose ids stay what they were.
PROBED = (False, True)


def test_golden_event_firing_order():
    for probed in PROBED:
        assert run_scenario(probed) == GOLDEN_SCENARIO_ORDER, probed


def test_golden_event_firing_order_is_stable_across_runs():
    for probed in PROBED:
        assert run_scenario(probed) == run_scenario(probed), probed


@pytest.mark.parametrize("mode", ["naive", "self_correcting"])
def test_golden_replay_timings(mode):
    cfg = OnocConfig(num_nodes=4, num_wavelengths=16)
    exp = GOLDEN_REPLAY[mode]
    for probed in PROBED:
        # With obs collecting, the factory's make_optical attaches a
        # registry-backed KernelProbe to the replay's simulator.
        with obs.collecting() if probed else contextlib.nullcontext() as reg:
            res = replay_trace(golden_trace(), optical_factory(cfg, seed=11),
                               TraceConfig(mode=mode))
            if probed:
                fired = reg.snapshot()["kernel.events_fired"]["value"]
                assert fired == exp["sim_events"]
        assert res.exec_time_estimate == exp["exec_time_estimate"], probed
        assert res.injections == exp["injections"], probed
        assert res.deliveries == exp["deliveries"], probed
        assert res.sim_events == exp["sim_events"], probed
        assert res.messages_unreplayed == 0, probed
