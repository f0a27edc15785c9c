"""Instrumentation overhead: events/sec with obs disabled vs enabled.

The kernel has one run loop; a probe costs an ``is not None`` branch per
event when absent and the heap high-water tracking under that branch when
attached.  This benchmark puts numbers on both sides:

* ``disabled``  — plain :class:`repro.engine.Simulator`, no probe.
* ``enabled``   — the same workloads with a registry-backed
  :class:`repro.obs.KernelProbe` attached.

``enabled_overhead_pct`` documents the opt-in price of kernel metrics; the
live kernel throughput is the spine's ``engine.events_per_s``
(``BENCHMARK.json``).

Two workload shapes:

* ``preload`` — the replayer shape: bulk-load the whole schedule with one
  ``schedule_many`` batch, then drain.
* ``churn`` — the execution-driven shape: a fixed set of actors that each
  reschedule themselves from inside their callback until the budget is
  spent.

Standalone::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py \
        --events 400000 --repeat 5 --out benchmarks/results/BENCH_obs.json

Under pytest this runs with a small event count as a structural smoke
test only — timing assertions on shared CI boxes would be flaky.
"""

from __future__ import annotations

import time
from typing import Callable

from repro import obs
from repro.engine import Simulator


def workload_preload(sim: Simulator, n: int) -> int:
    """Replayer shape: bulk-load the whole schedule, then drain."""
    hits = [0]

    def cb(i):
        hits[0] += 1

    # Deterministic non-monotonic times with heavy timestamp collisions —
    # the tie-break (priority, seq) does real work here.
    sim.schedule_many(((i * 7919) % (n // 8 + 1), cb, (i,)) for i in range(n))
    sim.run()
    assert hits[0] == n
    return n


def workload_churn(sim: Simulator, n: int) -> int:
    """Execution-driven shape: 64 actors self-rescheduling until done."""
    actors = 64
    budget = [n]

    def tick(delay):
        budget[0] -= 1
        if budget[0] > 0:
            sim.schedule_after(delay, tick, (delay,))

    for a in range(actors):
        sim.schedule(a % 5, tick, (1 + a % 7,))
    sim.run()
    assert budget[0] <= 0
    return n


WORKLOADS: dict[str, Callable[[Simulator, int], int]] = {
    "preload": workload_preload,
    "churn": workload_churn,
}


def _events_per_sec(make_sim, workload, n: int, repeat: int) -> float:
    best = 0.0
    for _ in range(repeat):
        sim = make_sim()
        t0 = time.perf_counter()
        executed = workload(sim, n)
        dt = time.perf_counter() - t0
        best = max(best, executed / dt)
    return best


def _instrumented_sim() -> Simulator:
    sim = Simulator()
    sim.attach_probe(obs.KernelProbe(obs.metrics("kernel")))
    return sim


def run_bench(events: int, repeat: int) -> dict:
    report: dict = {"events": events, "repeat": repeat, "workloads": {}}
    for name, workload in WORKLOADS.items():
        disabled = _events_per_sec(Simulator, workload, events, repeat)
        with obs.collecting():
            enabled = _events_per_sec(_instrumented_sim, workload, events, repeat)
        report["workloads"][name] = {
            "disabled_events_per_sec": round(disabled),
            "enabled_events_per_sec": round(enabled),
            "enabled_overhead_pct": round((disabled / enabled - 1) * 100, 2),
        }
    return report


# --------------------------------------------------------------------------
# Pytest smoke: structure + semantics, no timing assertions.
# --------------------------------------------------------------------------


def test_disabled_path_is_uninstrumented():
    """With obs off no probe is attached."""
    sim = Simulator()
    assert sim.probe is None
    assert obs.attach_kernel_probe(sim) is None      # obs off -> no-op
    assert sim.probe is None


def test_enabled_and_disabled_agree_on_semantics():
    """A probed run fires the same events and ends at the same time."""
    for name, workload in WORKLOADS.items():
        plain = Simulator()
        workload(plain, 5000)
        with obs.collecting() as reg:
            probed = _instrumented_sim()
            workload(probed, 5000)
        assert probed.now == plain.now, name
        assert probed.event_count == plain.event_count, name
        snap = reg.snapshot()
        assert snap["kernel.events_fired"]["value"] == plain.event_count
        assert snap["kernel.heap_high_water"]["value"] > 0


def test_bench_smoke():
    report = run_bench(events=2000, repeat=1)
    for name in WORKLOADS:
        entry = report["workloads"][name]
        assert entry["disabled_events_per_sec"] > 0
        assert entry["enabled_events_per_sec"] > 0


def main() -> None:
    from conftest import standalone_parser, write_json_report

    ap = standalone_parser(__doc__, events=400_000, repeat=5)
    args = ap.parse_args()
    report = run_bench(args.events, args.repeat)
    write_json_report(report, args.out, sort_keys=False)


if __name__ == "__main__":
    main()
