"""Exact electrical-NoC timing, pinned per configuration and load.

``tests/golden/noc_digests.json`` was recorded on the commit *before* the
router/network hot path was restructured (landing buckets, resolved wiring,
occupancy counters), so every cell is a parent-vs-now identity check: same
delivery order and times, same per-link and per-router flit counts, same
final clock, same source-queueing mean.  A differing digest is a bug in
``src/repro/noc/`` — never re-pin it to make a change pass.

``python tests/test_noc_golden.py`` re-records the file (only for an
intended change of the modelled timing).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.config import NocConfig
from repro.engine import Simulator
from repro.net import Message
from repro.noc import ElectricalNetwork

DIGESTS_FILE = Path(__file__).parent / "golden" / "noc_digests.json"

CONFIGS = {
    "mesh": NocConfig(),
    "4vc": NocConfig(num_vcs=4, vc_depth=2),
    "2x2": NocConfig(width=2, height=2),
    "8x2": NocConfig(width=8, height=2),
    "8x8": NocConfig(width=8, height=8),
    "lat232": NocConfig(router_latency=2, link_latency=2, credit_latency=3),
}

LOADS = ("light", "heavy", "burst")

CELLS = [(c, load) for c in CONFIGS for load in LOADS]


def _sends(n: int, load: str) -> list[tuple[int, int, int, int]]:
    """``(time, src, dst, size_bytes)`` in scheduling order."""
    if load == "burst":
        return [(0, s, d, 64) for s in range(n) for d in range(n) if s != d]
    count, span = (200, 2000) if load == "light" else (1500, 300)
    rng = np.random.default_rng(7)
    sends = []
    for _ in range(count):
        t = int(rng.integers(0, span))
        s = int(rng.integers(0, n))
        d = (s + 1 + int(rng.integers(0, n - 1))) % n
        sends.append((t, s, d, int(rng.integers(8, 201))))
    return sends


def _check_counters(net: ElectricalNetwork) -> None:
    """The router's occupancy counters equal what they summarise: after the
    tick at ``now``, ``_ready`` counts the buffered flits that have cleared
    the pipeline and ``_arrivals`` holds the others' ready times, in order."""
    now = net.sim.now
    for r in net.routers:
        assert r._buffered == r.buffered_flits(), f"router {r.node}"
        waiting = sum(
            1 for pv in r.input_vcs for ivc in pv
            if ivc.flits and ivc.out_vc is None
        )
        assert r._waiting == waiting, f"router {r.node}"
        ready = [f.ready_time for ivc in r._all_ivcs for f in ivc.flits]
        assert r._ready == sum(1 for t in ready if t <= now), f"router {r.node}"
        assert list(r._arrivals) == sorted(t for t in ready if t > now), \
            f"router {r.node}"


def _digest(cfg: NocConfig, load: str, after_tick=None) -> str:
    sim = Simulator(seed=1)
    net = ElectricalNetwork(sim, cfg)
    if after_tick is not None:
        tick = net._tick

        def checked_tick() -> None:
            tick()
            after_tick(net)

        net._tick = checked_tick
    done: list[Message] = []
    net.set_delivery_handler(done.append)
    for t, s, d, size in _sends(cfg.num_nodes, load):
        sim.schedule(t, net.send, (Message(s, d, size),))
    sim.run()
    assert net.quiescent()
    payload = [
        [(m.src, m.dst, m.size_bytes, m.inject_time, m.deliver_time)
         for m in done],
        sorted((node, port, flits)
               for (node, port), flits in net.link_flits.items()),
        [r.flits_routed for r in net.routers],
        sim.now,
        net.stats.queueing_delay.mean,
    ]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


@pytest.mark.parametrize("name,load", CELLS,
                         ids=[f"{c}-{load}" for c, load in CELLS])
def test_noc_timing_matches_recorded_digest(name, load):
    recorded = json.loads(DIGESTS_FILE.read_text())
    check = _check_counters if load == "heavy" else None
    assert _digest(CONFIGS[name], load, after_tick=check) == \
        recorded[f"{name}-{load}"]


# The two execution-driven captures the benchmark spine replays
# (``captured_event_16``), as ``sha256(tracebin.dumps(trace))[:16]`` on the
# same parent commit.  The electrical one runs this network under the full
# system; the optical one pins the system model alone (its cache arrays
# build their sets on first touch).
CAPTURES = {
    "electrical": ("61cd73badc7842ff", 13691),
    "optical": ("0175eda4cc8a05bd", 7627),
}


@pytest.mark.parametrize("target", sorted(CAPTURES))
def test_benchmark_capture_is_byte_identical(target):
    from repro.config import default_16core_config
    from repro.core import tracebin
    from repro.harness.builders import run_execution_driven

    result, trace, _ = run_execution_driven(
        default_16core_config().with_seed(11), "fft", target, scale=0.5)
    digest, exec_time = CAPTURES[target]
    assert len(trace.records) == 6614
    assert result.exec_time_cycles == exec_time
    assert hashlib.sha256(tracebin.dumps(trace)).hexdigest()[:16] == digest


if __name__ == "__main__":
    DIGESTS_FILE.write_text(json.dumps(
        {f"{c}-{load}": _digest(CONFIGS[c], load) for c, load in CELLS},
        indent=1, sort_keys=True) + "\n")
