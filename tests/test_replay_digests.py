"""No simulated number moves: the whole ``ReplayResult``, pinned per cell.

A sha256 over every field of the result except ``wall_clock_s`` — dict
insertion order and value types included (``repr``), so a reordered
``latencies_by_key`` or a NumPy scalar where an ``int`` was is a
difference.  Cells: the four golden traces, and ``fft`` / ``radix`` with
records lost (dangling triggers and marker causes: stalls, re-derived
markers) x the four optical backends x both engines x naive,
self-correcting, and self-correcting at ``keep_dep_fraction=0.7`` under
each gap policy.

Each cell is replayed from every form a trace can be born in (built from
records; loaded from its container; built from columns and never touched)
and all must give the one recorded digest.  Recorded on the parent of the
PR that made a loaded trace columnar, before any ``src/`` edit.  Re-record
(only for an intended change of a simulated number) with
``PYTHONPATH=src python tests/test_replay_digests.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from functools import lru_cache
from pathlib import Path

import pytest

from repro.config import (
    GAP_POLICIES,
    ONOC_TOPOLOGIES,
    OnocConfig,
    TraceConfig,
)
from repro.core import Trace, replay_trace, tracebin
from repro.harness.builders import optical_factory
from repro.validate.golden import GOLDEN_SCENARIOS, _trace_path

GOLDEN_DIR = Path(__file__).parent / "golden"
DIGESTS_FILE = GOLDEN_DIR / "replay_digests.json"
SCENARIOS = {s.workload: s for s in GOLDEN_SCENARIOS}


def _lossy(trace: Trace) -> Trace:
    """Every eleventh record lost: its dependents name an absent trigger,
    and so do the end markers it caused.  Not a valid trace any more."""
    return dataclasses.replace(
        trace, records=[r for r in trace.records if r.msg_id % 11 != 3])


VARIANTS = {
    **{w: (w, None) for w in SCENARIOS},
    "fft-lossy": ("fft", _lossy),
    "radix-lossy": ("radix", _lossy),
}


@lru_cache(maxsize=None)
def _records_born(variant: str) -> Trace:
    workload, edit = VARIANTS[variant]
    trace = Trace.from_json(
        _trace_path(GOLDEN_DIR, SCENARIOS[workload]).read_text())
    return edit(trace) if edit else trace


def _container_born(variant: str) -> Trace:
    return tracebin.loads(tracebin.dumps(_records_born(variant)))


def _cfgs(engine: str):
    yield "naive", TraceConfig(mode="naive", engine=engine)
    yield "sc", TraceConfig(mode="self_correcting", engine=engine)
    for policy in GAP_POLICIES:
        yield f"sc-keep0.7-{policy}", TraceConfig(
            mode="self_correcting", engine=engine, keep_dep_fraction=0.7,
            degraded_gap_policy=policy)


CELLS = [(variant, topology, engine, label, cfg)
         for variant in VARIANTS for topology in ONOC_TOPOLOGIES
         for engine in ("event", "generational")
         for label, cfg in _cfgs(engine)]


def _cell_id(cell) -> str:
    return "-".join(cell[:4])


def result_digest(trace: Trace, variant: str, topology: str,
                  cfg: TraceConfig) -> str:
    scenario = SCENARIOS[VARIANTS[variant][0]]
    onoc = OnocConfig(num_nodes=scenario.cores,
                      num_wavelengths=scenario.wavelengths,
                      topology=topology)
    result = replay_trace(trace, optical_factory(onoc, scenario.seed), cfg)
    doc = [(f.name, getattr(result, f.name))
           for f in dataclasses.fields(result) if f.name != "wall_clock_s"]
    return hashlib.sha256(repr(doc).encode()).hexdigest()


@pytest.mark.parametrize("cell", CELLS, ids=_cell_id)
def test_replay_result_matches_recorded_digest(cell):
    variant, topology, _, _, cfg = cell
    recorded = json.loads(DIGESTS_FILE.read_text())[_cell_id(cell)]
    assert result_digest(
        _records_born(variant), variant, topology, cfg) == recorded
    if not variant.endswith("-lossy"):          # the loader refuses those
        assert result_digest(
            _container_born(variant), variant, topology, cfg) == recorded


if __name__ == "__main__":
    out = {}
    for cell in CELLS:
        variant, topology, _, _, cfg = cell
        out[_cell_id(cell)] = result_digest(
            _records_born(variant), variant, topology, cfg)
        if not variant.endswith("-lossy"):
            assert out[_cell_id(cell)] == result_digest(
                _container_born(variant), variant, topology, cfg)
    DIGESTS_FILE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
