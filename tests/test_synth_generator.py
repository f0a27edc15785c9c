"""The generator's per-decision hashing against its four-part definition.

``iter_records`` keeps the splitmix64 state after ``(seed, tag, chain)``
and folds only ``step`` into it per decision, and draws sizes from
thresholds accumulated once.  Both are the same arithmetic as the
definitions kept here as references — one round per part, one float
accumulation per ``size_mix`` entry — so the pin is equality, plus one
container digest recorded before the generator was touched.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

from repro.synth import default_profile, generate_to_file
from repro.synth.generator import (
    _draw_size,
    _fold,
    _mix64,
    _size_thresholds,
    _unit,
)

_MASK64 = (1 << 64) - 1
TAGS = ("size", "fan", "fgap", "gap", "root", "src", "chain")
EDGES = (0, 1, 2, 63, 1 << 31, 1 << 63, _MASK64)


def _mix64_reference(*parts) -> int:
    """The four-part hash as first written: every part, every call."""
    x = 0x9E3779B97F4A7C15
    for p in parts:
        if isinstance(p, str):
            p = int.from_bytes(p.encode("utf-8"), "little")
        x = (x ^ (p & _MASK64)) & _MASK64
        x = (x * 0xBF58476D1CE4E5B9) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        x ^= x >> 31
    return x & _MASK64


def test_folded_prefix_is_the_four_part_hash():
    for tag in TAGS:
        for seed, chain in itertools.product(EDGES + (11, -1), EDGES):
            prefix = _mix64(seed, tag, chain)
            assert prefix == _mix64_reference(seed, tag, chain)
            for step in EDGES + (7, 140_000):
                want = _mix64_reference(seed, tag, chain, step)
                assert _fold(prefix, step) == want
                assert _mix64(seed, tag, chain, step) == want
                assert _unit(prefix, step) == want / float(1 << 64)


def test_hoisted_size_thresholds_draw_the_same_sizes():
    def draw_reference(profile, u):
        total = sum(w for _, w in profile.size_mix)
        acc = 0.0
        for size, weight in profile.size_mix:
            acc += weight / total
            if u < acc:
                return size
        return profile.size_mix[-1][0]

    for mix in (((64, 0.7), (512, 0.3)),
                ((8, 1.0), (72, 3.0), (720, 0.1), (4096, 2.9)),
                ((64, 0.1),) * 10):
        profile = default_profile(16, 100, size_mix=mix)
        thresholds = _size_thresholds(profile)
        for k in range(2001):
            u = k / 2000                          # 1.0: past every share
            assert _draw_size(thresholds, u) == draw_reference(profile, u)
        for acc, _ in thresholds:                 # the boundaries themselves
            assert _draw_size(thresholds, acc) == draw_reference(profile, acc)


def test_benchmark_container_digest_is_unchanged(tmp_path):
    """sha256 of the ``synth_generational_1k`` container, recorded at the
    commit before the prefix hashing went in — and the pin the benchmark
    spine checks, which is why it must equal ``expected.json``'s."""
    recorded = ("5792e0b363aec713bed7ced1b9c0b594"
                "b16db15ae21050c748bbf6e3980663a2")
    path = tmp_path / "uniform.rtrc"
    generate_to_file(default_profile(1024, 50_000, pattern="uniform"),
                     path, seed=11)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == recorded
    expected = json.loads(
        (Path(__file__).parent.parent / "benchmarks" / "pipeline"
         / "expected.json").read_text())
    assert expected["seed"] == 11
    assert (expected["pins"]["full"]["synth_generational_1k"]
            ["container.sha256"] == recorded)
