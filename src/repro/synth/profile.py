"""Synthetic workload profiles: the parameter space of the trace generator.

A :class:`SynthProfile` names one dependency-graph family — how many chains
run in parallel, how they fan out, how compute gaps are distributed, which
communication pattern picks destinations, and what the message-size mix
looks like.  :func:`fit_profile` inverts a captured trace into that space
so the generator can emit *statistically faithful* traces at any scale
(the fidelity contract is pinned by ``tests/test_synth_properties.py``
against the tolerances in :data:`FIDELITY_TOLERANCES`).

Profiles are plain JSON: ``repro synth fit`` writes one, ``repro synth
generate --profile`` reads it back, and the generator embeds it in the
trace ``meta`` so every synthetic trace names its own recipe.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional, Union

from repro.core.analysis import destination_entropy
from repro.core.trace import Trace
from repro.traffic.patterns import PATTERNS

#: Fidelity contract for fitted-then-generated traces: each statistic of
#: the regenerated trace must land this close to the source trace's value
#: (relative percent for means, absolute for fractions/ratios).  The
#: property suite holds the generator to these numbers — widen them only
#: with a corresponding note in docs/TRACE_FORMAT.md.
FIDELITY_TOLERANCES = {
    "gap_mean_rel_pct": 25.0,      # mean compute gap, relative error
    "multi_child_frac_abs": 0.08,  # fan-out: fraction of msgs with >=2 children
    "dest_entropy_ratio_abs": 0.20,  # sharing: destination entropy / max
    "mean_size_rel_pct": 25.0,     # message-size mix
}

#: Hotspot detection: the catalogue's ``hotspot`` pattern routes 10% of
#: traffic to node 0, so its busiest destination receives ``0.1 + 0.9/n``
#: of the messages while uniform traffic tops out near ``1/n``.  A fitted
#: profile assumes hotspot sharing when the busiest destination's share
#: clears ``max(0.08, 2.5/n)`` — comfortably between the two for every
#: node count the generator targets.
_HOTSPOT_SHARE_BASE = 0.08


@dataclass(frozen=True)
class SynthProfile:
    """Parameters of one synthetic dependency-graph family."""

    num_nodes: int = 64
    #: Base message count; ``generate(profile, scale=N)`` emits
    #: ``round(messages * N)`` records.
    messages: int = 10_000
    #: Concurrent request/response chains (the trace's message-level
    #: parallelism — what the generational engine vectorizes over).
    chains: int = 256
    #: Destination-selection pattern, a :data:`repro.traffic.PATTERNS` name
    #: (the sharing/communication structure).
    pattern: str = "uniform"
    #: Probability a chain message also spawns a one-shot control child
    #: (fan-out beyond the chain itself).
    fanout_prob: float = 0.15
    #: Compute-gap distribution: truncated-exponential with this mean ...
    gap_mean: float = 18.0
    #: ... clipped to this maximum.
    gap_max: int = 96
    #: Message-size mix as ``((size_bytes, weight), ...)``; weights are
    #: normalized at draw time.
    size_mix: tuple[tuple[int, float], ...] = ((64, 0.7), (512, 0.3))
    #: Capture-network latency model: ``t_deliver - t_inject =
    #: base_latency + size_bytes // 16`` (the electrical-capture shape).
    base_latency: int = 24
    #: Chain roots inject uniformly in ``[0, root_spread)`` cycles.
    root_spread: int = 200
    #: Provenance note (e.g. the fitted trace's identity); free-form.
    source: str = ""

    def __post_init__(self) -> None:
        def _req(ok: bool, msg: str) -> None:
            if not ok:
                raise ValueError(f"SynthProfile: {msg}")

        _req(self.num_nodes >= 2, f"num_nodes must be >= 2, got {self.num_nodes}")
        _req(self.messages >= 1, f"messages must be >= 1, got {self.messages}")
        _req(self.chains >= 1, f"chains must be >= 1, got {self.chains}")
        _req(self.pattern in PATTERNS,
             f"unknown pattern {self.pattern!r}; known: {sorted(PATTERNS)}")
        _req(0.0 <= self.fanout_prob <= 0.9,
             f"fanout_prob must be in [0, 0.9], got {self.fanout_prob}")
        _req(self.gap_mean >= 1.0, f"gap_mean must be >= 1, got {self.gap_mean}")
        _req(self.gap_max >= 1, f"gap_max must be >= 1, got {self.gap_max}")
        _req(len(self.size_mix) >= 1, "size_mix must not be empty")
        for size, weight in self.size_mix:
            _req(size >= 1, f"size_mix sizes must be >= 1, got {size}")
            _req(weight > 0, f"size_mix weights must be > 0, got {weight}")
        _req(self.base_latency >= 1,
             f"base_latency must be >= 1, got {self.base_latency}")
        _req(self.root_spread >= 1,
             f"root_spread must be >= 1, got {self.root_spread}")

    def scaled_messages(self, scale: float) -> int:
        if not 0 < scale < float("inf"):   # nan fails both
            raise ValueError(
                f"scale must be positive and finite, got {scale!r}")
        return max(1, int(round(self.messages * scale)))

    # ------------------------------------------------------------- (de)JSON
    def as_dict(self) -> dict:
        d = asdict(self)
        d["size_mix"] = [[int(s), float(w)] for s, w in self.size_mix]
        return d

    @staticmethod
    def from_dict(raw: dict) -> "SynthProfile":
        data = dict(raw)
        mix = data.get("size_mix")
        if mix is not None:
            data["size_mix"] = tuple((int(s), float(w)) for s, w in mix)
        unknown = set(data) - set(SynthProfile.__dataclass_fields__)
        if unknown:
            raise ValueError(f"SynthProfile: unknown field(s) {sorted(unknown)}")
        return SynthProfile(**data)

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    @staticmethod
    def from_json(text: str) -> "SynthProfile":
        return SynthProfile.from_dict(json.loads(text))

    @staticmethod
    def load(path: Union[str, Path]) -> "SynthProfile":
        return SynthProfile.from_json(Path(path).read_text())


def default_profile(num_nodes: int, messages: int,
                    pattern: str = "uniform", **overrides) -> SynthProfile:
    """A reasonable profile for ``num_nodes`` without a corpus to fit:
    enough chains to keep every node busy, the default gap and size
    mixes."""
    chains = max(32, min(num_nodes * 2, messages))
    return replace(
        SynthProfile(num_nodes=num_nodes, messages=messages,
                     chains=chains, pattern=pattern),
        **overrides)


# --------------------------------------------------------------- statistics
def trace_stats(trace: Trace) -> dict:
    """The fidelity statistics of a trace — the quantities the generator
    promises to reproduce (see :data:`FIDELITY_TOLERANCES`)."""
    records = trace.records
    if not records:
        return {"messages": 0, "gap_mean": 0.0, "multi_child_frac": 0.0,
                "dest_entropy_ratio": 0.0, "mean_size": 0.0, "roots": 0}
    gaps = [r.gap for r in records if r.cause_id != -1]
    children = Counter(r.cause_id for r in records if r.cause_id != -1)
    multi = sum(1 for c in children.values() if c >= 2)
    ent, ent_max = destination_entropy(trace)
    dst_counts = Counter(r.dst for r in records)
    return {
        "messages": len(records),
        "roots": sum(1 for r in records if r.cause_id == -1),
        "gap_mean": statistics.fmean(gaps) if gaps else 0.0,
        "multi_child_frac": multi / len(records),
        "dest_entropy_ratio": (ent / ent_max) if ent_max > 0 else 1.0,
        "max_dest_share": max(dst_counts.values()) / len(records),
        "mean_size": statistics.fmean(r.size_bytes for r in records),
    }


def fit_profile(trace: Trace, pattern: Optional[str] = None) -> SynthProfile:
    """Invert a captured trace into a :class:`SynthProfile`.

    Every parameter is a direct moment estimate from the records: chain
    count from the root population, fan-out probability from the fraction
    of records with two or more dependents (a fan-out event gives its
    parent a second child, so ``frac = p / (1 + p)``), the gap
    distribution from the non-root gap sample, the size mix from the size
    histogram (top four sizes), and the base latency from the median of
    ``latency - size // 16``.  The destination pattern is not identifiable
    from moments alone, so unless ``pattern`` is given the fit falls back
    to a concentration heuristic: hotspot when the busiest destination's
    traffic share clears ``max(0.08, 2.5/n)`` (see
    :data:`_HOTSPOT_SHARE_BASE`), uniform otherwise.
    """
    records = trace.records
    if not records:
        raise ValueError("cannot fit a profile to an empty trace")
    nodes = max(max(r.src, r.dst) for r in records) + 1
    meta_nodes = trace.meta.get("num_cores")
    if isinstance(meta_nodes, int) and meta_nodes >= nodes:
        nodes = meta_nodes
    nodes = max(2, nodes)

    stats = trace_stats(trace)
    roots = [r for r in records if r.cause_id == -1]
    gaps = [r.gap for r in records if r.cause_id != -1]
    gap_mean = max(1.0, statistics.fmean(gaps)) if gaps else 1.0
    gap_max = max(1, max(gaps)) if gaps else 1

    frac = stats["multi_child_frac"]
    fanout_prob = min(0.9, frac / (1.0 - frac)) if frac < 1.0 else 0.9

    size_counts = Counter(r.size_bytes for r in records)
    top = size_counts.most_common(4)
    total = sum(c for _, c in top)
    size_mix = tuple((int(size), count / total) for size, count in top)

    base_latency = max(1, int(statistics.median(
        (r.t_deliver - r.t_inject) - r.size_bytes // 16 for r in records)))

    if pattern is None:
        threshold = max(_HOTSPOT_SHARE_BASE, 2.5 / nodes)
        pattern = ("hotspot" if stats["max_dest_share"] >= threshold
                   else "uniform")

    workload = trace.meta.get("workload", "")
    return SynthProfile(
        num_nodes=nodes,
        messages=len(records),
        chains=max(1, len(roots)),
        pattern=pattern,
        fanout_prob=fanout_prob,
        gap_mean=gap_mean,
        gap_max=gap_max,
        size_mix=size_mix,
        base_latency=base_latency,
        root_spread=max(1, max((r.t_inject for r in roots), default=0) + 1),
        source=f"fit:{workload or 'trace'}:{len(records)}msgs",
    )
