"""Hierarchical deterministic random-number streams.

Every stochastic component (traffic generator, workload kernel, arbiter with
random tie-breaking, ...) gets its *own* ``numpy`` Generator derived from the
master seed and a stable string key.  This gives two properties the
experiments depend on:

* **Reproducibility** — (seed, key) fully determines a stream.
* **Isolation** — adding a new random consumer does not perturb the streams
  of existing components, so accuracy comparisons between simulator variants
  see identical workloads.

Beside the streams, :func:`mix64` is the one *stateless* hash: per-record
decisions (fault models, degradation generators, the synthetic workload
generator) that must survive reordering and composition are hashed from
their coordinates rather than drawn from a stream.
"""

from __future__ import annotations

import zlib

import numpy as np

_MASK64 = (1 << 64) - 1


def fold(x, p):
    """One splitmix64 finalizer round: absorb ``p`` into state ``x``.

    Python ints or ``uint64`` arrays alike — an array product wraps mod
    2^64, which is what the mask does to the int."""
    x = x ^ (p & _MASK64)
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def mix64(*parts) -> int:
    """Deterministic 64-bit hash of ints/strings (splitmix64 finalizer chain).

    Platform- and process-independent (unlike ``hash``), cheap enough to call
    once per record, and stateless.  The hash of a prefix is the state the
    next part is folded into: ``mix64(*parts, p) == fold(mix64(*parts), p)``.
    """
    x = 0x9E3779B97F4A7C15
    for p in parts:
        if isinstance(p, str):
            p = int.from_bytes(p.encode("utf-8"), "little")
        x = fold(x, p)
    return x


def unit(*parts) -> float:
    """Uniform [0, 1) draw hashed from ``parts`` (:func:`mix64` / 2^64)."""
    return mix64(*parts) / 2.0**64


class RngFactory:
    """Factory of named, independent ``numpy.random.Generator`` streams."""

    __slots__ = ("seed", "_cache")

    def __init__(self, seed: int = 0) -> None:
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self.seed = int(seed)
        self._cache: dict[str, np.random.Generator] = {}

    def stream(self, key: str) -> np.random.Generator:
        """Return the (cached) generator for ``key``.

        The same key always yields the same generator object within one
        factory, so repeated lookups continue the stream rather than
        restarting it.
        """
        gen = self._cache.get(key)
        if gen is None:
            # zlib.crc32 is stable across processes and Python versions,
            # unlike hash(); SeedSequence mixes it with the master seed.
            key_hash = zlib.crc32(key.encode("utf-8"))
            ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(key_hash,))
            gen = np.random.Generator(np.random.PCG64(ss))
            self._cache[key] = gen
        return gen

    def fresh(self, key: str) -> np.random.Generator:
        """Return a *restarted* generator for ``key`` (drops cached state)."""
        self._cache.pop(key, None)
        return self.stream(key)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RngFactory(seed={self.seed}, streams={sorted(self._cache)})"
