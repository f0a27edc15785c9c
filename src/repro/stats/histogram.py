"""Fixed-width bucket histogram with overflow bucket."""

from __future__ import annotations

import numpy as np


class Histogram:
    """Integer-sample histogram with ``num_bins`` buckets of ``bin_width``.

    Samples >= ``num_bins * bin_width`` land in the overflow bucket; this
    keeps the memory footprint constant while still exposing the tail mass,
    which matters for load-latency curves near saturation.
    """

    __slots__ = ("bin_width", "num_bins", "_counts", "overflow", "count")

    def __init__(self, bin_width: int = 1, num_bins: int = 256) -> None:
        if bin_width < 1:
            raise ValueError(f"bin_width must be >= 1, got {bin_width}")
        if num_bins < 1:
            raise ValueError(f"num_bins must be >= 1, got {num_bins}")
        self.bin_width = bin_width
        self.num_bins = num_bins
        self._counts = np.zeros(num_bins, dtype=np.int64)
        self.overflow = 0
        self.count = 0

    def add(self, x: int) -> None:
        """Accumulate one non-negative sample."""
        if x < 0:
            raise ValueError(f"histogram samples must be >= 0, got {x}")
        idx = x // self.bin_width
        if idx >= self.num_bins:
            self.overflow += 1
        else:
            self._counts[idx] += 1
        self.count += 1

    @property
    def counts(self) -> np.ndarray:
        """Read-only view of in-range bucket counts."""
        v = self._counts.view()
        v.flags.writeable = False
        return v

    def percentile(self, q: float) -> float:
        """Approximate q-th percentile (q in [0, 100]); bucket upper edge.

        Returns ``inf`` if the percentile falls in the overflow bucket.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            return 0.0
        target = self.count * q / 100.0
        cum = np.cumsum(self._counts)
        idx = int(np.searchsorted(cum, target, side="left"))
        if idx >= self.num_bins:
            return float("inf")
        return float((idx + 1) * self.bin_width)

    @property
    def mean(self) -> float:
        """Approximate mean using bucket midpoints (overflow excluded)."""
        in_range = self.count - self.overflow
        if in_range == 0:
            return 0.0
        mids = (np.arange(self.num_bins) + 0.5) * self.bin_width
        return float((self._counts * mids).sum() / in_range)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Histogram(n={self.count}, mean~={self.mean:.2f}, "
            f"overflow={self.overflow})"
        )
