"""Summary statistics for simulation runs.

Benchmarks record samples (e.g. per-attachment durations, per-run
completion times) into :class:`SeriesStats`; figures are generated from
these summaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List


@dataclass
class SeriesStats:
    """Streaming mean/variance/min/max over a sample series (Welford)."""

    count: int = 0
    mean: float = 0.0
    _m2: float = 0.0
    min: float = math.inf
    max: float = -math.inf

    def add(self, x: float) -> None:
        """Fold one sample into the running statistics."""
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (x - self.mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    def extend(self, xs: Iterable[float]) -> None:
        """Fold an iterable of samples in."""
        for x in xs:
            self.add(x)

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1)."""
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stdev(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    def summary(self) -> Dict[str, float]:
        """Dict of count/mean/stdev/min/max."""
        return {
            "count": self.count,
            "mean": self.mean,
            "stdev": self.stdev,
            "min": self.min if self.count else float("nan"),
            "max": self.max if self.count else float("nan"),
        }


def percentile(sorted_xs: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted list, q in [0, 100]."""
    if not sorted_xs:
        raise ValueError("percentile of empty series")
    if not 0 <= q <= 100:
        raise ValueError(f"q out of range: {q}")
    if q == 0:
        return sorted_xs[0]
    rank = math.ceil(q / 100.0 * len(sorted_xs))
    return sorted_xs[rank - 1]
