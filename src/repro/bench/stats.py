"""Latency/throughput statistics helpers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

__all__ = ["LatencyStats", "percentile"]


def percentile(samples: List[float], p: float) -> float:
    """Nearest-rank percentile; p in [0, 100]."""
    if not samples:
        raise ValueError("no samples")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile must be in [0,100], got {p}")
    s = sorted(samples)
    rank = max(1, math.ceil(p / 100 * len(s)))
    return s[rank - 1]


@dataclass
class LatencyStats:
    """Accumulates per-call latencies.

    Every accessor raises ``ValueError("no samples")`` on an empty
    accumulator (one uniform contract -- no bare ``ZeroDivisionError`` from
    ``mean`` or bare ``ValueError`` from the builtins in ``min``/``max``).
    """

    samples: List[float] = field(default_factory=list)

    def record(self, latency: float) -> None:
        self.samples.append(latency)

    def _require_samples(self) -> None:
        if not self.samples:
            raise ValueError("no samples")

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        self._require_samples()
        return sum(self.samples) / len(self.samples)

    @property
    def p50(self) -> float:
        return percentile(self.samples, 50)

    @property
    def p95(self) -> float:
        return percentile(self.samples, 95)

    @property
    def p99(self) -> float:
        return percentile(self.samples, 99)

    @property
    def min(self) -> float:
        self._require_samples()
        return min(self.samples)

    @property
    def max(self) -> float:
        self._require_samples()
        return max(self.samples)

    def summary(self) -> Dict[str, float]:
        """Snapshot dict for reports; ``{"count": 0}`` when empty."""
        if not self.samples:
            return {"count": 0}
        return {"count": self.count, "mean": self.mean, "p50": self.p50,
                "p95": self.p95, "p99": self.p99, "min": self.min,
                "max": self.max}
