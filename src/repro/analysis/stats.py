"""Small statistics helpers for experiment reporting.

Latency distributions in storage systems are long-tailed, so benches
report percentiles, not just means.  Implemented locally (rather than
scipy) to keep the measurement path obvious and dependency-light.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass


def mean(samples: Sequence[float]) -> float:
    if not samples:
        raise ValueError("mean of empty sample set")
    return sum(samples) / len(samples)


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    if not samples:
        raise ValueError("percentile of empty sample set")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = q / 100.0 * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * frac
    # Clamp away float rounding so percentiles stay monotone in q.
    return min(max(value, ordered[lo]), ordered[hi])


@dataclass(frozen=True)
class LatencySummary:
    """The numbers a latency table reports."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    worst: float

    def scaled(self, factor: float) -> "LatencySummary":
        """Unit conversion (e.g. seconds -> milliseconds)."""
        return LatencySummary(
            count=self.count,
            mean=self.mean * factor,
            p50=self.p50 * factor,
            p95=self.p95 * factor,
            p99=self.p99 * factor,
            worst=self.worst * factor,
        )

    def __str__(self) -> str:
        return (
            f"n={self.count} mean={self.mean:.3g} p50={self.p50:.3g} "
            f"p95={self.p95:.3g} p99={self.p99:.3g} max={self.worst:.3g}"
        )


def summarize(samples: Sequence[float]) -> LatencySummary:
    """Full latency summary of a sample set."""
    if not samples:
        raise ValueError("cannot summarize an empty sample set")
    return LatencySummary(
        count=len(samples),
        mean=mean(samples),
        p50=percentile(samples, 50),
        p95=percentile(samples, 95),
        p99=percentile(samples, 99),
        worst=max(samples),
    )
