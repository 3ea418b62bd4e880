"""Metric helpers used by experiments and their tests.

Besides the ratio helpers the original figures need, this module holds
the latency-distribution analytics the multi-client engine reports:
percentiles over per-operation latencies, a compact summary
(mean/p50/p95/p99/max), and Jain's fairness index over per-client
throughput.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


def speedup(baseline_seconds: float, improved_seconds: float) -> float:
    """How many times faster the improved time is than the baseline."""
    if improved_seconds <= 0:
        raise ValueError("improved time must be positive")
    return baseline_seconds / improved_seconds


def percent_improvement(baseline_seconds: float, improved_seconds: float) -> float:
    """Throughput improvement in percent (the paper's 10-300% figures)."""
    return (speedup(baseline_seconds, improved_seconds) - 1.0) * 100.0


def percentile(values: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile of ``values``, linearly interpolated.

    ``pct`` is in [0, 100].  Matches numpy's default ("linear") method,
    without needing numpy.
    """
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= pct <= 100.0:
        raise ValueError("percentile must be in [0, 100]: %r" % pct)
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return ordered[int(rank)]
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


@dataclass(frozen=True)
class LatencySummary:
    """Distribution of per-operation latencies (simulated seconds)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    maximum: float

    def render(self) -> str:
        """One line, in milliseconds."""
        return ("n=%d  mean=%.3fms  p50=%.3fms  p95=%.3fms  p99=%.3fms  max=%.3fms"
                % (self.count, self.mean * 1e3, self.p50 * 1e3,
                   self.p95 * 1e3, self.p99 * 1e3, self.maximum * 1e3))


def summarize_latencies(values: Sequence[float]) -> LatencySummary:
    """Mean and tail percentiles of a latency sample."""
    if not values:
        raise ValueError("cannot summarize an empty latency sample")
    return LatencySummary(
        count=len(values),
        mean=sum(values) / len(values),
        p50=percentile(values, 50.0),
        p95=percentile(values, 95.0),
        p99=percentile(values, 99.0),
        maximum=max(values),
    )


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index: (Σx)² / (n·Σx²), in (0, 1].

    1.0 means every client got an equal share; 1/n means one client got
    everything.  An all-zero sample is (vacuously) fair.
    """
    if not values:
        raise ValueError("fairness of an empty sequence")
    if any(v < 0 for v in values):
        raise ValueError("fairness is defined over non-negative values")
    square_sum = sum(v * v for v in values)
    if square_sum == 0.0:
        return 1.0
    total = sum(values)
    return (total * total) / (len(values) * square_sum)
