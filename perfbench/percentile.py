"""Latency percentiles with the tail rule the benchmark reports by.

A tail percentile is only reported when at least ``MIN_BEYOND`` samples lie
beyond it; with fewer, one slow call decides the figure.
"""

from __future__ import annotations

import math
from typing import Sequence

MIN_BEYOND = 10
LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)


def _rank(n: int, p: float) -> int:
    # Rounded first, so that 99.9% of 10,000 is rank 9990, not 9991.
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def nearest_rank(sorted_samples: Sequence[float], p: float) -> float:
    """The p-th percentile by the nearest-rank method (no interpolation)."""
    if not sorted_samples:
        raise ValueError("no samples")
    return sorted_samples[_rank(len(sorted_samples), p) - 1]


def beyond(n: int, p: float) -> int:
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - _rank(n, p)


def resolvable(n: int, p: float) -> bool:
    return beyond(n, p) >= MIN_BEYOND


def highest_resolvable(n: int) -> float | None:
    """Highest percentile of LADDER with at least MIN_BEYOND samples beyond it."""
    best = None
    for p in LADDER:
        if resolvable(n, p):
            best = p
    return best


def summarize(samples: Sequence[float]) -> dict:
    """p50, p99 (None when unresolvable), the highest resolvable tail and n."""
    ordered = sorted(samples)
    n = len(ordered)
    tail = highest_resolvable(n)
    return {
        "n": n,
        "p50": nearest_rank(ordered, 50.0) if resolvable(n, 50.0) else None,
        "p99": nearest_rank(ordered, 99.0) if resolvable(n, 99.0) else None,
        "tail_percentile": tail,
        "tail": nearest_rank(ordered, tail) if tail is not None else None,
    }
