"""Percentiles that carry their sample count, and quartiles.

A percentile is only reported when at least :data:`MIN_BEYOND` samples lie
beyond it (choosing-metrics guide §1): a p99 of 190 samples is one or two
observations, not a tail. Every summary carries ``n`` so the sample count
travels with the number.
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Sequence

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (``0 <= q <= 100``), as numpy's default."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the ``q``-th percentile."""
    return int(n * (100.0 - q) / 100.0 + 1e-9)


def resolved(n: int, q: float) -> bool:
    return samples_beyond(n, q) >= MIN_BEYOND


def highest_resolved(n: int, ladder: Sequence[float] = (99, 90, 50)) -> float | None:
    """The highest percentile of ``ladder`` with enough samples beyond it."""
    for q in sorted(ladder, reverse=True):
        if resolved(n, q):
            return q
    return None


def summarize(samples: Sequence[float], q: float, scale: float = 1.0) -> dict[str, Any]:
    """``{"value", "n"}`` for the ``q``-th percentile; ``value`` is ``None``
    when the tail is under-sampled, and ``n`` is always there."""
    n = len(samples)
    value = percentile(samples, q) * scale if resolved(n, q) else None
    return {"value": value, "n": n}


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(Q1, median, Q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
