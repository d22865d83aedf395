"""Order statistics used to summarise repeated timings."""

from __future__ import annotations

import math
import statistics

# Percentiles considered for the tail figure, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def tail_percentile(n: int, min_beyond: int = MIN_BEYOND) -> float | None:
    """Highest ladder percentile that leaves at least `min_beyond` of n samples above it.

    None when even the lowest ladder entry has fewer samples beyond it.
    """
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= min_beyond - 1e-9:
            return p
    return None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sequence")
    rank = max(1, math.ceil(p / 100.0 * len(xs)))
    return xs[rank - 1]


def summarize(values) -> dict:
    """Median, sample count and the tail percentile `tail_percentile` allows."""
    xs = list(values)
    out = {"median": statistics.median(xs), "n": len(xs)}
    p = tail_percentile(len(xs))
    if p is not None:
        out[f"p{p:g}"] = percentile(xs, p)
    return out

