"""Order statistics and ratios the benchmark reports."""
from __future__ import annotations

import math
import statistics

TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
TAIL_BEYOND = 10


def rank(n: int, p: float) -> int:
    """1-based nearest rank of the p-th percentile among n samples."""
    return max(1, math.ceil(p * n / 100))


def tail_percentile(n: int, beyond: int = TAIL_BEYOND) -> float | None:
    """The highest ladder percentile with at least `beyond` of `n` samples
    above it, or None when even the median has fewer."""
    found = None
    for p in TAIL_LADDER:
        if n - rank(n, p) < beyond:
            break
        found = p
    return found


def percentile(samples, p: float) -> float:
    """Mean of the samples ranked within 2% of n (at least one rank) of the
    p-th percentile's nearest rank. Inputs fall into clusters (the oracle
    finds a model at 1, 2 or 3 elements), and a bare order statistic on the
    edge of a cluster jumps to the next cluster when two inputs swap ranks."""
    ordered = sorted(samples)
    i = rank(len(ordered), p) - 1
    k = max(1, len(ordered) // 50)
    return statistics.fmean(ordered[max(0, i - k): i + k + 1])


def hit_ratio(hits: int, misses: int) -> float:
    """Share of lookups that found a cached node; 0 when there were none."""
    lookups = hits + misses
    return hits / lookups if lookups else 0.0
