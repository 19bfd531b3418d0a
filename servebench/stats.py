"""Percentiles, spreads and span self-times used by the benchmark."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A tail percentile is reported only with this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of the *q*-quantile among *n* samples."""
    return max(1, min(n, math.ceil(q * n - 1e-9)))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank *q*-quantile (0 < q < 1) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[_rank(len(ordered), q) - 1]


def tail(values: Sequence[float], q: float) -> Optional[float]:
    """The *q*-quantile, or None when fewer than
    :data:`MIN_TAIL_SAMPLES` samples lie beyond it."""
    if len(values) - _rank(len(values), q) < MIN_TAIL_SAMPLES:
        return None
    return percentile(values, q)


def summary(values: Sequence[float]) -> Dict[str, object]:
    """Median, mean, supported tails and the sample count."""
    doc: Dict[str, object] = {"n": len(values)}
    if values:
        doc["p50"] = statistics.median(values)
        doc["mean"] = statistics.fmean(values)
        for name, q in (("p90", 0.90), ("p99", 0.99)):
            value = tail(values, q)
            if value is not None:
                doc[name] = value
    return doc


def spread(values: Sequence[float]) -> Tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)`` as the steadiness rule
    defines it (``statistics.quantiles(values, n=4)``)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    rel = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, rel


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(
    start: float, end: float, children: Iterable[Tuple[float, float]]
) -> float:
    """A span's duration minus the union of its children's intervals
    (clipped to the span)."""
    clipped: List[Tuple[float, float]] = []
    for c_start, c_end in children:
        c_start, c_end = max(c_start, start), min(c_end, end)
        if c_end > c_start:
            clipped.append((c_start, c_end))
    return (end - start) - union_length(clipped)
