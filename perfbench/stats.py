"""Order statistics for timing samples.

A tail is reported as the highest whole percentile that still has at least
``TAIL_BEYOND`` samples above it, by the nearest-rank rule. Below
``MIN_TAIL_SAMPLES`` samples such a percentile would sit at or below the
75th, which is no tail, so only the median is reported. The median is the
standard library's.
"""

from __future__ import annotations

from statistics import median

__all__ = ["MIN_TAIL_SAMPLES", "TAIL_BEYOND", "median", "tail"]

TAIL_BEYOND = 10
MIN_TAIL_SAMPLES = 40


def _rank(p: int, n: int) -> int:
    """1-based nearest rank of the p-th percentile among n samples."""
    return -(-p * n // 100)


def tail(values) -> tuple[int, float] | None:
    """(percentile, value) of the highest percentile with TAIL_BEYOND samples
    beyond it, or None when there are fewer than MIN_TAIL_SAMPLES samples."""
    xs = sorted(values)
    n = len(xs)
    if n < MIN_TAIL_SAMPLES:
        return None
    p = max(p for p in range(1, 100) if n - _rank(p, n) >= TAIL_BEYOND)
    return p, float(xs[_rank(p, n) - 1])
