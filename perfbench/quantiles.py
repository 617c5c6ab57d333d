"""Exact order statistics for simulated latencies.

Every latency the benchmark reports — ``LoadResult.latencies_ns`` for
``serve``, the per-tenant latency lists for ``tenants`` — goes through
:func:`quantile`, one nearest-rank convention, never through the bucket
interpolation of ``Histogram.quantile``.
"""

from __future__ import annotations

import math
from fractions import Fraction

#: Percentiles considered for the "highest supported" tail report.
PERCENTILES = ("50", "90", "99", "99.9", "99.99")

#: A percentile is reported only with at least this many samples above it.
MIN_TAIL = 10


def rank(n: int, q: float | str) -> int:
    """1-based nearest rank of the ``q``-quantile among ``n`` samples:
    the smallest ``k`` with ``k >= q * n``.  ``q`` goes through its
    decimal string so 0.999 * 1500 is 1498.5, not a float artefact."""
    if n <= 0:
        raise ValueError("quantile of an empty sample")
    if not 0 < float(q) <= 1:
        raise ValueError(f"quantile {q!r} outside (0, 1]")
    return max(1, math.ceil(Fraction(str(q)) * n))


def quantile(sorted_values: list[float], q: float | str) -> float:
    """The exact ``q``-quantile of an ascending list: the smallest sample
    with at least ``q * n`` samples at or below it."""
    return sorted_values[rank(len(sorted_values), q) - 1]


def beyond(n: int, percentile: str) -> int:
    """Samples strictly above the nearest-rank ``percentile``."""
    return n - rank(n, Fraction(percentile) / 100)


def highest_supported(n: int) -> str | None:
    """The highest of :data:`PERCENTILES` with at least :data:`MIN_TAIL`
    samples beyond it, or ``None`` when even the median has fewer."""
    best = None
    for p in PERCENTILES:
        if n and beyond(n, p) >= MIN_TAIL:
            best = p
    return best
