"""Nearest-rank percentiles that refuse to report past the data.

A percentile is only as good as the samples beyond it: with ``n = 2``
a "p95" is one of the two samples, and the index formula
``values[int(0.95 * (n - 1))]`` even returns the *smaller* one.  Here a
percentile is the nearest-rank value — the smallest sample with at
least ``q`` percent of the samples at or below it — and it is refused
unless at least :data:`MIN_TAIL` samples lie beyond its rank.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

__all__ = ["MIN_TAIL", "InsufficientSamples", "nearest_rank", "percentile", "summary"]

#: Samples that must lie beyond a reported percentile's rank.
MIN_TAIL = 10


class InsufficientSamples(ValueError):
    """A percentile was asked of too few samples to support it."""


def _rank(n: int, q: float) -> int:
    # Exact rational arithmetic: 0.95 * 200 must be rank 190, not 191.
    return max(1, math.ceil(Fraction(str(q)) * n / 100))


def nearest_rank(values: Sequence[float], q: float, *, min_tail: int = MIN_TAIL) -> float:
    """The ``q``-th percentile (``0 < q < 100``) of ``values`` by nearest rank.

    Raises :class:`InsufficientSamples` when fewer than ``min_tail``
    samples lie beyond the rank.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(values)
    if n == 0:
        raise InsufficientSamples(f"p{q:g} of no samples")
    rank = _rank(n, q)
    if n - rank < min_tail:
        raise InsufficientSamples(
            f"p{q:g} of {n} samples has {n - rank} beyond it; {min_tail} needed"
        )
    return sorted(values)[rank - 1]


def percentile(values: Sequence[float], q: float) -> dict:
    """``{"value", "n", "beyond"}`` for the ``q``-th nearest-rank percentile."""
    value = nearest_rank(values, q)
    n = len(values)
    return {"value": value, "n": n, "beyond": n - _rank(n, q)}


def summary(values: Sequence[float]) -> dict:
    """Sample count, median, and the highest of p90/p95/p99 the data supports."""
    out: dict = {"n": len(values)}
    for q in (50, 90, 95, 99):
        try:
            out[f"p{q}"] = nearest_rank(values, q)
        except InsufficientSamples:
            break
    return out
