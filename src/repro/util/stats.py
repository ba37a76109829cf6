"""Small statistics helpers used by experiments and reports."""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np


def percentile(values: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile (0-100) of ``values`` (linear interpolation).

    Raises ``ValueError`` on an empty input — an experiment asking for a
    percentile of nothing is a bug upstream, not a value to paper over.
    """
    if len(values) == 0:
        raise ValueError("percentile of empty sequence")
    return float(np.percentile(np.asarray(values, dtype=float), pct))


def quantiles(
    values: Sequence[float], pcts: Sequence[float] = (5, 25, 50, 75, 95)
) -> dict[float, float]:
    """Several percentiles at once, as ``{pct: value}``."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("quantiles of empty sequence")
    return {p: float(np.percentile(arr, p)) for p in pcts}


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean; every input must be strictly positive."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("geometric mean of empty sequence")
    if np.any(arr <= 0):
        raise ValueError("geometric mean requires strictly positive values")
    return float(math.exp(float(np.mean(np.log(arr)))))


#: the paper's Section 4 slowdown grouping, shared by the experiment
#: renderers and the pipeline's aggregator
SLOWDOWN_BUCKETS: list[tuple[float, float, str]] = [
    (0.0, 0.9, "<0.9"),
    (0.9, 1.1, "[0.9,1.1)"),
    (1.1, 2.0, "[1.1,2)"),
    (2.0, 10.0, "[2,10)"),
    (10.0, 100.0, "[10,100)"),
    (100.0, float("inf"), ">100"),
]


def bucketize_slowdowns(slowdowns: Sequence[float]) -> dict[str, float]:
    """Fractions per slowdown bucket (the paper's Section 4 grouping)."""
    if not slowdowns:
        raise ValueError("no slowdowns to bucketize")
    out = {label: 0.0 for _, _, label in SLOWDOWN_BUCKETS}
    for s in slowdowns:
        for lo, hi, label in SLOWDOWN_BUCKETS:
            if lo <= s < hi:
                out[label] += 1
                break
    n = len(slowdowns)
    return {label: count / n for label, count in out.items()}
