"""Order statistics used by the benchmark report."""

from __future__ import annotations

import math
import statistics
from typing import NamedTuple


class Percentile(NamedTuple):
    value: float
    samples: int  # how many values the percentile was taken over
    beyond: int  # how many of them lie strictly above the percentile's rank


def percentile(values, q: float) -> Percentile:
    """Nearest-rank q-th percentile: the smallest value with at least q% of the
    samples at or below it.  With 100 samples, p90 has 10 samples beyond it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(q / 100 * len(ordered))
    return Percentile(ordered[rank - 1], len(ordered), len(ordered) - rank)


def summary(values) -> dict:
    """Median, quartiles and sample count, for the result record."""
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "samples": len(values),
    }
