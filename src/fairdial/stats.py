"""Normal-approximation confidence intervals for the sweep summary."""

from __future__ import annotations

import math
from statistics import fmean

from .errors import StatsError

# two-sided 99% normal quantile, used for confidence intervals on means
Z99 = 2.5758293035489004


def mean_ci99(sample):
    """Sample mean with a normal-approximation 99% half-width."""
    vals = [float(v) for v in sample]
    n = len(vals)
    if n == 0:
        raise StatsError("empty sample")
    m = fmean(vals)
    if n == 1:
        return m, 0.0
    var = sum((v - m) ** 2 for v in vals) / (n - 1)
    return m, Z99 * math.sqrt(var / n)
