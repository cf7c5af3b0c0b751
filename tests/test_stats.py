"""The sweep summary's confidence intervals and the acceptance gate's t-test.

scipy appears here as a test oracle and as the gate's t-test; the package
itself stays dependency-free for its statistics.
"""

import random

import pytest
from scipy import stats as scipy_stats

from fairdial.errors import StatsError
from fairdial.stats import mean_ci99


def one_sided_p(a, b):
    """p of the pooled-variance two-sample t-test for mean(a) < mean(b).

    Raises ValueError where the statistic is undefined, a sample of fewer
    than two values or zero pooled variance, rather than let scipy answer
    nan or p = 0 there.
    """
    if min(len(a), len(b)) < 2 or len(set(a)) == len(set(b)) == 1:
        raise ValueError("t statistic undefined for these samples")
    return scipy_stats.ttest_ind(a, b, equal_var=True, alternative="less").pvalue


def test_t_test_frozen_example():
    p = one_sided_p([1, 2, 3], [4, 5, 6])
    assert p == scipy_stats.ttest_ind(
        [1, 2, 3], [4, 5, 6], equal_var=True, alternative="less").pvalue
    assert p == pytest.approx(0.010655820564378415, rel=1e-9)


def test_one_sided_orientation():
    low = [0.0, 0.1, 0.2, 0.05]
    high = [1.0, 1.1, 0.9, 1.05]
    assert one_sided_p(low, high) < 0.01   # "a < b" strongly supported
    assert one_sided_p(high, low) > 0.99   # and refuted the other way
    # equal means give t = 0 and a one-sided p of exactly one half
    assert one_sided_p([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(
        0.5, rel=1e-12)


def test_t_test_degenerate_inputs():
    with pytest.raises(ValueError):
        one_sided_p([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        one_sided_p([2.0, 2.0], [2.0, 2.0])
    with pytest.raises(ValueError):
        one_sided_p([2.0, 2.0], [3.0, 3.0])


def test_mean_ci99():
    m, hw = mean_ci99([2.0, 2.0, 2.0])
    assert m == 2.0 and hw == 0.0
    m, hw = mean_ci99([7.5])
    assert m == 7.5 and hw == 0.0
    rng = random.Random(4)
    sample = [rng.gauss(10, 2) for _ in range(500)]
    m, hw = mean_ci99(sample)
    sem = scipy_stats.sem(sample)
    assert hw == pytest.approx(2.5758293035489004 * sem, rel=1e-9)
    assert abs(m - 10) < 4 * sem  # sanity, not a statistical assertion
    with pytest.raises(StatsError):
        mean_ci99([])
