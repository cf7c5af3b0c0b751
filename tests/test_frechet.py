"""Discrete Fréchet distance against a literal coupling search."""

import itertools
import math
import random

import numpy as np
import pytest

from fairdial.boatsim.frechet import (
    _frechet_batch,
    _as_points,
    discrete_frechet,
    frechet_pairs,
)
from fairdial.errors import InputError
from reference_models import frechet_python


def full_table_frechet(p, q) -> float:
    """The unpruned antidiagonal sweep over a full n x m distance table.

    This is the vector kernel the pruned one replaced, kept as a reference:
    it uses the same ``np.hypot`` distances, so the two must agree bit for
    bit.  ``frechet_python`` uses ``math.hypot``, which may round the last
    bit differently, so comparisons with it allow a few ulps.
    """
    n, m = len(p), len(q)
    dist = np.hypot(p[:, None, 0] - q[None, :, 0], p[:, None, 1] - q[None, :, 1])
    inf = np.inf
    prev2 = np.full(n, inf)
    prev1 = np.full(n, inf)
    prev1[0] = dist[0, 0]
    for k in range(1, n + m - 1):
        i_lo = max(0, k - m + 1)
        i_hi = min(n - 1, k)
        shifted1 = np.empty(n)
        shifted1[0] = inf
        shifted1[1:] = prev1[:-1]  # (i-1, j)
        shifted2 = np.empty(n)
        shifted2[0] = inf
        shifted2[1:] = prev2[:-1]  # (i-1, j-1)
        best = np.minimum(prev1, np.minimum(shifted1, shifted2))
        cur = np.full(n, inf)
        idx = np.arange(i_lo, i_hi + 1)
        cur[i_lo : i_hi + 1] = np.maximum(best[i_lo : i_hi + 1], dist[idx, k - idx])
        prev2 = prev1
        prev1 = cur
    return float(prev1[n - 1])


def pruned(p, q) -> float:
    """The pruned kernel on one pair, bypassing the small-table dispatch."""
    return float(_frechet_batch(np.asarray(p)[None], np.asarray(q)[None])[0])


def assert_matches_references(p, q, python=True):
    got = pruned(p, q)
    assert got == full_table_frechet(p, q)  # bit for bit
    if python:
        assert got == pytest.approx(frechet_python(p.tolist(), q.tolist()),
                                    rel=1e-15, abs=0.0)


def brute_frechet(p, q):
    """Minimise, over all monotone couplings, the largest paired distance.

    Walks every lattice path from (0, 0) to (n-1, m-1) with steps in
    {right, down, diagonal}; exponential, so only for tiny curves.
    """
    n, m = len(p), len(q)

    def d(i, j):
        return math.hypot(p[i][0] - q[j][0], p[i][1] - q[j][1])

    best = [math.inf]

    def walk(i, j, acc):
        acc = max(acc, d(i, j))
        if acc >= best[0]:
            return
        if i == n - 1 and j == m - 1:
            best[0] = acc
            return
        if i + 1 < n:
            walk(i + 1, j, acc)
        if j + 1 < m:
            walk(i, j + 1, acc)
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, acc)

    walk(0, 0, 0.0)
    return best[0]


def random_curve(rng, max_len=8):
    return [(rng.uniform(-10, 10), rng.uniform(-10, 10))
            for _ in range(rng.randint(1, max_len))]


def test_identical_curves_have_zero_distance():
    rng = random.Random(0)
    for _ in range(20):
        c = random_curve(rng)
        assert discrete_frechet(c, c) == 0.0


def test_frozen_simple_cases():
    # parallel horizontal segments five apart
    a = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
    b = [(0.0, 5.0), (1.0, 5.0), (2.0, 5.0)]
    assert discrete_frechet(a, b) == pytest.approx(5.0, abs=1e-12)
    # single points
    assert discrete_frechet([(0, 0)], [(3, 4)]) == pytest.approx(5.0)
    # the walker may wait at a[0] through b's backtrack, paying hypot(2, 1)
    a = [(0.0, 0.0), (4.0, 0.0)]
    b = [(0.0, 1.0), (2.0, 1.0), (0.0, 1.0), (4.0, 1.0)]
    assert discrete_frechet(a, b) == pytest.approx(math.hypot(2, 1), abs=1e-12)
    assert discrete_frechet(a, b) == pytest.approx(brute_frechet(a, b), abs=1e-12)


def test_matches_brute_force_on_small_curves():
    rng = random.Random(42)
    for _ in range(500):
        a = random_curve(rng)
        b = random_curve(rng)
        got = discrete_frechet(a, b)
        want = brute_frechet(a, b)
        assert got == pytest.approx(want, abs=1e-9)


def test_symmetry_and_lower_bounds():
    rng = random.Random(7)
    for _ in range(100):
        a = random_curve(rng)
        b = random_curve(rng)
        ab = discrete_frechet(a, b)
        assert ab == pytest.approx(discrete_frechet(b, a), abs=1e-12)
        # endpoints must be coupled, so their distances bound from below
        assert ab >= math.hypot(a[0][0] - b[0][0], a[0][1] - b[0][1]) - 1e-12
        assert ab >= math.hypot(a[-1][0] - b[-1][0], a[-1][1] - b[-1][1]) - 1e-12


def test_python_and_vector_paths_agree():
    rng = random.Random(3)
    for _ in range(40):
        a = _as_points(random_curve(rng, max_len=30))
        b = _as_points(random_curve(rng, max_len=30))
        slow = frechet_python(a.tolist(), b.tolist())
        assert discrete_frechet(a, b) == pytest.approx(slow, rel=1e-15, abs=0.0)
    # and on long curves
    long_a = [(t * 0.1, math.sin(t * 0.1)) for t in range(300)]
    long_b = [(t * 0.1, math.sin(t * 0.1) + 2.0) for t in range(300)]
    assert discrete_frechet(long_a, long_b) == pytest.approx(2.0, abs=1e-9)


def _track(rng, n, noise=3.0, length=20000.0):
    """A boat-like trace: steady progress along x with a wandering y."""
    t = np.linspace(0.0, 1.0, n)
    wander = np.cumsum(rng.normal(0.0, noise, n))
    return np.column_stack([t * length + rng.normal(0.0, noise, n), 1000.0 + wander])


def test_pruned_matches_references_on_long_close_curves():
    rng = np.random.default_rng(11)
    base = _track(rng, 683)
    for n, m in ((683, 683), (683, 640), (600, 700)):
        p = base[np.linspace(0, 682, n).astype(int)] + rng.normal(0, 5, (n, 2))
        q = base[np.linspace(0, 682, m).astype(int)] + rng.normal(0, 5, (m, 2))
        assert_matches_references(p, q, python=(n, m) == (683, 640))


def test_pruned_matches_references_where_pruning_cuts_nothing():
    rng = np.random.default_rng(12)
    a = _track(rng, 250)
    # far apart: every cell lies below the bound
    assert_matches_references(a, a + np.array([0.0, 1e6]))
    # reversed: the start of one curve is coupled with the end of the other
    assert_matches_references(a, a[::-1].copy())
    assert_matches_references(a, _track(rng, 180)[::-1].copy())


def test_pruned_matches_references_on_edge_shapes():
    rng = np.random.default_rng(13)
    a = _track(rng, 120)
    b = _track(rng, 77)
    one = np.array([[5.0, 1000.0]])
    assert_matches_references(a, b)  # n != m
    assert_matches_references(b, a)
    assert pruned(a, a) == 0.0  # identical: every other sweep is empty
    assert pruned(a, a.copy()) == full_table_frechet(a, a) == 0.0
    assert_matches_references(a, one)  # single points
    assert_matches_references(one, a)
    assert_matches_references(one, one + 3.0)
    # a resting stretch (zero-length steps) next to an identical curve
    rest = np.concatenate([a, np.repeat(a[-1:], 40, axis=0)])
    assert pruned(rest, rest) == 0.0
    assert_matches_references(rest, a)
    # random clouds of every small shape
    gen = random.Random(5)
    for _ in range(200):
        p = _as_points(random_curve(gen, max_len=12))
        q = _as_points(random_curve(gen, max_len=12))
        assert_matches_references(p, q)


def test_batch_members_with_very_different_bounds():
    rng = np.random.default_rng(14)
    n, m = 300, 320
    members = []
    for kind in range(6):
        p = _track(rng, n)
        q = p[np.linspace(0, n - 1, m).astype(int)] + rng.normal(0, 4, (m, 2))
        if kind == 1:
            q = q + np.array([0.0, 5e4])  # far apart
        elif kind == 2:
            q = q[::-1].copy()  # reversed
        elif kind == 3:
            q = p[np.minimum(np.arange(m), n - 1)]  # identical, then resting
        elif kind == 4:
            q = _track(rng, m, noise=40.0)  # loosely related
        members.append((p, q))
    got = _frechet_batch(np.stack([p for p, _ in members]),
                         np.stack([q for _, q in members]))
    want = [full_table_frechet(p, q) for p, q in members]
    assert got.tolist() == want
    assert want[3] == 0.0 and len(set(want)) == len(want)
    # the public batched entry point gives discrete_frechet's floats
    assert frechet_pairs([p for p, _ in members], [q for _, q in members]) == want


def test_frechet_pairs_matches_discrete_frechet_per_pair():
    rng = np.random.default_rng(15)
    gen = random.Random(15)
    # pairs share sweeps by shape, small tables included
    firsts = [_track(rng, n) for n in (70, 70, 8, 70, 90)]
    seconds = [_track(rng, m) for m in (65, 65, 9, 80, 65)]
    firsts.append(random_curve(gen))
    seconds.append(random_curve(gen))
    got = frechet_pairs(firsts, seconds)
    assert got == [discrete_frechet(a, b) for a, b in zip(firsts, seconds)]
    for k in range(len(firsts)):
        p, q = _as_points(firsts[k]), _as_points(seconds[k])
        assert got[k] == full_table_frechet(p, q)
        assert got[k] == pytest.approx(frechet_python(p.tolist(), q.tolist()),
                                       rel=1e-15, abs=0.0)
    assert frechet_pairs([], []) == []
    with pytest.raises(InputError):
        frechet_pairs([firsts[0]], [])


def test_input_validation():
    with pytest.raises(InputError):
        discrete_frechet([], [(0, 0)])
    with pytest.raises(InputError):
        discrete_frechet([(0, 0)], [(1, 2, 3)])
    with pytest.raises(InputError):
        discrete_frechet([(0, 0)], [(math.nan, 0)])
    with pytest.raises(InputError):
        discrete_frechet([(0, 0)], [(math.inf, 0)])
