"""Discrete Fréchet distance between polylines.

The classic dynamic programme: walking both curves forward only, the
coupling cost at (i, j) is the larger of the point distance and the best
predecessor.  Every input runs through one batched sweep over antidiagonals
of the DP table that never builds the table, so a pair of curves has one
answer whatever its size.

The sweep prunes with an upper bound, after Bringmann, Künnemann & Nusser,
"Walking the Dog Fast in Practice" (SoCG 2019): any monotone coupling
bounds the distance from above, so a cell whose value exceeds the bound
cannot lie on an optimal coupling and is dropped.  This is exact, since
``min`` and ``max`` only ever select point distances that already exist;
the result is the same float, bit for bit, as the full table's.
"""

from __future__ import annotations

import numpy as np

from ..errors import InputError


def _as_points(curve):
    arr = np.asarray(curve, dtype=float)
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] != 2:
        raise InputError("a curve must be a non-empty sequence of (x, y) points")
    if not np.isfinite(arr).all():
        raise InputError("curve contains non-finite coordinates")
    return arr


def _coupling_bound(px, py, qx, qy):
    """Per-curve upper bound: the cheaper of two monotone couplings.

    One walks both curves in step and then holds the shorter one at its
    end, which suits curves sampled at the same instants; the other walks
    the longer curve while the shorter advances in proportion.  Distances
    use the sweep's own expression, so a bound is never below the value
    the sweep computes for its coupling.
    """
    n, m = px.shape[1], qx.shape[1]
    steps = np.arange(max(n, m))
    in_step = (np.minimum(steps, n - 1), np.minimum(steps, m - 1))
    if n >= m:
        proportional = (steps, steps * (m - 1) // max(n - 1, 1))
    else:
        proportional = (steps * (n - 1) // (m - 1), steps)
    return np.minimum(*(
        np.hypot(px[:, i] - qx[:, j], py[:, i] - qy[:, j]).max(axis=1)
        for i, j in (in_step, proportional)
    ))


def _frechet_batch(p, q) -> np.ndarray:
    """Exact discrete Fréchet distances of ``p[b]`` to ``q[b]``.

    ``p`` is (B, n, 2) and ``q`` is (B, m, 2).  Antidiagonal k holds the
    cells (i, k - i); its point distances come from a slice of ``p`` and
    a slice of ``q`` reversed, so no n x m table is formed.  Each sweep is
    a row of length n + 1 indexed by i + 1, with inf at index 0 and outside
    the live window; cell (i, j) reads (i, j - 1) and (i - 1, j) from sweep
    k - 1 and (i - 1, j - 1) from sweep k - 2.  A cell is live when its
    value is at most the batch member's bound.  Sweep k can only reach
    cells next to the live cells of sweeps k - 1 and k - 2, and the window
    covers both: a diagonal step skips a sweep, and on identical curves
    every other sweep is empty.
    """
    n, m = p.shape[1], q.shape[1]
    px = np.ascontiguousarray(p[:, :, 0])
    py = np.ascontiguousarray(p[:, :, 1])
    qx = np.ascontiguousarray(q[:, ::-1, 0])  # qx[:, m - 1 - j] is point j
    qy = np.ascontiguousarray(q[:, ::-1, 1])
    bound = _coupling_bound(px, py, qx[:, ::-1], qy[:, ::-1])[:, None]
    inf = np.inf
    prev2 = np.full((p.shape[0], n + 1), inf)
    prev1 = np.full_like(prev2, inf)
    cur = np.full_like(prev2, inf)
    prev1[:, 1] = np.hypot(px[:, 0] - qx[:, m - 1], py[:, 0] - qy[:, m - 1])
    empty = (n + m, -n - m)  # lo > hi, and min/max pass the other window
    (lo1, hi1), (lo2, hi2) = (0, 0), empty  # live windows of sweeps k-1, k-2
    stale = empty  # window of sweep k - 3, which ``cur`` still holds
    for k in range(1, n + m - 1):
        lo = max(min(lo1, lo2 + 1), k - m + 1)
        hi = min(max(hi1, hi2) + 1, n - 1, k)
        cur[:, stale[0] + 1:stale[1] + 2] = inf
        if lo <= hi:
            s = m - 1 - k
            dist = np.hypot(px[:, lo:hi + 1] - qx[:, s + lo:s + hi + 1],
                            py[:, lo:hi + 1] - qy[:, s + lo:s + hi + 1])
            best = np.minimum(prev1[:, lo + 1:hi + 2], prev1[:, lo:hi + 1])
            np.minimum(best, prev2[:, lo:hi + 1], out=best)
            window = cur[:, lo + 1:hi + 2]
            np.maximum(best, dist, out=window)
            live = np.flatnonzero((window <= bound).any(axis=0)).tolist()
            lo, hi = (lo + live[0], lo + live[-1]) if live else empty
        else:
            lo, hi = empty
        stale = (lo2, hi2)
        (lo1, hi1), (lo2, hi2) = (lo, hi), (lo1, hi1)
        prev2, prev1, cur = prev1, cur, prev2
    return prev1[:, n].copy()


def frechet_pairs(curves_a, curves_b) -> list:
    """``[discrete_frechet(a, b) for a, b in zip(curves_a, curves_b)]``.

    Every pair runs in one batched sweep.  First curves are padded to the
    longest first curve, and second curves to the longest second curve, by
    repeating their last point.  A repeated point leaves the distance
    unchanged, and it adds no new point distance, so the values are the
    same floats as each pair's own sweep gives.
    """
    if len(curves_a) != len(curves_b):
        raise InputError("need as many second curves as first curves")
    if not curves_a:
        return []
    return _frechet_batch(_padded(curves_a), _padded(curves_b)).tolist()


def _padded(curves) -> np.ndarray:
    """(B, longest, 2) points, each curve padded by repeating its last point."""
    points = [_as_points(c) for c in curves]
    longest = max(len(p) for p in points)
    return np.stack([np.pad(p, ((0, longest - len(p)), (0, 0)), mode="edge")
                     for p in points])


def discrete_frechet(curve_a, curve_b) -> float:
    """Discrete Fréchet distance between two point sequences."""
    return frechet_pairs([curve_a], [curve_b])[0]
