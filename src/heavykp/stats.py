"""Small statistics kit: KS distances, least squares, mean CIs.

Kept deliberately minimal and self-contained; estimator modules build on
these primitives so their numerical behavior is pinned down in one place.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np


def ks_distance(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov distance sup_q |F_a(q) - F_b(q)|.

    Takes two samples of any shape, flattened.  An empty sample is refused,
    and so is a sample holding NaN or +-inf.  The distance is _ks_distances'
    count difference divided once, so it is the correctly rounded fraction
    (k/n for two samples of n) wherever the supremum sits.
    """
    xa = np.asarray(a, dtype=float).ravel()
    xb = np.asarray(b, dtype=float).ravel()
    if xa.size == 0 or xb.size == 0:
        raise ValueError("empirical CDF needs at least one sample")
    return float(_ks_distances(np.concatenate([xa, xb])[None], (xa.size, xb.size))[0, 0, 1])


def _ks_distances(samples: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """KS distances between the samples laid end to end in each row of samples.

    samples is (rows, N), each row holding m samples of the given sizes
    (summing to N) one after another.  Entry [r, i, j] of the (rows, m, m)
    result is sup_q |F_i(q) - F_j(q)| in row r.  The supremum over the jump
    points, taken in any order, is exact for step functions; between the
    jumps of samples i and j their difference is constant, so the jump
    points of the whole row serve every pair.  Each row is sorted once, and
    sample i's count c_i of values at or below a point is its running count
    read at the end of the point's run of equal values.  The distance is
    taken over these integer counts and divided once,
    max |c_i n_j - c_j n_i| / (n_i n_j).  A row whose first or last sorted
    value is not finite holds NaN (sorted last) or +-inf and is refused.
    """
    rows, total = samples.shape
    order = np.argsort(samples, axis=1)
    ordered = np.take_along_axis(samples, order, axis=1)
    if not (np.isfinite(ordered[:, 0]).all() and np.isfinite(ordered[:, -1]).all()):
        raise ValueError("samples must be finite")
    run_end = np.empty(ordered.shape, dtype=bool)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=run_end[:, :-1])
    run_end[:, -1] = True
    del ordered
    m = len(sizes)
    sample = np.repeat(np.arange(m, dtype=np.min_scalar_type(m - 1)), sizes)[order]
    del order
    # c_i n_j <= n_i n_j <= N max(n): int32 is exact below 2^31 and faster
    int_t = np.int32 if total * max(sizes) < 2 ** 31 else np.int64
    counts = [np.cumsum(sample == i, axis=1, dtype=int_t) for i in range(m)]
    out = np.zeros((rows, m, m))
    for i in range(m):
        for j in range(i + 1, m):
            gap = counts[i] * int_t(sizes[j])
            gap -= counts[j] * int_t(sizes[i])
            np.abs(gap, out=gap)
            gap *= run_end
            out[:, i, j] = out[:, j, i] = gap.max(axis=1) / (sizes[i] * sizes[j])
    return out


class LinearFit(NamedTuple):
    slope: float
    intercept: float
    r_squared: float


def linear_fit(x, y) -> LinearFit:
    """Ordinary least squares y ~ slope * x + intercept.

    r_squared is 1 - SS_res/SS_tot; a constant y (SS_tot = 0) is reported as
    a perfect fit with slope 0.  Degenerate x (all values equal) is refused.
    """
    xa = np.asarray(x, dtype=float).ravel()
    ya = np.asarray(y, dtype=float).ravel()
    if xa.size != ya.size:
        raise ValueError("x and y must have equal length")
    if xa.size < 2:
        raise ValueError("need at least two points")
    if not (np.all(np.isfinite(xa)) and np.all(np.isfinite(ya))):
        raise ValueError("fit inputs must be finite")
    xm = xa.mean()
    ym = ya.mean()
    dx = xa - xm
    dy = ya - ym
    sxx = float(dx @ dx)
    if sxx == 0.0:
        raise ValueError("x values are all equal; slope is undefined")
    slope = float(dx @ dy) / sxx
    intercept = ym - slope * xm
    resid = ya - (slope * xa + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(dy @ dy)
    if ss_tot == 0.0:
        return LinearFit(slope=slope, intercept=intercept, r_squared=1.0)
    return LinearFit(slope=slope, intercept=intercept, r_squared=1.0 - ss_res / ss_tot)


# The standard normal quantile at 0.975, the z of a 95% interval: the double
# that statistics.NormalDist().inv_cdf(0.975) returns.
_Z_95 = 1.9599639845400536


class MeanCi(NamedTuple):
    mean: float
    half_width: float


def mean_ci(values) -> MeanCi:
    """Normal-approximation 95% confidence interval for the mean.

    half_width = z * s / sqrt(n) with s the ddof=1 sample standard deviation
    and z = _Z_95, the standard normal quantile at 0.975.
    """
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size < 2:
        raise ValueError("need at least two samples for a confidence interval")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite")
    s = float(arr.std(ddof=1))
    return MeanCi(mean=float(arr.mean()), half_width=_Z_95 * s / math.sqrt(arr.size))
