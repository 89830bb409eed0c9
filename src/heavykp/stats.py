"""Small statistics kit: empirical CDFs, KS distance, least squares, mean CIs.

Kept deliberately minimal and self-contained; estimator modules build on
these primitives so their numerical behavior is pinned down in one place.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import NamedTuple, Union

import numpy as np


@dataclass(frozen=True)
class Ecdf:
    """Right-continuous empirical CDF of a finite sample."""

    sorted_values: np.ndarray

    @classmethod
    def from_samples(cls, values) -> "Ecdf":
        arr = np.asarray(values, dtype=float).ravel()
        if arr.size == 0:
            raise ValueError("empirical CDF needs at least one sample")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite")
        return cls(sorted_values=np.sort(arr))

    def evaluate(self, q) -> Union[float, np.ndarray]:
        """F(q) = fraction of samples <= q (right-continuous step function)."""
        n = self.sorted_values.size
        idx = np.searchsorted(self.sorted_values, q, side="right")
        out = idx / n
        if np.ndim(q) == 0:
            return float(out)
        return out


def _coerce_ecdf(x) -> Ecdf:
    if isinstance(x, Ecdf):
        return x
    return Ecdf.from_samples(x)


def ks_distance(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov distance sup_q |F_a(q) - F_b(q)|.

    Accepts raw samples or prebuilt Ecdf objects.  The supremum over the
    union of jump points is exact for step functions.
    """
    fa = _coerce_ecdf(a)
    fb = _coerce_ecdf(b)
    grid = np.concatenate([fa.sorted_values, fb.sorted_values])
    grid.sort(kind="mergesort")
    da = fa.evaluate(grid) - fb.evaluate(grid)
    return float(np.max(np.abs(da)))


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


class MeanCi(NamedTuple):
    mean: float
    half_width: float
    level: float


def mean_ci(values, level: float = 0.95) -> MeanCi:
    """Normal-approximation confidence interval for the mean.

    half_width = z * s / sqrt(n) with s the ddof=1 sample standard deviation
    and z the standard normal quantile at (1 + level)/2.
    """
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size < 2:
        raise ValueError("need at least two samples for a confidence interval")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite")
    if not (0.0 < level < 1.0):
        raise ValueError("level must lie in (0, 1)")
    z = NormalDist().inv_cdf(0.5 * (1.0 + level))
    s = float(arr.std(ddof=1))
    return MeanCi(mean=float(arr.mean()), half_width=z * s / math.sqrt(arr.size), level=level)
