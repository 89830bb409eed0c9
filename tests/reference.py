"""Reference laws the tests hold the package against, stated independently of it.

The Frechet law's CDF and survival function, in closed form.  The package
samples this law by inverting the CDF (heavykp.rng); these functions are the
law itself, which the samplers' empirical distributions are compared with.

The two-sample KS distance in exact rational arithmetic, by its definition:
every KS distance of the package (ks_distance and chain_mixing's) comes from
one kernel, stats._ks_distances, which is checked against this.
"""
from bisect import bisect_right
from fractions import Fraction
from typing import Union

import numpy as np


def frechet_tail(alpha: float, z) -> Union[float, np.ndarray]:
    """Survival function P(Z > z) = 1 - exp(-z**-alpha) of the Frechet law."""
    arr = np.asarray(z, dtype=float)
    out = -np.expm1(-arr ** (-alpha))
    if np.ndim(z) == 0:
        return float(out)
    return out


def frechet_cdf(alpha: float, z) -> Union[float, np.ndarray]:
    """CDF exp(-z**-alpha) of the Frechet law, 0 for z <= 0."""
    arr = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore"):
        out = np.where(arr > 0.0, np.exp(-np.where(arr > 0.0, arr, 1.0) ** (-alpha)), 0.0)
    if np.ndim(z) == 0:
        return float(out)
    return out


def exact_ks(a, b) -> Fraction:
    """sup_q |F_a(q) - F_b(q)| in exact rational arithmetic, over every sample
    value: F(q) is the count of values <= q, found by bisection in the sorted
    sample, over the sample size."""
    sa, sb = sorted(a), sorted(b)
    return max(abs(Fraction(bisect_right(sa, q), len(sa)) - Fraction(bisect_right(sb, q), len(sb)))
               for q in {*sa, *sb})
