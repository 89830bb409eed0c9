"""Reference laws the tests hold the package against, stated independently of it.

The Frechet law's CDF and survival function, in closed form.  The package
samples this law by inverting the CDF (heavykp.rng); these functions are the
law itself, which the samplers' empirical distributions are compared with.

The SplitMix64 child rule of the stream tree in Python integers: the package
computes it over uint64 arrays (heavykp.rng.split_ids), and split_stream and
split_ids are both checked against this.

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


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(z: int) -> int:
    """SplitMix64 finalizer: a bijective scrambling of a 64-bit word."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def splitmix_child(stream_id: int, task_index: int) -> int:
    """stream_id of a stream's child task_index: mix(id ^ mix((task_index + 1) * golden))."""
    return splitmix64(stream_id ^ splitmix64((task_index + 1) * _GOLDEN))


def exact_ks(a, b) -> Fraction:
    """sup_q |F_a(q) - F_b(q)| in exact rational arithmetic, over every sample
    value: F(q) is the count of values <= q, found by bisection in the sorted
    sample, over the sample size."""
    sa, sb = sorted(a), sorted(b)
    return max(abs(Fraction(bisect_right(sa, q), len(sa)) - Fraction(bisect_right(sb, q), len(sb)))
               for q in {*sa, *sb})
