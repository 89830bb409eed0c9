"""Reference laws the tests hold the package against, stated independently of it.

Every oracle here is a function of plain numbers and arrays and imports
nothing from heavykp; tests/test_reference.py checks the last four against
closed forms.  Each oracle, and the tests that call it:

- frechet_tail, frechet_cdf: the Frechet law's survival function and CDF in
  closed form.  The package samples this law by inverting the CDF
  (heavykp.rng); these functions are the law itself, which the samplers'
  empirical distributions are compared with.  Called by test_rng and
  test_potentials.
- splitmix_child: the SplitMix64 child rule of the stream tree in Python
  integers.  The package computes it over uint64 arrays
  (heavykp.rng.split_ids); split_stream and split_ids are both checked
  against this.  Called by test_rng.
- exact_ks: the two-sample KS distance in exact rational arithmetic, by its
  definition.  Every KS distance of the package (ks_distance and
  chain_mixing's) comes from one kernel, stats._ks_distances, which is
  checked against this.  Called by test_stats and test_estimators.
- box_pieces: the (value, length) pieces covering exactly [0, L_box], by a
  left-to-right sum of the lengths.  Called by test_spectrum (the box cut
  and the scalar-flow trace) and by criterion 11 of test_acceptance.
- dense_zero_count: the sign changes of psi on (0, L_box], sampled densely
  in each piece's closed form from the phases at the piece boundaries.
  Called by test_spectrum (winding count) and criterion 11.
- rk4_polar_flow: a 4th-order integration of the phase and log-radius ODEs
  through one piece, batched over numpy arrays.  Called by test_prufer
  (the closed-form piece flow) and criterion 02.
- mp_piece: the piece propagator as an mpmath matrix at the working
  precision, from the defining cos/cosh formulas.  Called by test_transfer
  (piece entries and chain products) and test_prufer (the flow's action on
  a frame vector).
"""
import math
from bisect import bisect_right
from fractions import Fraction
from typing import List, Sequence, Tuple, Union

import mpmath as mp
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


def box_pieces(values, lengths, L_box: float) -> List[Tuple[float, float]]:
    """(value, length) of the pieces covering exactly [0, L_box].

    Whole pieces up to the first whose right edge reaches L_box (the last
    piece if none does); that one is cut to L_box minus its left edge unless
    its right edge is L_box itself.
    """
    out = []
    left = 0.0
    last = len(values) - 1
    for i, (value, length) in enumerate(zip(values, lengths)):
        right = left + length
        if right >= L_box or i == last:
            out.append((value, length if right == L_box else L_box - left))
            return out
        out.append((value, length))
        left = right


def dense_zero_count(pieces: Sequence[Tuple[float, float]], thetas, lam: float, k: float) -> int:
    """Sign changes of psi on (0, x_end], sampled piecewise in closed form.

    pieces are (value, length) left to right and thetas the phases at their
    left edges, (psi, psi'/k) = r (sin theta, cos theta).  Within a piece psi
    is sampled on a grid of at least 64 points (10 per half-period on an
    oscillatory piece); the winding logic of the walk plays no role.
    Hyperbolic pieces use the tanh form, so arbitrarily heavy bumps cannot
    overflow.
    """
    signs: list = []
    psi0 = math.sin(thetas[0])
    if psi0 != 0.0:
        signs.append(math.copysign(1.0, psi0))
    for theta, (value, length) in zip(thetas, pieces):
        s0 = math.sin(theta)
        c0 = math.cos(theta)
        if lam > value:
            b = math.sqrt(lam - value)
            t = np.linspace(0.0, length, max(64, int(10.0 * b * length / math.pi)) + 1)[1:]
            vals = s0 * np.cos(b * t) + (k / b) * c0 * np.sin(b * t)
        elif lam < value:
            b = math.sqrt(value - lam)
            t = np.linspace(0.0, length, 65)[1:]
            # sign(psi) = sign(s0 + (k/b) c0 tanh(b t)); the cosh factor is positive
            vals = s0 + (k / b) * c0 * np.tanh(b * t)
        else:
            t = np.linspace(0.0, length, 65)[1:]
            vals = s0 + k * c0 * t
        signs.extend(np.sign(vals)[np.sign(vals) != 0.0])
    arr = np.array(signs)
    return int(np.sum(arr[:-1] * arr[1:] < 0.0))


def rk4_polar_flow(theta0, value, length, lam, k, n_steps: int) -> Tuple[np.ndarray, np.ndarray]:
    """(theta, log r) after one piece, by n_steps classical RK4 steps, batched.

    Integrates theta' = k cos^2 + ((lam - V)/k) sin^2 and
    (log r)' = (k - (lam - V)/k) sin cos from (theta0, 0); the arguments
    broadcast against each other.  The polar flow keeps strongly contracted
    solutions well conditioned, where the matrix-times-vector route would
    cancel catastrophically.
    """
    th, value, length, lam, k = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (theta0, value, length, lam, k)))
    q = (lam - value) / k
    kq = k - q
    h = length / n_steps
    hh, h6 = 0.5 * h, h / 6.0
    lr = np.zeros_like(th)

    def f(th):
        s = np.sin(th)
        c = np.cos(th)
        return k * c * c + q * s * s, kq * s * c

    for _ in range(n_steps):
        d1t, d1r = f(th)
        d2t, d2r = f(th + hh * d1t)
        d3t, d3r = f(th + hh * d2t)
        d4t, d4r = f(th + h * d3t)
        lr = lr + h6 * (d1r + 2.0 * d2r + 2.0 * d3r + d4r)
        th = th + h6 * (d1t + 2.0 * d2t + 2.0 * d3t + d4t)
    return th, lr


def mp_piece(value: float, length: float, lam: float, k: float) -> mp.matrix:
    """Piece propagator [[c, k l s], [(V - lam) l s / k, c]] at the working precision.

    u = (lam - V) l^2; c, s = cos w, sin(w)/w with w = sqrt(u) for u > 0,
    cosh a, sinh(a)/a with a = sqrt(-u) for u < 0, and 1, 1 at u = 0.
    """
    u = (mp.mpf(lam) - mp.mpf(value)) * mp.mpf(length) ** 2
    if u == 0:
        c, s = mp.mpf(1), mp.mpf(1)
    elif u > 0:
        w = mp.sqrt(u)
        c, s = mp.cos(w), mp.sin(w) / w
    else:
        a = mp.sqrt(-u)
        c, s = mp.cosh(a), mp.sinh(a) / a
    m01 = mp.mpf(k) * mp.mpf(length) * s
    m10 = (mp.mpf(value) - mp.mpf(lam)) * mp.mpf(length) * s / mp.mpf(k)
    return mp.matrix([[c, m01], [m10, c]])
