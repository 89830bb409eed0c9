"""Finite-box spectral solver built on the phase flow.

A chain restricted to [0, L_box] with the sampled boundary condition at 0 and
a Dirichlet condition at L_box has pure point spectrum.  The unwound phase
theta_lambda(L_box) is continuous and strictly increasing in lambda, equals a
multiple of pi exactly at eigenvalues, and counts eigenvalues through its
winding: floor(theta/pi) is the number of eigenvalues below lambda.  That
turns eigenvalue location into a one-dimensional bracketed root search, with
no matrices to diagonalize and no mesh.

Every phase evaluation is one walk of the truncated chain at a single energy
(prufer.walk_chain): all piece matrices are built in one vectorized call, a
plain float loop carries the unit solution vector across them, and the
winding is counted in bulk from the stored boundary vectors.  A BoxProblem
cuts the realization's (values, lengths) columns once, at construction, so
the search rebuilds nothing between evaluations.  The cut keeps every piece
that ends before L_box whole and ends the box with exactly one cut piece,
of length L_box minus the right edge of the last whole piece; a box that
ends on a piece boundary cuts nothing.

The search is a safeguarded Brent-Dekker iteration on a bracket of the m-th
crossing theta = m pi.  While a bracket end is a full turn or more away from
m pi it interpolates theta itself; after that it interpolates the Dirichlet
residual psi(L_box) = r sin(theta), which is smooth in lambda and close to
linear near the crossing, where theta of a localized state is a near-step
too narrow for a secant on theta.  A point's side of the
crossing comes from its phase alone.  Every walk of one box goes into one
table, and each eigenvalue starts from the tightest bracket the table
already holds.

Eigenfunction decay is measured from the Dirichlet end: walking the reflected
chain inward from (L_box, psi = 0), the log radius grows along the expanding
direction of the product, so at localized eigenvalues the fitted slope of
log r against x**scale_exponent is negative with high r-squared.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .potentials import Realization
# advance_interval is not called here; it remains as the tests' scalar flow
# reference, bound here because the benchmark tracer (bench/spans.py) wraps
# heavykp.spectrum.advance_interval by module attribute.
from .prufer import TraceRecord, advance_interval, boundary_theta, walk_chain
from .stats import linear_fit
from .transfer import EnergyFrame

_PI = math.pi

# A phase within this of the next multiple of pi is treated as having reached
# it: the winding count must not depend on the last rounding of an exact hit.
_WINDING_GUARD = 1e-9

# Hard cap on phase evaluations per eigenvalue.
_MAX_EVALS = 240

# The scaled Dirichlet residual caps its exponent here, so a point far
# outside the bracket gives a large finite value instead of inf.
_EXP_CAP = 700.0

# (theta, log_r) at L_box of every walk of one box, keyed by lambda.
_Table = Dict[float, Tuple[float, float]]


@dataclass(frozen=True)
class BoxProblem:
    """A sampled chain truncated to [0, L_box] with Dirichlet right end.

    theta0 is the boundary parameter at 0, in [0, pi), same convention as
    ModelConfig.theta0 (0 is Dirichlet).  The box must not extend past the
    sampled chain.  values and lengths are the pieces truncated to exactly
    [0, L_box], computed once at construction.
    """

    realization: Realization
    theta0: float
    L_box: float
    values: np.ndarray = field(init=False, repr=False, compare=False)
    lengths: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (0.0 <= self.theta0 < _PI):
            raise ValueError("theta0 must lie in [0, pi)")
        if not (self.L_box > 0.0) or not math.isfinite(self.L_box):
            raise ValueError("L_box must be positive and finite")
        if self.L_box > self.realization.total_length * (1.0 + 1e-12):
            raise ValueError("L_box exceeds the sampled chain")
        values, lengths = _truncated_pieces(self.realization, self.L_box)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "lengths", lengths)


def _truncated_pieces(realization: Realization,
                      L_box: float) -> Tuple[np.ndarray, np.ndarray]:
    """(values, lengths) of the pieces covering exactly [0, L_box].

    Piece n is the first whose right edge reaches L_box (the last piece when
    L_box lies past the chain end, within the allowed slack); the pieces
    before it are whole.  A box that ends on piece n's right edge keeps it
    whole too, otherwise it is the one cut piece, of length
    L_box - boundaries[n-1].
    """
    edges = realization.boundaries
    n = min(int(np.searchsorted(edges, L_box)), edges.size - 1)
    lengths = realization.lengths[:n + 1]
    if L_box != edges[n]:
        lengths = lengths.copy()
        lengths[n] = L_box - (edges[n - 1] if n else 0.0)
    return realization.values[:n + 1], lengths


def _walk(problem: BoxProblem, lam: float) -> Tuple[np.ndarray, np.ndarray]:
    """(theta, log_r) at 0 and at every piece boundary up to L_box."""
    frame = EnergyFrame.from_lambda(lam)
    return walk_chain(problem.values, problem.lengths, frame,
                      boundary_theta(problem.theta0, frame))


def _end_state(problem: BoxProblem, lam: float) -> Tuple[float, float]:
    """(theta, log_r) at L_box: one walk of the truncated chain at lam."""
    thetas, log_rs = _walk(problem, lam)
    return float(thetas[-1]), float(log_rs[-1])


def boundary_phase(problem: BoxProblem, lam: float) -> float:
    """Unwound phase theta_lambda(L_box) of the left-boundary solution."""
    return _end_state(problem, lam)[0]


def phase_trace(problem: BoxProblem, lam: float) -> Tuple[TraceRecord, ...]:
    """(x, theta, log_r) at 0 and at every piece boundary up to L_box."""
    thetas, log_rs = _walk(problem, lam)
    xs = np.concatenate(([0.0], np.cumsum(problem.lengths)))
    return tuple(TraceRecord(x, t, r) for x, t, r in
                 zip(xs.tolist(), thetas.tolist(), log_rs.tolist()))


def _winding_count(theta: float) -> int:
    """floor(theta/pi), with phases within _WINDING_GUARD below a multiple of pi
    counted as having reached it."""
    q = theta / _PI
    m = math.floor(q)
    if q - m >= 1.0 - _WINDING_GUARD:
        m += 1
    return m


def count_below(problem: BoxProblem, lam: float) -> int:
    """Number of box eigenvalues below lam: the winding count floor(theta/pi).

    Phases within _WINDING_GUARD of the next multiple of pi count as having
    reached it, so an exactly attained multiple (free chain at resonant
    length, or lam returned by the eigenvalue search) is not lost to the last
    rounding.
    """
    return _winding_count(boundary_phase(problem, lam))


def find_eigenvalues(
    problem: BoxProblem,
    lam_min: float,
    lam_max: float,
    tol: float = 1e-10,
    max_count: Optional[int] = None,
) -> List[float]:
    """All eigenvalues in (lam_min, lam_max], each located by a bracketed search.

    The phase at L_box is strictly increasing in lambda, so the m-th
    eigenvalue is the unique crossing of theta = m pi.  Each one is the
    midpoint of a bracket [lo, hi] with theta(lo) < m pi <= theta(hi) and
    hi - lo <= tol * max(1, |lo|, |hi|), found in at most _MAX_EVALS walks
    by a Brent-Dekker search in two phases: on theta - m pi until both
    bracket ends are within pi of m pi, then on the Dirichlet residual
    psi(L_box).  A point's side is always the test theta >= m pi, never the
    sign of a residual, which can underflow to -0.0.

    Every walk of the box, the two window ends included, goes into one table
    of (theta, log_r) keyed by lambda.  The m-th search starts from the
    tightest bracket in that table, which holds only walks made for the
    window ends and for lower eigenvalues, so max_count truncates the search
    after the lowest that many eigenvalues of the window and returns exactly
    the head of the full list.
    """
    if not (lam_min < lam_max):
        raise ValueError("need lam_min < lam_max")
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    table: _Table = {
        lam: _end_state(problem, lam) for lam in (lam_min, lam_max)}
    n_lo = _winding_count(table[lam_min][0])
    n_hi = _winding_count(table[lam_max][0])
    if max_count is not None:
        n_hi = min(n_hi, n_lo + max_count)
    return [_locate(problem, table, m * _PI, lam_min, lam_max, tol)
            for m in range(n_lo + 1, n_hi + 1)]


def _tightest_bracket(table: _Table, target: float,
                      lam_min: float, lam_max: float) -> Tuple[float, float]:
    """The closest table points on either side of the crossing theta = target.

    hi is the lowest point with theta >= target (lam_max if there is none, as
    when the winding guard counted a phase just below target at lam_max); lo
    is the highest point below hi with theta < target, at worst lam_min.
    """
    hi = min((lam for lam, (theta, _) in table.items() if theta >= target),
             default=lam_max)
    lo = max((lam for lam, (theta, _) in table.items()
              if theta < target and lam < hi), default=lam_min)
    return lo, hi


def _residual(table: _Table, target: float, lo: float,
              hi: float) -> Tuple[bool, Callable[[float], float]]:
    """(is_dirichlet, f): the function the search interpolates on [lo, hi].

    While either end is pi or more from target, f is theta - target.  Once
    both are within pi, f is the Dirichlet residual (-1)**m psi(L_box) =
    +-|sin(theta - target)| r, scaled by exp(-C) with C the larger log r of
    the two ends and its exponent capped at _EXP_CAP.  The sign comes from
    the test theta >= target, never from the float: a magnitude that
    underflows is a signed zero on the side its phase says.
    """
    theta_lo, log_r_lo = table[lo]
    theta_hi, log_r_hi = table[hi]
    if abs(theta_lo - target) >= _PI or abs(theta_hi - target) >= _PI:
        return False, lambda lam: table[lam][0] - target
    shift = max(log_r_lo, log_r_hi)

    def psi(lam: float) -> float:
        theta, log_r = table[lam]
        size = abs(math.sin(theta - target)) * math.exp(min(log_r - shift, _EXP_CAP))
        return size if theta >= target else -size

    return True, psi


def _locate(problem: BoxProblem, table: _Table, target: float,
            lam_min: float, lam_max: float, tol: float) -> float:
    """Midpoint of a bracket of theta = target no wider than tol * max(1, |lo|, |hi|).

    Brent-Dekker on a bracket whose ends keep their sides by the phase test:
    b is the end with the smaller residual, c the other, and a the b before
    the last walk if that walk became b, else c.  It interpolates
    inverse-quadratically through a, b, c (by the secant when a is c), and
    bisects when the step would leave the inner three quarters of [b, c] or
    fails to halve the step before last.  A step is at least 0.4 tol * scale,
    so a bracket whose best end sits on the root closes on the next walk.
    Every walk is added to the table.
    """
    lo, hi = _tightest_bracket(table, target, lam_min, lam_max)
    prev: Optional[float] = None  # Brent's a: the best end before the last walk
    newest: Optional[float] = None
    dirichlet = False
    step = before = hi - lo  # Brent's d and e: the last step and the one before
    for _ in range(_MAX_EVALS):
        scale = max(1.0, abs(lo), abs(hi))
        if hi - lo <= tol * scale:
            break
        min_step = 0.4 * tol * scale
        now_dirichlet, f = _residual(table, target, lo, hi)
        if now_dirichlet != dirichlet:  # the residual changed: drop a
            dirichlet, prev = now_dirichlet, None
        f_lo, f_hi = f(lo), f(hi)
        if abs(f_hi) <= abs(f_lo):
            b, fb, c, fc = hi, f_hi, lo, f_lo
        else:
            b, fb, c, fc = lo, f_lo, hi, f_hi
        if prev is None or b != newest:
            prev = c
        fa = f(prev)
        half = 0.5 * (c - b)
        if abs(before) >= min_step and abs(fa) > abs(fb) and fc != 0.0:
            s = fb / fa
            if prev == c:
                p = 2.0 * half * s
                q = 1.0 - s
            else:
                qa = fa / fc
                r = fb / fc
                p = s * (2.0 * half * qa * (qa - r) - (b - prev) * (r - 1.0))
                q = (qa - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * half * q - abs(min_step * q), abs(before * q)):
                before, step = step, p / q
            else:
                before = step = half
        else:
            before = step = half
        x = b + step if abs(step) > min_step else b + math.copysign(min_step, half)
        if not (lo < x < hi):
            x = 0.5 * (lo + hi)
            if not (lo < x < hi):  # no float strictly inside: as narrow as it gets
                break
        table[x] = _end_state(problem, x)
        if table[x][0] >= target:
            replaced, hi = hi, x
        else:
            replaced, lo = lo, x
        if replaced == c:  # the contrapoint moved: restart the step history
            before = step = x - b
        prev, newest = b, x
    return 0.5 * (lo + hi)


def decay_fit(
    problem: BoxProblem,
    lambda_eigen: float,
    scale_exponent: float = 1.0,
) -> Tuple[float, float]:
    """(slope, r_squared) of log r against x**scale_exponent at an eigenvalue.

    The flow is swept from the Dirichlet end at L_box toward 0 (the reflected
    chain is again piecewise constant), and log r is recorded at every piece
    boundary.  Checkpoints in the middle half [L_box/4, 3 L_box/4] enter the
    fit; fewer than 10 of them means the box cannot support a decay estimate
    and is a ValueError.  Localized eigenfunctions give negative slopes: r
    grows along the sweep direction, which runs against x.
    """
    if not (scale_exponent > 0.0):
        raise ValueError("scale_exponent must be positive")
    _, log_rs = walk_chain(problem.values[::-1], problem.lengths[::-1],
                           EnergyFrame.from_lambda(lambda_eigen), 0.0)
    xs = problem.L_box - np.cumsum(problem.lengths[::-1])
    middle = (0.25 * problem.L_box <= xs) & (xs <= 0.75 * problem.L_box)
    if np.count_nonzero(middle) < 10:
        raise ValueError("need at least 10 piece boundaries in the middle half of the box")
    fit = linear_fit(xs[middle] ** scale_exponent, log_rs[1:][middle])
    return fit.slope, fit.r_squared
