"""Finite-box spectral solver built on the phase flow.

A chain restricted to [0, L_box] with the sampled boundary condition at 0 and
a Dirichlet condition at L_box has pure point spectrum.  The unwound phase
theta_lambda(L_box) is continuous and strictly increasing in lambda, equals a
multiple of pi exactly at eigenvalues, and counts eigenvalues through its
winding: floor(theta/pi) is the number of eigenvalues below lambda.  That
turns eigenvalue location into one-dimensional bisection, with no matrices
to diagonalize and no mesh.

Every phase evaluation is one walk of the truncated chain at a single energy
(prufer.walk_chain): all piece matrices are built in one vectorized call, a
plain float loop carries the unit solution vector across them, and the
winding is counted in bulk from the stored boundary vectors.  A BoxProblem
keeps its truncated (values, lengths) arrays, so the bisection rebuilds
nothing between evaluations.

Eigenfunction decay is measured from the Dirichlet end: walking the reflected
chain inward from (L_box, psi = 0), the log radius grows along the expanding
direction of the product, so at localized eigenvalues the fitted slope of
log r against x**scale_exponent is negative with high r-squared.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .potentials import Realization
# advance_interval is not called here.  It stays bound because the
# benchmark's tracer (bench/spans.py) wraps heavykp.spectrum.advance_interval
# by module attribute.
from .prufer import TraceRecord, advance_interval, boundary_theta, walk_chain
from .stats import linear_fit
from .transfer import EnergyFrame

_PI = math.pi

# A phase within this of the next multiple of pi is treated as having reached
# it: the winding count must not depend on the last rounding of an exact hit.
_WINDING_GUARD = 1e-9

_MAX_BISECTIONS = 240


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
    """(values, lengths) arrays of the pieces covering exactly [0, L_box]."""
    values: List[float] = []
    lengths: List[float] = []
    left = 0.0
    for p in realization.pieces:
        if left >= L_box:
            break
        length = min(p.length, L_box - left)
        if length > 0.0:
            values.append(p.value)
            lengths.append(length)
        left += length
    return np.array(values, dtype=float), np.array(lengths, dtype=float)


def _walk(problem: BoxProblem, lam: float) -> Tuple[np.ndarray, np.ndarray]:
    """(theta, log_r) at 0 and at every piece boundary up to L_box."""
    frame = EnergyFrame.from_lambda(lam)
    return walk_chain(problem.values, problem.lengths, frame,
                      boundary_theta(problem.theta0, frame))


def boundary_phase(problem: BoxProblem, lam: float) -> float:
    """Unwound phase theta_lambda(L_box) of the left-boundary solution."""
    return float(_walk(problem, lam)[0][-1])


def phase_trace(problem: BoxProblem, lam: float) -> Tuple[TraceRecord, ...]:
    """(x, theta, log_r) at 0 and at every piece boundary up to L_box."""
    thetas, log_rs = _walk(problem, lam)
    xs = np.concatenate(([0.0], np.cumsum(problem.lengths)))
    return tuple(TraceRecord(x, t, r) for x, t, r in
                 zip(xs.tolist(), thetas.tolist(), log_rs.tolist()))


def count_below(problem: BoxProblem, lam: float) -> int:
    """Number of box eigenvalues below lam: the winding count floor(theta/pi).

    Phases within _WINDING_GUARD of the next multiple of pi count as having
    reached it, so an exactly attained multiple (free chain at resonant
    length, or lam returned by the eigenvalue search) is not lost to the last
    rounding.
    """
    q = boundary_phase(problem, lam) / _PI
    m = math.floor(q)
    if q - m >= 1.0 - _WINDING_GUARD:
        m += 1
    return m


def find_eigenvalues(
    problem: BoxProblem,
    lam_min: float,
    lam_max: float,
    tol: float = 1e-10,
    max_count: Optional[int] = None,
) -> List[float]:
    """All eigenvalues in (lam_min, lam_max], each located by bisection.

    The phase at L_box is strictly increasing in lambda, so the m-th
    eigenvalue is the unique crossing of theta = m pi.  Bisection runs until
    the bracket width is below tol * max(1, |lambda|).  max_count truncates
    the search after the lowest that many eigenvalues of the window.
    """
    if not (lam_min < lam_max):
        raise ValueError("need lam_min < lam_max")
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    n_lo = count_below(problem, lam_min)
    n_hi = count_below(problem, lam_max)
    if max_count is not None:
        n_hi = min(n_hi, n_lo + max_count)
    out: List[float] = []
    for m in range(n_lo + 1, n_hi + 1):
        target = m * _PI
        a, b = lam_min, lam_max
        for _ in range(_MAX_BISECTIONS):
            if (b - a) <= tol * max(1.0, abs(a), abs(b)):
                break
            mid = 0.5 * (a + b)
            if boundary_phase(problem, mid) >= target:
                b = mid
            else:
                a = mid
        out.append(0.5 * (a + b))
    return out


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
