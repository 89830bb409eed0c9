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

The search for the m-th eigenvalue keeps a bracket of the crossing theta =
m pi.  While a bracket end is a full turn or more away from m pi it steps by
Illinois regula falsi on theta itself.  After that theta of a localized state
is a step too narrow to interpolate, and the search works with the Dirichlet
residual psi(L_box) = r sin(theta) instead: near the crossing
log|psi| = log|lambda - lambda*| + a + b lambda, with b the trend of log r
across the bracket, and three walks fix lambda*.  A point's side of the
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
from typing import Dict, List, Optional, Tuple

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


class EigenvalueSearchError(RuntimeError):
    """A box eigenvalue whose bracket did not close within _MAX_EVALS walks."""


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
    rounding.  Where the phase rises gently in lam, as on short boxes, that
    guard spans up to about 2e-9 in lam, wider than find_eigenvalues' default
    tol: count_below(lam_m - 1e-10 * |lam_m|) can already return m for an
    eigenvalue lam_m it found (4 of the 85 in [0.25, 4] of the 12-bump
    model III box, alpha2 0.6, theta0 0.7, of RngStream(3141) child 0, among
    them m = 88 and 91).  Step further than the guard to test a count change
    at an eigenvalue.
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
    midpoint of a bracket [lo, hi] with theta(lo) < m pi <= theta(hi) <
    (m + 1) pi and hi - lo <= tol * max(1, |lo|, |hi|), found by _locate in
    at most _MAX_EVALS walks: Illinois steps on theta - m pi until both
    bracket ends are within pi of m pi, then steps from a log-distance model
    of the Dirichlet residual psi(L_box).  A point's side is always the test
    theta >= m pi, never the sign or size of a residual.  A bracket that has
    not closed after _MAX_EVALS walks raises EigenvalueSearchError.

    Every walk of the box, the two window ends included, goes into one table
    of (theta, log_r) keyed by lambda.  The m-th search starts from the
    tightest bracket in that table, which holds only walks made for the
    window ends and for lower eigenvalues, so max_count truncates the search
    after the lowest that many eigenvalues of the window and returns exactly
    the head of the full list.

    The last condition keeps apart two levels of one deep well that lie
    closer together than the width goal (tens apart at lambda ~ -1e14, where
    the goal is thousands wide).  Levels with no float between them, as in
    wells deeper than about 1e18, come out as that one float, twice.
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
    return [_locate(problem, table, m, lam_min, lam_max, tol)
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


def _log_residual(table: _Table, target: float, lam: float) -> float:
    """log |psi(L_box)| = log r + log |sin(theta - target)| at a table point.

    -inf where the residual vanishes (theta exactly at target).  The log
    cannot underflow, and a point's side never comes from it: the search
    reads sides from the test theta >= target.
    """
    theta, log_r = table[lam]
    size = abs(math.sin(theta - target))
    return log_r + math.log(size) if size > 0.0 else -math.inf


def _log_sigmoid(u: float) -> float:
    """log(1 / (1 + exp(-u))) without overflow."""
    return u - math.log1p(math.exp(u)) if u < 0.0 else -math.log1p(math.exp(-u))


def _dirichlet_estimate(table: _Table, target: float, lo: float, hi: float) -> float:
    """The crossing in [lo, hi] under log|psi| = log|lam - lam*| + a + b lam.

    The model runs through the bracket ends and p, the table point nearest
    the bracket whose phase is within pi of target.  Without p there is no
    trend b to fit, and b = 0 (the secant on psi) puts the step next to the
    end with the smaller residual, a near-zero step while log r trends by
    hundreds per unit lambda; the midpoint is returned instead, as it is for
    a residual that is not finite.  A phase that lands on target exactly
    (seen on short model II boxes) zeroes the residual at hi, which is then
    the crossing.

    The unknown is u = log((lam* - lo) / (hi - lam*)), so a crossing a few
    ulps from either end keeps its relative precision.  The three points give
    H(u) = 0 with H'(u) = (p - hi) / (p - lam*) > 0, H convex for p > hi and
    concave for p < lo, so Newton from the b = 0 solution converges from any
    start.
    """
    outside = [(lo - lam if lam < lo else lam - hi, lam)
               for lam, (theta, _) in table.items()
               if not lo <= lam <= hi and abs(theta - target) < _PI]
    if not outside:
        return 0.5 * (lo + hi)
    p = min(outside)[1]
    l_lo, l_hi, l_p = (_log_residual(table, target, lam) for lam in (lo, hi, p))
    if l_hi == -math.inf:
        return hi
    if not (math.isfinite(l_lo) and math.isfinite(l_hi) and math.isfinite(l_p)):
        return 0.5 * (lo + hi)
    width = hi - lo
    kappa = width / (p - lo)
    c = l_hi - l_lo - kappa * (l_p - l_lo + math.log(width))
    u = l_lo - l_hi
    for _ in range(100):
        s = _log_sigmoid(u)
        # p - lam*, formed from the end nearer p so that no digits cancel
        if p > hi:
            gap = (p - hi) + width * math.exp(_log_sigmoid(-u))
        else:
            gap = (p - lo) - width * math.exp(s)
        du = (c + u + kappa * (math.log(abs(gap)) - s)) * gap / (p - hi)
        u -= du
        if abs(du) <= 1e-12 * max(1.0, abs(u)):
            break
    if u < 0.0:
        return lo + width * math.exp(_log_sigmoid(u))
    return hi - width * math.exp(_log_sigmoid(-u))


def _locate(problem: BoxProblem, table: _Table, m: int,
            lam_min: float, lam_max: float, tol: float) -> float:
    """Midpoint of a bracket of theta = m pi no wider than tol * max(1, |lo|, |hi|).

    The bracket [lo, hi] keeps theta(lo) < m pi <= theta(hi), each walk
    replacing the end on its side.  While an end is pi or more from m pi the
    step is Illinois regula falsi on theta - m pi; once both are within pi it
    is _dirichlet_estimate, and from then on the bracket must halve within
    every two walks or the next walk bisects.  An estimate within the width
    goal w of an end is walked once at 0.9 w past that end, which closes the
    bracket when the crossing lies in between; after that one closing walk,
    steps keep 0.9 w from both ends.  A bracket within w closes only once
    theta(hi) < (m + 1) pi; while hi still holds the next crossing too, the
    Illinois steps go on without the margins until the two crossings part or
    no float lies between the ends.  Every walk is added to the table.
    """
    target = m * _PI
    lo, hi = _tightest_bracket(table, target, lam_min, lam_max)
    f_lo, f_hi = table[lo][0] - target, table[hi][0] - target
    last_side = 0  # the end the last walk replaced: -1 lo, +1 hi
    closed = False
    widths: List[float] = []  # bracket widths at each Dirichlet step
    for _ in range(_MAX_EVALS):
        goal = tol * max(1.0, abs(lo), abs(hi))
        narrow = hi - lo <= goal
        if narrow and table[hi][0] < target + _PI:
            return 0.5 * (lo + hi)
        dirichlet = table[lo][0] > target - _PI and table[hi][0] < target + _PI
        if dirichlet:
            widths.append(hi - lo)
            x = _dirichlet_estimate(table, target, lo, hi)
        else:
            x = lo - f_lo * (hi - lo) / (f_hi - f_lo)
        # A narrow bracket whose hi holds crossing m + 1 too takes the
        # Illinois step as it is: the margins below are wider than it.
        if not (closed or narrow) and min(x - lo, hi - x) <= goal:
            closed = True
            x = lo + 0.9 * goal if x - lo <= hi - x else hi - 0.9 * goal
        elif dirichlet and len(widths) > 2 and widths[-1] > 0.5 * widths[-3]:
            x = 0.5 * (lo + hi)
        elif not narrow:
            x = min(max(x, lo + 0.9 * goal), hi - 0.9 * goal)
        if not (lo < x < hi):
            x = 0.5 * (lo + hi)
            if not (lo < x < hi):  # no float strictly inside: as narrow as it gets
                return x
        table[x] = _end_state(problem, x)
        theta = table[x][0]
        if theta >= target:
            if last_side > 0:
                f_lo *= 0.5
            hi, f_hi, last_side = x, theta - target, 1
        else:
            if last_side < 0:
                f_hi *= 0.5
            lo, f_lo, last_side = x, theta - target, -1
    raise EigenvalueSearchError(
        f"eigenvalue {m}: bracket [{lo!r}, {hi!r}] still wider than "
        f"{tol * max(1.0, abs(lo), abs(hi))!r} after {_MAX_EVALS} walks")


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
