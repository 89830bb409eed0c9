"""Phase and radius flow for piecewise-constant potentials.

The flow tracks the polar decomposition of the k-normalized solution frame
(psi, psi'/k) = r (sin theta, cos theta): theta obeys

    theta' = k cos(theta)**2 + ((lam - V)/k) sin(theta)**2

and is continued continuously in the real unwound sense, so floor(theta/pi)
counts sign changes of psi exactly.  Each constant piece is advanced in
closed form rather than by ODE stepping:

    oscillatory (V < lam):  conjugate to a uniform rotation.  With
        omega = sqrt(lam - V) and rho = omega/k, the map tan(phi) =
        rho tan(theta) turns the piece flow into phi -> phi + omega l,
        which makes the pi-winding count exact by bookkeeping instead of
        by substepping.
    hyperbolic (V > lam):   expand in the exp(+-a) eigenmodes, a = b l,
        b = sqrt(V - lam).  The phase increment is trapped in (-pi, pi)
        (the flow cannot cross both adjacent fixed directions), and the
        radius gain a + log|(psi, psi'/k)| is exact for any a because the
        exp(a) factor is carried analytically.
    degenerate (V = lam):   parabolic shear, theta increment in [0, pi).

All branch arrangements below are cancellation-free; in particular the
hyperbolic mode uses expm1 so pieces with tiny a agree with the shear limit
to machine precision.  All phases are reduced with respect to float pi, so
windings stay consistent across every routine in the package.

Every routine here takes pieces as bare (value, length) numbers or arrays,
the columns of a Realization.  The workloads walk whole chains at one energy
with walk_chain: it pushes the solution vector through the piece matrices of
the transfer module and recovers the winding from the boundary vectors
(_unwind_boundaries), with the closed forms above serving only as increment
estimates, so it agrees with a chain of scalar steps to rounding.  The box
spectrum and the single-chain traces call it directly; the estimator sweeps
and the phase-chain mixing estimator walk many seeds the same way, with the
same winding rule.  The scalar flow (_advance_scalar, advance_interval) and
its batch twin phase_fold advance one piece at a time from the phase itself;
no workload calls them.  They remain as the tests' per-piece
reference and as bindings the benchmark tracer wraps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Tuple

import numpy as np

from .transfer import EnergyFrame, SaturationError, _piece_entries_batch

_PI = math.pi
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PruferState:
    """Unwound phase theta, accumulated log radius, and position x."""

    theta: float
    log_r: float
    x: float


class TraceRecord(NamedTuple):
    x: float
    theta: float
    log_r: float


def boundary_theta(theta0: float, frame: EnergyFrame) -> float:
    """Initial phase in [0, pi) realizing psi(0) cos(theta0) = psi'(0) sin(theta0).

    The boundary parameter lives on the (psi, psi') circle while the flow
    lives on the k-normalized frame, so the angle must be rescaled:
    tan(theta(0)) = k tan(theta0), lifted to the same half-period.
    """
    if not (0.0 <= theta0 < _PI):
        raise ValueError("theta0 must lie in [0, pi)")
    return math.atan2(frame.k_norm * math.sin(theta0), math.cos(theta0))


def _reduce_mod_pi(theta: float) -> Tuple[float, float]:
    """Split theta = m*pi + that with that in [0, pi); m returned as float."""
    that = math.fmod(theta, _PI)
    if that < 0.0:
        that += _PI
    m = round((theta - that) / _PI)
    return that, float(m)


def _advance_scalar(theta: float, log_r: float, value: float, length: float,
                    lam: float, k: float) -> Tuple[float, float]:
    """One constant piece of the flow; returns (new theta, new log_r)."""
    if value == 0.0 and lam > 0.0:
        # zero-potential gap: exact rotation by k * length in this frame
        return theta + k * length, log_r

    u = (lam - value) * length * length

    if u == 0.0:
        # parabolic shear: psi' constant, theta increment in [0, pi)
        that, m = _reduce_mod_pi(theta)
        s0 = math.sin(that)
        c0 = math.cos(that)
        psi = s0 + k * length * c0
        raw = math.atan2(psi, c0)
        delta = math.fmod(raw - that, _PI)
        if delta < 0.0:
            delta += _PI
        return theta + delta, log_r + 0.5 * math.log(psi * psi + c0 * c0)

    if u > 0.0:
        # oscillatory: conjugate to uniform rotation by w at tangent ratio rho
        w = math.sqrt(u)
        rho = w / (k * length)
        that, m = _reduce_mod_pi(theta)
        s0 = math.sin(that)
        c0 = math.cos(that)
        phi0 = math.atan2(rho * s0, c0)  # in [0, pi): s0 >= 0
        phi_end = phi0 + w
        phi_hat = math.fmod(phi_end, _PI)  # phi_end >= 0
        whole = round((phi_end - phi_hat) / _PI)
        s1 = math.sin(phi_hat)
        c1 = math.cos(phi_hat)
        theta_hat = math.atan2(s1, rho * c1)  # in [0, pi): s1 >= 0
        theta_new = (m + whole) * _PI + theta_hat
        # local radius conservation: r^2 (sin^2 + cos^2 / rho^2) is invariant
        hy = math.hypot(s1, rho * c1)
        gain = 0.5 * math.log(rho * rho * s0 * s0 + c0 * c0) - math.log(rho) + math.log(hy)
        return theta_new, log_r + gain

    # hyperbolic: expand on the exp(+-a) modes, exp(a) factored analytically
    a = math.sqrt(-u)
    bok = a / (k * length)  # b / k
    s0 = math.sin(theta)
    c0 = math.cos(theta)
    em = -math.expm1(-2.0 * a)  # 1 - exp(-2a), exact for tiny a
    ep = 2.0 - em               # 1 + exp(-2a)
    psi = 0.5 * (s0 * ep + (c0 / bok) * em)
    psik = 0.5 * (bok * s0 * em + c0 * ep)
    if psi == 0.0 and psik == 0.0:
        # start exactly on the contracting direction with exp(-2a) underflowed
        q = s0 - c0 / bok
        raw = math.atan2(q, -bok * q)
        gain = -a + math.log(0.5 * math.hypot(q, bok * q))
    else:
        raw = math.atan2(psi, psik)
        gain = a + math.log(math.hypot(psi, psik))
    delta = math.remainder(raw - theta, _TWO_PI)
    return theta + delta, log_r + gain


def advance_interval(state: PruferState, value: float, length: float,
                     frame: EnergyFrame) -> PruferState:
    """Advance the flow across one constant piece of potential value and length."""
    if not (length > 0.0):
        raise ValueError("length must be positive")
    theta, log_r = _advance_scalar(state.theta, state.log_r, value, length, frame.lam, frame.k_norm)
    return PruferState(theta=theta, log_r=log_r, x=state.x + length)


# ── Vectorized phase folds ───────────────────────────────────────────────────
#
# phase_fold is the tests' batch reference for the scalar flow; no workload
# calls it.  It also stays bound in heavykp.estimators because the benchmark
# tracer (bench/spans.py) wraps it there by module attribute.


def phase_fold(thetas: np.ndarray, values, lengths, frame: EnergyFrame,
               logs: np.ndarray = None) -> None:
    """Advance many independent chains one piece each, in place.

    thetas: unwound phases, shape (S,).  values/lengths: scalars or (S,)
    arrays.  logs, if given, accumulates the per-chain log radius.  This is
    the vectorized twin of the scalar advance; the branch arrangements are
    identical, so scalar and batch sweeps agree to rounding.
    """
    lam = frame.lam
    k = frame.k_norm
    value = np.broadcast_to(np.asarray(values, dtype=float), thetas.shape)
    length = np.broadcast_to(np.asarray(lengths, dtype=float), thetas.shape)
    u = (lam - value) * length * length

    gap = (value == 0.0) & (lam > 0.0)
    osc = (u > 0.0) & ~gap
    hyp = u < 0.0
    deg = (u == 0.0) & ~gap

    if np.any(gap):
        thetas[gap] += k * length[gap]

    if np.any(osc):
        th = thetas[osc]
        w = np.sqrt(u[osc])
        rho = w / (k * length[osc])
        that = np.fmod(th, _PI)
        neg = that < 0.0
        that[neg] += _PI
        m = np.round((th - that) / _PI)
        s0 = np.sin(that)
        c0 = np.cos(that)
        phi0 = np.arctan2(rho * s0, c0)
        phi_end = phi0 + w
        phi_hat = np.fmod(phi_end, _PI)
        whole = np.round((phi_end - phi_hat) / _PI)
        s1 = np.sin(phi_hat)
        c1 = np.cos(phi_hat)
        theta_hat = np.arctan2(s1, rho * c1)
        thetas[osc] = (m + whole) * _PI + theta_hat
        if logs is not None:
            hy = np.hypot(s1, rho * c1)
            logs[osc] += 0.5 * np.log(rho * rho * s0 * s0 + c0 * c0) - np.log(rho) + np.log(hy)

    if np.any(hyp):
        th = thetas[hyp]
        a = np.sqrt(-u[hyp])
        bok = a / (k * length[hyp])
        s0 = np.sin(th)
        c0 = np.cos(th)
        em = -np.expm1(-2.0 * a)
        ep = 2.0 - em
        psi = 0.5 * (s0 * ep + (c0 / bok) * em)
        psik = 0.5 * (bok * s0 * em + c0 * ep)
        dead = (psi == 0.0) & (psik == 0.0)
        if np.any(dead):
            q = s0[dead] - c0[dead] / bok[dead]
            psi[dead] = q
            psik[dead] = -bok[dead] * q
        raw = np.arctan2(psi, psik)
        delta = np.remainder(raw - th + _PI, _TWO_PI) - _PI
        thetas[hyp] = th + delta
        if logs is not None:
            gain = a + np.log(np.hypot(psi, psik))
            if np.any(dead):
                ad = a[dead]
                qh = np.hypot(psi[dead], psik[dead])
                gain[dead] = -ad + np.log(0.5 * qh)
            logs[hyp] += gain

    if np.any(deg):
        th = thetas[deg]
        that = np.fmod(th, _PI)
        neg = that < 0.0
        that[neg] += _PI
        s0 = np.sin(that)
        c0 = np.cos(that)
        psi = s0 + k * length[deg] * c0
        raw = np.arctan2(psi, c0)
        delta = np.fmod(raw - that, _PI)
        delta[delta < 0.0] += _PI
        thetas[deg] = th + delta
        if logs is not None:
            logs[deg] += 0.5 * np.log(psi * psi + c0 * c0)


# ── Single-energy chain walk ─────────────────────────────────────────────────


def _dead_direction(p: float, q: float, value: float, length: float,
                    lam: float, k: float) -> Tuple[float, float, float]:
    """(psi, psi'/k, log gain) of a unit vector a factored bump annihilates.

    Same arithmetic as the dead branch of _advance_scalar: the vector sits
    exactly on the contracting direction and exp(-2a) has underflowed.
    """
    u = (lam - value) * length * length
    a = math.sqrt(-u)
    bok = a / (k * length)
    qd = p - q / bok
    return qd, -bok * qd, -a + math.log(0.5 * math.hypot(qd, bok * qd))


def walk_chain(values: np.ndarray, lengths: np.ndarray, frame: EnergyFrame,
               theta: float) -> Tuple[np.ndarray, np.ndarray]:
    """Unwound phase and log radius at every piece boundary of one chain.

    Starts from phase theta with log radius 0 and returns (thetas, log_rs),
    each of length len(values) + 1 with the start first.  Agrees with a chain
    of advance_interval calls to rounding, in three stages:

    1. every piece's k-frame matrix comes from one _piece_entries_batch call;
    2. a loop over Python floats pushes the unit vector (psi, psi'/k) through
       the matrices, renormalizing at every step and keeping every boundary
       vector;
    3. the winding is counted in numpy.  The increment across a piece is the
       difference of its boundary-vector angles plus the multiple of 2 pi
       that brings it nearest an estimate from the piece's closed form.  An
       oscillatory piece turns the conjugate angle atan2(rho psi, psi'/k) by
       exactly omega l; both ends of that angle are read from the boundary
       vectors, so they share a branch with the vector angles.  Hyperbolic
       increments lie in (-pi, pi) and degenerate ones in [0, pi).

    log r sums the exp(a) prescales and the logs of the normalizations; a
    zero-potential gap at lam > 0 is an exact rotation and gains exactly 0.
    """
    lam = frame.lam
    k = frame.k_norm
    values = np.asarray(values, dtype=float)
    lengths = np.asarray(lengths, dtype=float)
    diag, upper, lower, pre = _piece_entries_batch(values, lengths, lam, k)

    p = math.sin(theta)
    q = math.cos(theta)
    psi_list = [p]
    psik_list = [q]
    norms: List[float] = []
    dead = {}  # piece index -> log gain of a dead-direction step
    hypot = math.hypot
    for c, b, e in zip(diag.tolist(), upper.tolist(), lower.tolist()):
        x = c * p + b * q
        y = e * p + c * q
        nrm = hypot(x, y)
        if nrm == 0.0:
            j = len(norms)
            x, y, dead[j] = _dead_direction(p, q, float(values[j]), float(lengths[j]), lam, k)
            nrm = hypot(x, y)
        p = x / nrm
        q = y / nrm
        psi_list.append(p)
        psik_list.append(q)
        norms.append(nrm)

    norm_arr = np.array(norms)
    if not np.all(np.isfinite(norm_arr)):
        raise SaturationError("chain walk left representable range")
    gains = pre + np.log(norm_arr)
    if lam > 0.0:
        gains[values == 0.0] = 0.0
    for j, gain in dead.items():
        gains[j] = gain
    log_rs = np.concatenate(([0.0], np.cumsum(gains)))

    thetas = _unwind_boundaries(np.array(psi_list), np.array(psik_list), values, lengths,
                               lam, k, theta)
    return thetas, log_rs


def _unwind_boundaries(psi: np.ndarray, psik: np.ndarray, values: np.ndarray,
                      lengths: np.ndarray, lam: float, k: float, start) -> np.ndarray:
    """Unwound phases of boundary vectors (psi, psi'/k) along runs of pieces.

    The piece axis comes first: psi and psik have one row more than values
    and lengths, and any trailing axes hold independent chains.  start is the
    unwound phase of row 0 (a scalar or one value per chain).  Each increment
    is the difference of the boundary-vector angles plus the whole turns of
    _piece_turns; the vectors need not be normalized.
    """
    angle = np.arctan2(psi, psik)
    turns = _piece_turns((psi[:-1], psik[:-1], angle[:-1]), (psi[1:], psik[1:], angle[1:]),
                         values, lengths, lam, k, start)
    phi = angle.copy()
    phi[0] = start
    if turns.ndim == 1:
        phi[1:] += _TWO_PI * np.cumsum(turns)
    else:
        # numpy's accumulate along axis 0 of a 2-D array is several times
        # slower than adding its rows in order, which sums the same
        phi[1:] += _TWO_PI * _running_sums(turns[0], turns[1:])
    return phi


def _piece_turns(before, after, values, lengths, lam: float, k: float, start=None) -> np.ndarray:
    """Whole turns of 2 pi in the phase increment across each piece of a run.

    before and after hold (psi, psi'/k, angle) of the boundary vectors that
    enter and leave each piece, angle = arctan2(psi, psi'/k); values and
    lengths have one element per piece in the same layout, or are scalars
    for all of them.  The increment is the difference of the two angles plus
    the multiple of 2 pi that brings it nearest the piece's closed-form
    estimate (see walk_chain); the turns come back as floats.  start, if
    given, is the unwound phase entering the first piece (row 0) and stands
    in for that piece's entering angle, so row 0's turns also hold start's
    own whole turns.
    """
    p0, q0, a0 = before
    p1, q1, a1 = after
    diff = a1 - a0
    if start is not None:
        diff[:1] = a1[:1] - start
    u = np.asarray((lam - values) * lengths * lengths)
    if u.size and u.min() > 0.0:
        # every piece oscillatory (a NaN min fails): whole arrays, no gathers
        estimate = _oscillatory_estimate(u, lengths, p0, q0, a0, p1, q1, a1, k)
    else:
        estimate = np.where(u == 0.0, 0.5 * _PI, 0.0)
        osc = np.flatnonzero(u > 0.0)
        if osc.size:  # then u has one element per piece
            estimate.reshape(-1)[osc] = _oscillatory_estimate(
                *(x if np.ndim(x) == 0 else x.reshape(-1)[osc]
                  for x in (u, lengths, p0, q0, a0, p1, q1, a1)), k)
    return np.round((estimate - diff) / _TWO_PI)


def _oscillatory_estimate(u, length, p0, q0, a0, p1, q1, a1, k: float):
    """Phase increment estimates of oscillatory pieces from their boundary vectors.

    The conjugate angle atan2(rho psi, psi'/k) turns by exactly omega l.
    """
    w = np.sqrt(u)
    rho = w / (k * length)
    conj0 = np.arctan2(rho * p0, q0)
    conj1 = np.arctan2(rho * p1, q1)
    return a1 - a0 + _TWO_PI * np.round((conj0 + w - conj1) / _TWO_PI)


def _running_sums(start: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """start and its running sums with the rows of terms, added in row order."""
    out = np.empty((terms.shape[0] + 1,) + start.shape)
    out[0] = start
    for prev, term, cur in zip(out[:-1], terms, out[1:]):
        np.add(prev, term, out=cur)
    return out
