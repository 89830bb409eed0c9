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
with walk_chain: it pushes the solution vector through the matrices of the
transfer module two pieces per step, recovers the boundary vectors between
each two pieces in bulk, and counts the winding from the boundary vectors
(_unwind_boundaries), with the closed forms above serving only as increment
estimates, so it agrees with a chain of closed-form steps to rounding.  The
box spectrum and the single-chain trace call it directly; the estimator
sweeps and the phase-chain mixing estimator walk many seeds the same way,
one gap and its bump per step, with the same winding rule; a step that
any of these products cannot take falls back to _step_pieces.  The closed
forms themselves are stated once, in phase_fold, which advances many chains
one piece at a time from the phase itself; advance_interval is its one-lane
form.  No workload calls either.  They remain as the tests' per-piece
reference and as bindings the benchmark tracer wraps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .transfer import EnergyFrame, SaturationError, _piece_entries_batch, _product_entries

_PI = math.pi
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PruferState:
    """Unwound phase theta, accumulated log radius, and position x."""

    theta: float
    log_r: float
    x: float


def boundary_theta(theta0: float, frame: EnergyFrame) -> float:
    """Initial phase in [0, pi) realizing psi(0) cos(theta0) = psi'(0) sin(theta0).

    The boundary parameter lives on the (psi, psi') circle while the flow
    lives on the k-normalized frame, so the angle must be rescaled:
    tan(theta(0)) = k tan(theta0), lifted to the same half-period.
    """
    if not (0.0 <= theta0 < _PI):
        raise ValueError("theta0 must lie in [0, pi)")
    return math.atan2(frame.k_norm * math.sin(theta0), math.cos(theta0))


# ── The closed-form flow ─────────────────────────────────────────────────────
#
# advance_interval runs phase_fold on one lane.  The benchmark tracer
# (bench/spans.py) wraps both by module attribute, here and where
# heavykp.estimators and heavykp.spectrum bind them.


def phase_fold(thetas: np.ndarray, values, lengths, frame: EnergyFrame,
               logs: np.ndarray = None) -> None:
    """Advance many independent chains one piece each, in place.

    thetas: unwound phases, shape (S,).  values/lengths: scalars or (S,)
    arrays.  logs, if given, accumulates the per-chain log radius.
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

    if np.any(gap):  # zero-potential gap: an exact rotation by k l in this frame
        thetas[gap] += k * length[gap]

    if np.any(osc):  # conjugate to a uniform rotation by w at tangent ratio rho
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
        if logs is not None:  # r^2 (sin^2 + cos^2 / rho^2) is invariant
            hy = np.hypot(s1, rho * c1)
            logs[osc] += 0.5 * np.log(rho * rho * s0 * s0 + c0 * c0) - np.log(rho) + np.log(hy)

    if np.any(hyp):  # the exp(+-a) modes, with the exp(a) factor carried analytically
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
        if np.any(dead):  # exactly on the contracting direction, exp(-2a) underflowed
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

    if np.any(deg):  # parabolic shear: psi' constant, theta increment in [0, pi)
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


def advance_interval(state: PruferState, value: float, length: float,
                     frame: EnergyFrame) -> PruferState:
    """Advance the flow across one constant piece of potential value and length."""
    if not (length > 0.0):
        raise ValueError("length must be positive")
    theta = np.array([state.theta])
    log_r = np.array([state.log_r])
    phase_fold(theta, value, length, frame, log_r)
    return PruferState(theta=float(theta[0]), log_r=float(log_r[0]), x=state.x + length)


# ── Single-energy chain walk ─────────────────────────────────────────────────


def _dead_direction(p: float, q: float, value: float, length: float,
                    lam: float, k: float) -> Tuple[float, float, float]:
    """(psi, psi'/k, log gain) of a vector (p, q) a factored hyperbolic piece annihilates.

    Same arithmetic as the dead branch of phase_fold: the vector sits
    exactly on the contracting direction and exp(-2a) has underflowed.  The
    gain is log|M v| for v = (p, q); only _step_pieces calls this.
    """
    u = (lam - value) * length * length
    a = math.sqrt(-u)
    bok = a / (k * length)
    qd = p - q / bok
    return qd, -bok * qd, -a + math.log(0.5 * math.hypot(qd, bok * qd))


def _step_pieces(pieces, p: float, q: float, lam: float, k: float) -> Tuple[float, float, float]:
    """(psi, psi'/k, log gain) of the vector (p, q) stepped through pieces one at a time.

    pieces holds (value, length) pairs in chain order.  This is the walks'
    one fallback for a step their products cannot take: walk_chain's pairs
    and single steps, the sweep's lane steps and its recovery of the vector
    after a gap.  Each piece steps the vector by its own _piece_entries_batch
    matrix and renormalizes it; a piece whose image of the vector is exactly
    (0, 0), a factored bump or (at lam < 0) gap on its contracting
    direction, takes _dead_direction instead.  The vector comes back a unit
    vector, and the gain is log|M v| for the product M of the pieces and
    v = (p, q), which need not be a unit vector.
    """
    values, lengths = np.array(pieces, dtype=float).T
    entries = zip(*(m.tolist() for m in _piece_entries_batch(values, lengths, lam, k)))
    gain = 0.0
    for value, length, (c, b, e, pre) in zip(values.tolist(), lengths.tolist(), entries):
        x = c * p + b * q
        y = e * p + c * q
        nrm = float(np.hypot(x, y))  # as walk_chain's bulk steps, bit for bit
        if nrm == 0.0:
            x, y, step = _dead_direction(p, q, value, length, lam, k)
            nrm = float(np.hypot(x, y))
        else:
            step = pre + math.log(nrm)
        p, q = x / nrm, y / nrm
        gain += step
    return p, q, gain


def walk_chain(values: np.ndarray, lengths: np.ndarray, frame: EnergyFrame,
               theta: float) -> Tuple[np.ndarray, np.ndarray]:
    """Unwound phase and log radius at every piece boundary of one chain.

    Starts from phase theta with log radius 0 and returns (thetas, log_rs),
    each of length len(values) + 1 with the start first.  Agrees with a chain
    of advance_interval calls to rounding, in three stages:

    1. every piece's k-frame matrix comes from one _piece_entries_batch call,
       and the matrix of each pair of pieces (0, 1), (2, 3), ... from one
       _product_entries call;
    2. two pieces per step, inner boundaries recovered in bulk: a loop over
       Python floats (_push_pairs) pushes the unit vector (psi, psi'/k)
       through the pair matrices, renormalizing once per pair, and numpy
       then steps each pair's entering vector through its first piece and
       the result through its second (_piece_steps), which gives the vector
       between the two and the norm of every piece.  An odd last piece is a
       single step of the same kind.  A pair whose product norm is 0 or not
       finite, or one of whose pieces annihilates its vector, is walked by
       _step_pieces instead (a non-finite gain raises SaturationError), and
       the loop resumes after it.  As barrier entries are bounded, only a
       barrier next to a piece of far larger upper entry k l s (a resonant
       piece of length 1e200 after a barrier of height 1e300, say) makes a
       product of finite pieces overflow;
    3. the winding is counted in numpy.  The increment across a piece is the
       difference of its boundary-vector angles plus the multiple of 2 pi
       that brings it nearest an estimate from the piece's closed form.  An
       oscillatory piece turns the conjugate angle atan2(rho psi, psi'/k) by
       exactly omega l; both ends of that angle are read from the boundary
       vectors, so they share a branch with the vector angles.  Hyperbolic
       increments lie in (-pi, pi) and degenerate ones in [0, pi).

    log r sums the exp(a) prescales and the logs of the piece norms; a
    zero-potential gap at lam > 0 is an exact rotation and gains exactly 0.
    """
    lam = frame.lam
    k = frame.k_norm
    values = np.asarray(values, dtype=float)
    lengths = np.asarray(lengths, dtype=float)
    n = values.size
    n_pairs = n // 2
    diag, upper, lower, pre = _piece_entries_batch(values, lengths, lam, k)
    first = diag[0::2], upper[0::2], lower[0::2]
    second = diag[1::2], upper[1::2], lower[1::2]
    paired = tuple(m[:n_pairs] for m in first) if n % 2 else first
    pairs = [m.tolist() for m in _product_entries(paired, second)]
    chain = (values, lengths, lam, k)

    ends = [math.sin(theta), math.cos(theta)]  # unit vectors entering each pair, flat
    stepped = set()  # pairs walked by _step_pieces
    done = _push_pairs(pairs, 0, ends)
    while True:
        if done == n_pairs:
            # every boundary vector (psi, psi'/k) by row, the odd ones recovered
            bounds = np.empty((n + 1, 2))
            bounds[0::2] = np.array(ends, dtype=float).reshape(-1, 2)
            norms = np.empty(n)
            dead = {}  # piece index -> log gain of a dead-direction step
            _piece_steps(first, bounds[0:n:2], norms[0::2], bounds[1::2], 0, chain, dead)
            _piece_steps(second, bounds[1:n:2], norms[1::2], None, 1, chain, dead)
            redo = [j // 2 for j in dead if j < 2 * n_pairs and j // 2 not in stepped]
            if not redo:
                break
            done = min(redo)  # the loop walked past a dead-direction step
            del ends[2 * done + 2:]
        pair = slice(2 * done, 2 * done + 2)
        p, q, gain = _step_pieces(list(zip(values[pair], lengths[pair])), *ends[-2:], lam, k)
        if not math.isfinite(gain):
            raise SaturationError("chain walk left representable range")
        ends += p, q
        stepped.add(done)
        done = _push_pairs(pairs, done + 1, ends)

    gains = pre + np.log(norms)
    if lam > 0.0:
        gains[values == 0.0] = 0.0
    for j, gain in dead.items():
        gains[j] = gain
    log_rs = np.zeros(n + 1)
    np.add.accumulate(gains, out=log_rs[1:])
    if not math.isfinite(log_rs[-1]):  # a non-finite gain leaves the sum non-finite
        raise SaturationError("chain walk left representable range")
    thetas = _unwind_boundaries(bounds[:, 0], bounds[:, 1], values, lengths, lam, k, theta)
    return thetas, log_rs


def _push_pairs(pairs, start: int, ends: list) -> int:
    """Push the unit vector at the end of ends through the pairs from start on.

    pairs holds the entry lists (m00, m01, m10, m11) of the pair matrices.
    Every step renormalizes and appends its unit vector to the flat list
    ends.  Stops before the first pair whose product norm is 0 or not
    finite; returns the index of that pair, or the number of pairs.
    """
    p, q = ends[-2:]
    append = ends.append
    hypot = math.hypot
    inf = math.inf
    for m00, m01, m10, m11 in zip(*(m[start:] for m in pairs) if start else pairs):
        x = m00 * p + m01 * q
        y = m10 * p + m11 * q
        nrm = hypot(x, y)
        if not 0.0 < nrm < inf:
            break
        p = x / nrm
        q = y / nrm
        append(p)
        append(q)
    return len(ends) // 2 - 1


def _piece_steps(entries, vecs, norms, units, piece: int, chain, dead: dict) -> None:
    """Single-piece steps of the rows of vecs, in bulk.

    entries holds the (diagonal, upper, lower) entries of piece matrices and
    vecs (m, 2) unit vectors (psi, psi'/k); row r is piece number
    piece + 2 r of the chain whose (values, lengths, lam, k) chain holds.
    Each step is the arithmetic of a single-piece step.  The norms go into
    norms and, unless units is None, the unit vectors after the steps into
    the rows of units.  A vector that its piece annihilates is stepped by
    _step_pieces instead: its unit vector stands in with norm 1, and its log
    gain goes into dead under the piece number.
    """
    c, b, e = entries
    p = vecs[:, 0]
    q = vecs[:, 1]
    x = c * p + b * q
    y = e * p + c * q
    np.hypot(x, y, out=norms)
    if np.count_nonzero(norms) < norms.size:
        values, lengths, lam, k = chain
        for r in np.flatnonzero(norms == 0.0).tolist():
            j = piece + 2 * r
            x[r], y[r], dead[j] = _step_pieces([(values[j], lengths[j])], float(p[r]),
                                               float(q[r]), lam, k)
            norms[r] = 1.0
    if units is not None:
        np.divide(x, norms, out=units[:, 0])
        np.divide(y, norms, out=units[:, 1])


def _unwind_boundaries(psi: np.ndarray, psik: np.ndarray, values: np.ndarray,
                      lengths: np.ndarray, lam: float, k: float, start: float) -> np.ndarray:
    """Unwound phases of one chain's boundary vectors (psi, psi'/k).

    psi and psik have one element more than values and lengths, and start
    is the unwound phase of element 0.  Each increment is the difference of
    the boundary-vector angles plus the whole turns of _piece_turns; the
    vectors need not be normalized.
    """
    angle = np.arctan2(psi, psik)
    turns = _piece_turns((psi[:-1], psik[:-1], angle[:-1]), (psi[1:], psik[1:], angle[1:]),
                         values, lengths, lam, k, start)
    angle[0] = start
    angle[1:] += _TWO_PI * np.add.accumulate(turns)
    return angle


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
    u = np.asarray((lam - values) * lengths * lengths)
    osc = u > 0.0
    if u.size and np.count_nonzero(osc) == u.size:
        # every piece oscillatory (a NaN fails the test): whole arrays, no gathers
        estimate = diff + _oscillatory_turns(u, lengths, p0, q0, p1, q1, k)
    else:
        estimate = np.where(u == 0.0, 0.5 * _PI, 0.0)
        osc = np.flatnonzero(osc)
        if osc.size:  # then u has one element per piece
            estimate.reshape(-1)[osc] = diff.reshape(-1)[osc] + _oscillatory_turns(
                *(x if np.ndim(x) == 0 else x.reshape(-1)[osc]
                  for x in (u, lengths, p0, q0, p1, q1)), k)
    if start is not None:
        diff[:1] = a1[:1] - start
    return ((estimate - diff) / _TWO_PI).round()


def _rotation_turns(a0, a1, lengths, lam: float) -> np.ndarray:
    """_piece_turns of a run of zero-potential gaps at lam > 0, from their boundary angles.

    Such a gap is an exact rotation: rho = 1, so its conjugate angle is the
    vector angle itself, which turns by exactly omega l, and the whole turns
    are round((a0 + omega l - a1) / 2 pi) with no further angle.  a0 and a1
    are the entering and leaving angles.  The turns are _piece_turns' floats
    while omega l is below about 1e16, past which neither count has a
    meaning; -0.0 reads 0.0 as there.
    """
    w = np.sqrt(lam * lengths * lengths)
    turns = ((a0 + w - a1) / _TWO_PI).round()
    turns += 0.0
    return turns


def _oscillatory_turns(u, length, p0, q0, p1, q1, k: float):
    """2 pi times the whole turns of oscillatory pieces beyond their angle difference.

    The conjugate angle atan2(rho psi, psi'/k) turns by exactly omega l, so
    the increment estimate of a piece is the difference of its boundary
    angles plus what this returns.
    """
    w = np.sqrt(u)
    rho = w / (k * length)
    conj0 = np.arctan2(rho * p0, q0)
    conj1 = np.arctan2(rho * p1, q1)
    return _TWO_PI * ((conj0 + w - conj1) / _TWO_PI).round()
