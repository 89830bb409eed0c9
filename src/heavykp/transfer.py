"""Transfer matrices for piecewise-constant Schrodinger operators.

A piece of length l with constant potential V at spectral parameter lam is
propagated by an SL(2,R) matrix acting on the k-normalized frame
(psi, psi'/k) with k = sqrt(|lam|) (k = 1 at lam = 0).  Everything is driven
by the single combination u = (lam - V) l**2:

    u > 0   oscillatory piece, rotation-like matrix,
    u < 0   hyperbolic piece, growth exp(sqrt(-u)) along the expanding line,
    u ~ 0   parabolic shear, evaluated by series to avoid 0/0.

Products over many pieces overflow float range quickly (a single heavy bump
already reaches exp(700)), so matrices carry a separate log scale and are
renormalized to moderate Frobenius norm as they are multiplied.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Tuple

import numpy as np

# Series window for the parabolic regime.  Inside it the truncated series
# for cos-like and sinc-like factors are exact to double precision.
U_SERIES_WINDOW = 1e-8

# Above this value of a = sqrt(-u), cosh(a)**2 would overflow intermediate
# Frobenius computations, so the matrix is built in factored form with the
# exp(a) growth moved directly into the log scale.
A_FACTORED = 300.0

# Renormalization band for accumulated products.
_NORM_LO = 0.5
_NORM_HI = 2.0

# Log-scale ceiling; beyond it downstream exponentiation is meaningless.
LOG_SCALE_CEILING = 1e300


class SaturationError(RuntimeError):
    """Raised when an accumulated log scale exceeds representable range."""


@dataclass(frozen=True)
class EnergyFrame:
    """Spectral parameter together with its frame normalization k = sqrt(|lam|).

    The frame constant is what converts psi' into the second Prufer
    coordinate psi'/k; it is strictly positive even at lam = 0, where the
    conventional choice k = 1 keeps the frame nondegenerate.
    """

    lam: float
    k_norm: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.lam):
            raise ValueError("lam must be finite")
        if not (self.k_norm > 0.0) or not math.isfinite(self.k_norm):
            raise ValueError("k_norm must be positive and finite")

    @classmethod
    def from_lambda(cls, lam: float) -> "EnergyFrame":
        lam = float(lam)
        if not math.isfinite(lam):
            raise ValueError("lam must be finite")
        k = math.sqrt(abs(lam)) if lam != 0.0 else 1.0
        return cls(lam=lam, k_norm=k)


class Mat2(NamedTuple):
    """Row-major 2x2 matrix entries."""

    a: float
    b: float
    c: float
    d: float


@dataclass(frozen=True)
class ScaledMat:
    """2x2 matrix in factored form exp(log_scale) * m.

    The stored factor m is kept at moderate Frobenius norm so products over
    arbitrarily many pieces neither overflow nor underflow; all growth lives
    in log_scale.
    """

    m: Mat2
    log_scale: float

    def to_array(self) -> np.ndarray:
        return np.array([[self.m.a, self.m.b], [self.m.c, self.m.d]], dtype=float)


def _frobenius(a: float, b: float, c: float, d: float) -> float:
    """Frobenius norm, safe against overflow of squared entries."""
    peak = max(abs(a), abs(b), abs(c), abs(d))
    if peak == 0.0:
        return 0.0
    if peak > 1e150 or peak < 1e-150:
        ra, rb, rc, rd = a / peak, b / peak, c / peak, d / peak
        return peak * math.sqrt(ra * ra + rb * rb + rc * rc + rd * rd)
    return math.sqrt(a * a + b * b + c * c + d * d)


def _normalized(a: float, b: float, c: float, d: float, log_scale: float) -> ScaledMat:
    """Pull the Frobenius norm into log_scale when it leaves [1/2, 2]."""
    f = _frobenius(a, b, c, d)
    if f == 0.0 or not math.isfinite(f):
        raise SaturationError("matrix norm left representable range")
    if _NORM_LO <= f <= _NORM_HI:
        return ScaledMat(m=Mat2(a, b, c, d), log_scale=log_scale)
    inv = 1.0 / f
    return ScaledMat(m=Mat2(a * inv, b * inv, c * inv, d * inv), log_scale=log_scale + math.log(f))


def identity_mat() -> ScaledMat:
    return ScaledMat(m=Mat2(1.0, 0.0, 0.0, 1.0), log_scale=0.0)


def _cs_pair(u: float) -> Tuple[float, float]:
    """Cosine-like and sinc-like factors c(u), s(u) of the piece matrix.

    c(u) = cos(sqrt(u)) and s(u) = sin(sqrt(u))/sqrt(u) for u > 0, with the
    hyperbolic continuations for u < 0; both are entire in u, and the series
    branch realizes them in the window where the closed forms lose digits.
    """
    if abs(u) < U_SERIES_WINDOW:
        c = 1.0 - u / 2.0 + u * u / 24.0 - u * u * u / 720.0
        s = 1.0 - u / 6.0 + u * u / 120.0 - u * u * u / 5040.0
        return c, s
    if u > 0.0:
        w = math.sqrt(u)
        return math.cos(w), math.sin(w) / w
    a = math.sqrt(-u)
    return math.cosh(a), math.sinh(a) / a


def _validate_piece(value: float, length: float) -> None:
    if not math.isfinite(value):
        raise ValueError("potential value must be finite")
    if not (length > 0.0) or not math.isfinite(length):
        raise ValueError("piece length must be positive and finite")


def transfer_matrix(value: float, length: float, frame: EnergyFrame) -> ScaledMat:
    """Propagator of one constant piece in the k-normalized frame.

    Exact solution of -psi'' + V psi = lam psi on an interval of the given
    length, expressed on (psi, psi'/k).  The determinant is identically one;
    growth beyond float range is carried by the log scale.
    """
    _validate_piece(value, length)
    k = frame.k_norm
    u = (frame.lam - value) * length * length
    if u < 0.0:
        a = math.sqrt(-u)
        if a > A_FACTORED:
            # cosh/sinh overflow here; factor out exp(a) analytically.
            b_over_k = a / (k * length)
            q = math.exp(-2.0 * a)
            m00 = 0.5 * (1.0 + q)
            m01 = 0.5 * (1.0 - q) / b_over_k
            m10 = 0.5 * (1.0 - q) * b_over_k
            return _normalized(m00, m01, m10, m00, a)
    c, s = _cs_pair(u)
    m01 = k * length * s
    m10 = (value - frame.lam) * length * s / k
    return _normalized(c, m01, m10, c, 0.0)


def gap_matrix(gap_length: float, frame: EnergyFrame) -> ScaledMat:
    """Propagator of a zero-potential gap: a pure rotation by k * length.

    Only defined for lam > 0, where the free motion is oscillatory and the
    k-normalized frame turns it into an exact rotation with log_scale 0.
    """
    if frame.lam <= 0.0:
        raise ValueError("gap_matrix requires lam > 0")
    if not (gap_length > 0.0) or not math.isfinite(gap_length):
        raise ValueError("gap length must be positive and finite")
    phi = frame.k_norm * gap_length
    cp = math.cos(phi)
    sp = math.sin(phi)
    return ScaledMat(m=Mat2(cp, sp, -sp, cp), log_scale=0.0)


def model3_bump_matrix(frame: EnergyFrame) -> ScaledMat:
    """Unit bump propagator (V = 1 on a length-1 piece) for sparse-bump chains."""
    if frame.lam <= 0.0:
        raise ValueError("model3_bump_matrix requires lam > 0")
    return transfer_matrix(1.0, 1.0, frame)


def accumulate(acc: ScaledMat, nxt: ScaledMat) -> ScaledMat:
    """Left-multiply the running product by the next piece: returns nxt * acc.

    Order matters: the chain is traversed left to right, and each new piece
    acts after everything accumulated so far.
    """
    pa, pb, pc, pd = nxt.m
    qa, qb, qc, qd = acc.m
    ra = pa * qa + pb * qc
    rb = pa * qb + pb * qd
    rc = pc * qa + pd * qc
    rd = pc * qb + pd * qd
    log_scale = acc.log_scale + nxt.log_scale
    if log_scale > LOG_SCALE_CEILING or not math.isfinite(log_scale):
        raise SaturationError("accumulated log scale exceeds representable range")
    return _normalized(ra, rb, rc, rd, log_scale)


def log_norm(sm: ScaledMat) -> float:
    """log of the true Frobenius norm, log_scale included."""
    return sm.log_scale + math.log(_frobenius(*sm.m))


def apply(sm: ScaledMat, v) -> Tuple[np.ndarray, float]:
    """Act on a nonzero 2-vector; returns (unit direction, log magnitude gain).

    The magnitude gain is log(|M v| / |v|), so applying the identity yields
    zero regardless of |v|.
    """
    v0 = float(v[0])
    v1 = float(v[1])
    nv = math.hypot(v0, v1)
    if nv == 0.0 or not math.isfinite(nv):
        raise ValueError("v must be a nonzero finite 2-vector")
    w0 = sm.m.a * v0 + sm.m.b * v1
    w1 = sm.m.c * v0 + sm.m.d * v1
    nw = math.hypot(w0, w1)
    if nw == 0.0:
        raise SaturationError("matrix application annihilated the vector")
    return np.array([w0 / nw, w1 / nw]), sm.log_scale + math.log(nw / nv)


def stored_det(sm: ScaledMat) -> float:
    """Determinant of the stored factor m (true det is this times exp(2 log_scale)).

    Meaningful only while the entries carry enough relative precision: once a
    hyperbolic piece has sqrt(-u) beyond ~18, the two products agree to all
    stored digits and their difference is pure rounding noise.  Use
    det_defect for a conditioning-independent check.
    """
    return sm.m.a * sm.m.d - sm.m.b * sm.m.c


def det_defect(value: float, length: float, frame: EnergyFrame) -> float:
    """|det - 1| of the piece propagator, evaluated without cancellation.

    Algebraically det = c(u)**2 + u s(u)**2 for every branch.  For u < 0 this
    is cosh(a)**2 - sinh(a)**2, whose naive float evaluation loses all digits
    once a > 18; the equivalent form expm1(a + log(exp(-a))) measures the same
    defect (the rounding of exp) at full precision without ever evaluating
    exp(a) itself.  Once exp(-a) underflows the identity is enforced
    analytically by the factored construction, with the growth carried in the
    log scale, and the defect is exactly zero.
    """
    _validate_piece(value, length)
    u = (frame.lam - value) * length * length
    if abs(u) < U_SERIES_WINDOW:
        c, s = _cs_pair(u)
        return abs(c * c + u * s * s - 1.0)
    if u > 0.0:
        w = math.sqrt(u)
        cw = math.cos(w)
        sw = math.sin(w)
        return abs(cw * cw + sw * sw - 1.0)
    a = math.sqrt(-u)
    if a > 700.0:
        return 0.0
    return abs(math.expm1(a + math.log(math.exp(-a))))


# ── Vectorized product folds ─────────────────────────────────────────────────
#
# BatchProducts keeps the running products of S chains as flat entry arrays
# plus a per-chain log scale; push_piece is the vectorized counterpart of
# transfer_matrix followed by accumulate, renormalizing every step, and
# push_rotation the zero-potential gap at lam > 0.  They are references for
# the tests: the estimator sweeps build their piece matrices in bulk with
# _piece_entries_batch and push column vectors instead.  Both names also stay
# bound in heavykp.estimators because bench/spans.py wraps them there.


class BatchProducts:
    """Running SL(2,R) products of S independent chains."""

    __slots__ = ("a", "b", "c", "d", "log")

    def __init__(self, n_chains: int):
        self.a = np.ones(n_chains)
        self.b = np.zeros(n_chains)
        self.c = np.zeros(n_chains)
        self.d = np.ones(n_chains)
        self.log = np.zeros(n_chains)

    def log_norms(self) -> np.ndarray:
        quad = self.a * self.a + self.b * self.b + self.c * self.c + self.d * self.d
        return self.log + 0.5 * np.log(quad)


def _piece_entries_batch(value: np.ndarray, length, lam: float, k: float):
    """Vectorized piece matrices: entry arrays plus per-chain log prescale.

    Lanes are grouped by branch through flat index arrays, which gather and
    scatter several times faster than boolean masks.  Every hyperbolic lane
    takes cosh/sinh; the factored ones, where those overflow, are then
    overwritten.
    """
    value = np.asarray(value, dtype=float)
    length = np.asarray(length, dtype=float)
    u = (lam - value) * length * length

    c = np.empty(u.shape)
    s = np.empty(u.shape)
    pre = np.zeros(u.shape)
    uf = u.ravel()
    cf = c.reshape(-1)
    sf = s.reshape(-1)

    tiny = np.flatnonzero(np.abs(uf) < U_SERIES_WINDOW)
    if tiny.size:
        ut = uf[tiny]
        cf[tiny] = 1.0 - ut / 2.0 + ut * ut / 24.0 - ut * ut * ut / 720.0
        sf[tiny] = 1.0 - ut / 6.0 + ut * ut / 120.0 - ut * ut * ut / 5040.0

    osc = np.flatnonzero(uf >= U_SERIES_WINDOW)
    if osc.size:
        w = np.sqrt(uf[osc])
        cf[osc] = np.cos(w)
        sf[osc] = np.sin(w) / w

    hyp = np.flatnonzero(uf <= -U_SERIES_WINDOW)
    if hyp.size:
        ah = np.sqrt(-uf[hyp])
        with np.errstate(over="ignore", invalid="ignore"):
            ch = np.cosh(ah)
            sh = np.sinh(ah) / ah
        fac = np.flatnonzero(ah > A_FACTORED)
        if fac.size:
            # factored form: exp(a) moved into the prescale
            af = ah[fac]
            q = np.exp(-2.0 * af)
            ch[fac] = 0.5 * (1.0 + q)
            sh[fac] = 0.5 * (1.0 - q) / af
            pre.reshape(-1)[hyp[fac]] = af
        cf[hyp] = ch
        sf[hyp] = sh

    m01 = k * length * s
    m10 = (value - lam) * length * s / k
    return c, m01, m10, pre


def push_piece(bp: BatchProducts, value, length, frame: EnergyFrame) -> None:
    """Multiply every chain's product by its own piece matrix, in place.

    value may be an array (one independent draw per chain) or a scalar;
    length likewise.  Equivalent to transfer_matrix + accumulate per chain.
    """
    k = frame.k_norm
    ones = np.ones_like(bp.a)
    value = np.asarray(value, dtype=float) * ones if np.ndim(value) == 0 else np.asarray(value, dtype=float)
    length = np.asarray(length, dtype=float) * ones if np.ndim(length) == 0 else np.asarray(length, dtype=float)
    p00, p01, p10, pre = _piece_entries_batch(value, length, frame.lam, k)

    na = p00 * bp.a + p01 * bp.c
    nb = p00 * bp.b + p01 * bp.d
    nc = p10 * bp.a + p00 * bp.c
    nd = p10 * bp.b + p00 * bp.d

    quad = na * na + nb * nb + nc * nc + nd * nd
    f = np.sqrt(quad)
    if not np.all(np.isfinite(f)) or np.any(f == 0.0):
        raise SaturationError("batch product norm left representable range")
    inv = 1.0 / f
    bp.a = na * inv
    bp.b = nb * inv
    bp.c = nc * inv
    bp.d = nd * inv
    bp.log = bp.log + pre + np.log(f)
    if np.any(bp.log > LOG_SCALE_CEILING):
        raise SaturationError("accumulated log scale exceeds representable range")


def push_rotation(bp: BatchProducts, gap_length, frame: EnergyFrame) -> None:
    """Vectorized gap step: rotation by k * gap_length per chain, in place."""
    if frame.lam <= 0.0:
        raise ValueError("gap rotations require lam > 0")
    phi = frame.k_norm * np.asarray(gap_length, dtype=float)
    cp = np.cos(phi)
    sp = np.sin(phi)
    na = cp * bp.a + sp * bp.c
    nb = cp * bp.b + sp * bp.d
    nc = -sp * bp.a + cp * bp.c
    nd = -sp * bp.b + cp * bp.d
    bp.a, bp.b, bp.c, bp.d = na, nb, nc, nd
