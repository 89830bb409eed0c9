"""Transfer matrices for piecewise-constant Schrodinger operators.

A piece of length l with constant potential V at spectral parameter lam is
propagated by an SL(2,R) matrix acting on the k-normalized frame
(psi, psi'/k) with k = sqrt(|lam|) (k = 1 at lam = 0).  Everything is driven
by the single combination u = (lam - V) l**2:

    u > 0   oscillatory piece, rotation-like matrix,
    u < 0   hyperbolic piece, growth exp(sqrt(-u)) along the expanding line,
    u ~ 0   parabolic shear, evaluated by series to avoid 0/0.

_piece_entries_batch, the one piece kernel, builds these matrices in bulk,
every hyperbolic one with its exp(a) growth (one heavy piece reaches
exp(700)) moved into a log prescale, which bounds its entries: c in [1/2, 1],
b <= k l, e <= a/(2 k l).  _product_entries multiplies two pieces into one
step, the one statement of "piece after piece": prufer.walk_chain pushes one
chain's solution vector through the products of its pieces two by two, and
the estimator sweeps push many seeds' vectors at once through the products
of each gap with its bump.  No workload forms a longer product.  det_defect
checks the SL(2,R) identity analytically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Series window for the parabolic regime.  Inside it the truncated series
# for cos-like and sinc-like factors are exact to double precision.
U_SERIES_WINDOW = 1e-8

# Past this value of a = sqrt(-u), cosh(a)**2 overflows.  The kernel, which
# builds every hyperbolic piece in the factored form, does not read it; the
# benchmark tracer's branch tally (bench/spans.py) does.
A_FACTORED = 300.0

# Log-scale ceiling; beyond it downstream exponentiation is meaningless.
LOG_SCALE_CEILING = 1e300


class SaturationError(RuntimeError):
    """Raised when an accumulated log scale exceeds representable range."""


@dataclass(frozen=True)
class EnergyFrame:
    """Spectral parameter together with its frame normalization k = sqrt(|lam|).

    The frame constant is what converts psi' into the second Prufer
    coordinate psi'/k; it is derived from lam and strictly positive even at
    lam = 0, where the conventional choice k = 1 keeps the frame
    nondegenerate.
    """

    lam: float
    k_norm: float = field(init=False)

    def __post_init__(self) -> None:
        lam = float(self.lam)
        if not math.isfinite(lam):
            raise ValueError("lam must be finite")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "k_norm", math.sqrt(abs(lam)) if lam != 0.0 else 1.0)


def _cs_pair(u):
    """Cosine-like and sinc-like factors c(u), s(u) inside the series window.

    c(u) = cos(sqrt(u)) and s(u) = sin(sqrt(u))/sqrt(u) for u > 0, with the
    hyperbolic continuations for u < 0; both are entire in u, and for
    |u| < U_SERIES_WINDOW, where the closed forms lose digits, the truncated
    series realizes them.  u is a float or an array (det_defect and
    _piece_entries_batch), elementwise the same expression either way.
    """
    c = 1.0 - u / 2.0 + u * u / 24.0 - u * u * u / 720.0
    s = 1.0 - u / 6.0 + u * u / 120.0 - u * u * u / 5040.0
    return c, s


def det_defect(value: float, length: float, frame: EnergyFrame) -> float:
    """|det - 1| of the piece propagator, evaluated without cancellation.

    Algebraically det = c(u)**2 + u s(u)**2 for every branch.  For u < 0 this
    is cosh(a)**2 - sinh(a)**2, whose naive float evaluation loses all digits
    once a > 18; the equivalent form expm1(a + log(exp(-a))) measures the same
    defect (the rounding of exp) at full precision without ever evaluating
    exp(a) itself.  Once exp(-a) underflows the identity is enforced
    analytically by the factored construction, with the growth carried in the
    log prescale, and the defect is exactly zero.
    """
    if not math.isfinite(value):
        raise ValueError("potential value must be finite")
    if not (length > 0.0) or not math.isfinite(length):
        raise ValueError("piece length must be positive and finite")
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
# plus a per-chain log scale; push_piece multiplies in one piece matrix per
# chain from _piece_entries_batch and renormalizes every step, and
# push_rotation the zero-potential gap at lam > 0.  No workload calls them:
# they remain as the tests' matrix-product reference and as bindings the
# benchmark tracer (bench/spans.py) wraps by module attribute, here and in
# heavykp.estimators.


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


def _branch_entries(uf, cf, sf, pref) -> None:
    """Fill the flat c, s and prescale of pieces uf branch by branch."""
    tiny = np.flatnonzero(np.abs(uf) < U_SERIES_WINDOW)
    if tiny.size:
        cf[tiny], sf[tiny] = _cs_pair(uf[tiny])

    osc = np.flatnonzero(uf >= U_SERIES_WINDOW)
    if osc.size:
        w = np.sqrt(uf[osc])
        cf[osc] = np.cos(w)
        sf[osc] = np.sin(w) / w

    hyp = np.flatnonzero(uf <= -U_SERIES_WINDOW)
    if hyp.size:
        # factored form: e^(-a) cosh(a) and e^(-a) sinh(a)/a, exp(a) in the prescale
        ah = np.sqrt(-uf[hyp])
        em = -np.expm1(-2.0 * ah)
        cf[hyp] = 1.0 - 0.5 * em
        sf[hyp] = 0.5 * em / ah
        pref[hyp] = ah


def _piece_entries_batch(value: np.ndarray, length, lam, k):
    """Vectorized piece matrices: entry arrays plus per-chain log prescale.

    Returns (diagonal, upper, lower, prescale), each with the broadcast
    shape of the arguments.  value, length, lam and k broadcast against each
    other, so one call covers pieces at different energies as well (lam and
    k per piece, k = sqrt(|lam|) or 1 at lam = 0); every element comes out
    bit for bit as from a call on that piece alone.
    Lanes are grouped by branch through flat index arrays, which gather and
    scatter several times faster than boolean masks.  A hyperbolic lane
    carries a = sqrt(-u) as its prescale and e^(-a) times its entries, built
    from expm1(-2a) without cosh or sinh; the other lanes have prescale 0.
    When every piece is oscillatory, as gaps are at lam > 0, the oscillatory
    formulas run on the whole arrays without the gathers, which gives the
    same elements.
    """
    value = np.asarray(value, dtype=float)
    length = np.asarray(length, dtype=float)
    u = (lam - value) * length * length

    c = np.empty(u.shape)
    s = np.empty(u.shape)
    pre = np.zeros(u.shape)
    # a NaN piece fails the test and takes the branch path
    if u.size and np.count_nonzero(u >= U_SERIES_WINDOW) == u.size:
        w = np.sqrt(u)
        np.cos(w, out=c)
        np.sin(w, out=s)
        s /= w
    else:
        _branch_entries(u.ravel(), c.reshape(-1), s.reshape(-1), pre.reshape(-1))

    m01 = k * length * s
    m10 = (value - lam) * length * s / k
    return c, m01, m10, pre


def _product_entries(first, second):
    """Entries (m00, m01, m10, m11) of second @ first, first acting first.

    first and second are the (diagonal, upper, lower) entries of piece
    matrices, as from _piece_entries_batch, and broadcast against each other.
    Entry (i, j) is second[i, 0] first[0, j] + second[i, 1] first[1, j]: two
    products and their sum, each rounded once, so every caller gets the same
    bits for the same pieces.
    """
    fc, fb, fe = first
    sc, sb, se = second
    diagonal = sc * fc
    return diagonal + sb * fe, sc * fb + sb * fc, se * fc + sc * fe, se * fb + diagonal


def push_piece(bp: BatchProducts, value, length, frame: EnergyFrame) -> None:
    """Multiply every chain's product by its own piece matrix, in place.

    value may be an array (one independent draw per chain) or a scalar;
    length likewise.
    """
    p00, p01, p10, pre = _piece_entries_batch(value, length, frame.lam, frame.k_norm)

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
