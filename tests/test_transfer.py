"""Transfer matrices: closed forms, log scaling, determinant exactness, batch folds.

High-precision oracles are computed with mpmath directly from the defining
formulas (cos/cosh of sqrt(u)), so they exercise none of the library's own
branch logic: the series window, the factored overflow form and the
renormalization of products all have to reproduce them.  Single pieces are
checked on the entries of _piece_entries_batch, the one piece kernel, and
chains on the push_piece products built from it.
"""
import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heavykp.prufer import walk_chain
from heavykp.transfer import (
    A_FACTORED,
    BatchProducts,
    EnergyFrame,
    SaturationError,
    U_SERIES_WINDOW,
    _piece_entries_batch,
    _product_entries,
    det_defect,
    push_piece,
    push_rotation,
)
from reference import mp_piece


def _mp_frobenius(m: mp.matrix) -> mp.mpf:
    return mp.sqrt(m[0, 0] ** 2 + m[0, 1] ** 2 + m[1, 0] ** 2 + m[1, 1] ** 2)


def _entries(value: float, length: float, frame: EnergyFrame):
    """Row-major entries and log prescale of one piece matrix, as floats."""
    c, b, e, pre = _piece_entries_batch(value, length, frame.lam, frame.k_norm)
    return (float(c), float(b), float(e), float(c)), float(pre)


def _piece(value: float, length: float, frame: EnergyFrame):
    """(log Frobenius norm, entries) of one piece matrix from the kernel."""
    m, pre = _entries(value, length, frame)
    return pre + math.log(math.hypot(*m)), m


def _product(bp: BatchProducts, j: int = 0):
    """(log Frobenius norm, entries) of chain j of a batch product."""
    return float(bp.log_norms()[j]), (bp.a[j], bp.b[j], bp.c[j], bp.d[j])


def _assert_matches(got, oracle: mp.matrix, log_rel=1e-12, dir_abs=1e-12):
    """Compare log Frobenius norm and unit-Frobenius direction against mpmath."""
    log_norm, m = got
    f = _mp_frobenius(oracle)
    assert log_norm == pytest.approx(float(mp.log(f)), rel=log_rel, abs=1e-11)
    fro = math.hypot(*m)
    want = [oracle[0, 0] / f, oracle[0, 1] / f, oracle[1, 0] / f, oracle[1, 1] / f]
    for g, w in zip(m, want):
        assert g / fro == pytest.approx(float(w), abs=dir_abs)


# ── Energy frame ─────────────────────────────────────────────────────────────


def test_frame_normalization():
    assert EnergyFrame(4.0).k_norm == 2.0
    assert EnergyFrame(-9.0).k_norm == 3.0
    assert EnergyFrame(0.0).k_norm == 1.0


def test_frame_rejects_bad_input():
    with pytest.raises(ValueError):
        EnergyFrame(math.nan)
    with pytest.raises(ValueError):
        EnergyFrame(lam=math.inf)
    # k is derived from lam, never passed
    with pytest.raises(TypeError):
        EnergyFrame(lam=1.0, k_norm=2.0)


# ── Closed-form piece matrices ───────────────────────────────────────────────


def test_free_quarter_rotation():
    # V = 0, lam = 1, length pi/2: a quarter turn of the frame
    (a, b, c, d), pre = _entries(0.0, math.pi / 2, EnergyFrame(1.0))
    assert pre == 0.0
    assert a == pytest.approx(0.0, abs=1e-12)
    assert b == pytest.approx(1.0, abs=1e-12)
    assert c == pytest.approx(-1.0, abs=1e-12)
    assert d == pytest.approx(0.0, abs=1e-12)


def test_resonant_shear():
    # V = lam gives u = 0 exactly: unit shear in the k = 1 frame
    assert _entries(1.0, 1.0, EnergyFrame(1.0)) == ((1.0, 1.0, 0.0, 1.0), 0.0)


def test_deep_well_reconstructs_cosh():
    # V = lam + 100: a = 10, its exp(a) growth carried in the prescale
    frame = EnergyFrame(1.0)
    (a, b, c, d), pre = _entries(101.0, 1.0, frame)
    assert pre == 10.0
    bp = BatchProducts(1)
    push_piece(bp, 101.0, 1.0, frame)
    scale = math.exp(bp.log[0])
    for entry, stored, want in ((a, bp.a, math.cosh(10.0)), (b, bp.b, math.sinh(10.0) / 10.0),
                                (c, bp.c, 10.0 * math.sinh(10.0)), (d, bp.d, math.cosh(10.0))):
        assert entry * math.exp(pre) == pytest.approx(want, rel=1e-10)
        assert scale * stored[0] == pytest.approx(want, rel=1e-10)
        assert abs(stored[0]) <= 1.0  # the product is renormalized to unit norm


def test_unit_bump_trig_form():
    # k^2 = 2: oscillatory unit bump
    (a, b, c, d), pre = _entries(1.0, 1.0, EnergyFrame(2.0))
    assert pre == 0.0
    assert a == pytest.approx(math.cos(1.0), abs=1e-12)
    assert b == pytest.approx(math.sqrt(2.0) * math.sin(1.0), abs=1e-12)
    assert c == pytest.approx(-math.sin(1.0) / math.sqrt(2.0), abs=1e-12)
    assert d == pytest.approx(math.cos(1.0), abs=1e-12)


def test_unit_bump_resonant_and_hyperbolic():
    # k^2 = 1 degenerates to the shear; k^2 = 1/2 is hyperbolic with det 1
    assert _entries(1.0, 1.0, EnergyFrame(1.0)) == ((1.0, 1.0, 0.0, 1.0), 0.0)

    frame = EnergyFrame(0.5)
    with mp.workdps(80):
        _assert_matches(_piece(1.0, 1.0, frame), mp_piece(1.0, 1.0, 0.5, frame.k_norm))
    assert det_defect(1.0, 1.0, frame) <= 1e-12


def test_piece_validation():
    frame = EnergyFrame(1.0)
    with pytest.raises(ValueError):
        det_defect(math.nan, 1.0, frame)
    with pytest.raises(ValueError):
        det_defect(1.0, 0.0, frame)
    with pytest.raises(ValueError):
        det_defect(1.0, -2.0, frame)
    with pytest.raises(ValueError):
        det_defect(1.0, math.inf, frame)


def test_piece_entries_broadcast_energies():
    # one call with an energy per piece gives every piece's entries bit for
    # bit as its own call does, on all four branches and at lam <= 0
    lam = np.array([2.0, 2.0, 0.3, 5.0, -0.7, 0.0, 1.0, -4.0, 9.0, 0.5])
    k = np.sqrt(np.abs(lam))
    k[lam == 0.0] = 1.0
    value = np.array([2.0 - 1e-9, 2.0, -3.0, 5.0 - 40.0, 1.3, 2.0, 1e6, 1e8, 9.0 + 1e7, -1.0])
    length = np.array([1.0, 1.7, 0.8, 1.2, 0.5, 1e-5, 1.0, 2.0, 0.9, 3.0])
    u = (lam - value) * length * length
    series = np.abs(u) < U_SERIES_WINDOW
    factored = -u > A_FACTORED ** 2
    assert series.any() and factored.any()
    assert (u >= U_SERIES_WINDOW).any() and ((u <= -U_SERIES_WINDOW) & ~factored).any()
    together = _piece_entries_batch(value, length, lam, k)
    for i in range(lam.size):
        alone = _piece_entries_batch(value[i], length[i], lam[i], k[i])
        for got, want in zip(together, alone):
            assert got[i].tobytes() == np.asarray(want).tobytes(), i


def test_all_oscillatory_call_equals_the_branch_path():
    # a call whose pieces are all oscillatory runs on the whole arrays; each
    # element is the same bits as inside a call with a hyperbolic piece,
    # which takes the branch path, and as its own 0-d call.  Wells at lam = 0
    # (one at u exactly U_SERIES_WINDOW, the smallest the shortcut takes)
    # and gaps at lam = 1.3
    rng = np.random.default_rng(6)
    for lam, value, length in (
        (0.0, -np.concatenate(([U_SERIES_WINDOW], rng.pareto(0.6, 199) + 1e-3)), 1.0),
        (1.3, 0.0, rng.pareto(0.6, 200) + 1e-6),
    ):
        k = math.sqrt(lam) if lam else 1.0
        value, length = np.broadcast_arrays(np.asarray(value, float), np.asarray(length, float))
        u = (lam - value) * length * length
        assert u.min() >= U_SERIES_WINDOW
        assert lam or u.min() == U_SERIES_WINDOW
        whole = _piece_entries_batch(value.reshape(20, 10), length.reshape(20, 10), lam, k)
        mixed = _piece_entries_batch(np.append(value, lam + 5.0), np.append(length, 1.0), lam, k)
        assert mixed[3][-1] == math.sqrt(5.0)  # the hyperbolic piece
        for got, want in zip(whole, mixed):
            assert got.reshape(-1).tobytes() == want[:-1].tobytes()
        for i in (0, 1, 77, 199):
            alone = _piece_entries_batch(value[i], length[i], lam, k)
            for got, want in zip(alone, mixed):
                assert np.ndim(got) == 0
                assert np.asarray(got).tobytes() == want[i].tobytes()


# ── Gap rotations ────────────────────────────────────────────────────────────


def test_gap_is_free_transfer():
    frame = EnergyFrame(3.0)
    g = BatchProducts(1)
    push_rotation(g, 1.7, frame)
    t = BatchProducts(1)
    push_piece(t, 0.0, 1.7, frame)
    scale = math.exp(t.log[0])
    for ge, te in zip((g.a, g.b, g.c, g.d), (t.a, t.b, t.c, t.d)):
        assert ge[0] == pytest.approx(scale * te[0], abs=1e-14)
    assert g.log[0] == 0.0


def test_gap_composition():
    frame = EnergyFrame(2.0)
    for y1, y2 in [(0.3, 1.1), (5.0, 0.02), (12.7, 9.9)]:
        combined = BatchProducts(1)
        push_rotation(combined, y1 + y2, frame)
        product = BatchProducts(1)
        push_rotation(product, y1, frame)
        push_rotation(product, y2, frame)
        for pe, ce in zip((product.a, product.b, product.c, product.d),
                          (combined.a, combined.b, combined.c, combined.d)):
            assert pe[0] == pytest.approx(ce[0], abs=1e-12)


def test_long_rotation_chain_stays_orthogonal():
    # 1e5 rotation products: drift must stay at rounding level
    rng = np.random.default_rng(10)
    frame = EnergyFrame(2.0)
    gaps = rng.random(100_000) * 3.0 + 1e-3
    bp = BatchProducts(1)
    for y in gaps:
        push_rotation(bp, y, frame)
    a, b, c, d = bp.a[0], bp.b[0], bp.c[0], bp.d[0]
    assert abs(bp.log_norms()[0] - 0.5 * math.log(2.0)) <= 1e-9  # norm of a rotation is sqrt(2)
    assert abs((a * d - b * c) * math.exp(2.0 * bp.log[0]) - 1.0) <= 1e-9
    assert abs(a - d) <= 1e-9
    assert abs(b + c) <= 1e-9


# ── Oracle comparisons across regimes ────────────────────────────────────────


def test_series_window_matches_oracle():
    # u within the series window, reached through different (value, length) routes
    with mp.workdps(80):
        cases = [
            (2.0 - 1e-9, 1.0, 2.0),
            (2.0 + 1e-9, 1.0, 2.0),
            (2.0 - 2.5e-13, 1.0, 2.0),
            (2.0 + 2.5e-13, 1.0, 2.0),
            (5.0, 1e-3, 5.0 + 1e-3),  # u = 1e-9 via a short piece
            (5.0, 1e-3, 5.0 - 1e-3),
        ]
        for value, length, lam in cases:
            frame = EnergyFrame(lam)
            u = (lam - value) * length * length
            assert abs(u) < U_SERIES_WINDOW
            _assert_matches(_piece(value, length, frame), mp_piece(value, length, lam, frame.k_norm),
                            dir_abs=1e-14)


def test_factored_form_matches_oracle():
    # a = sqrt(-u) beyond the cosh overflow threshold, including a > 700
    with mp.workdps(120):
        frame = EnergyFrame(1.0)
        for a in (305.0, 500.0, 1000.0, 3000.0):
            value = 1.0 + a * a
            assert math.sqrt((value - 1.0)) > A_FACTORED
            _assert_matches(_piece(value, 1.0, frame), mp_piece(value, 1.0, 1.0, frame.k_norm),
                            log_rel=1e-13)
            assert det_defect(value, 1.0, frame) <= 1e-12


def test_moderate_pieces_match_oracle():
    with mp.workdps(80):
        rng = np.random.default_rng(77)
        for _ in range(60):
            lam = float(rng.uniform(-10.0, 30.0))
            if lam == 0.0:
                lam = 0.5
            value = float(rng.uniform(-20.0, 40.0))
            length = float(rng.uniform(0.05, 3.0))
            frame = EnergyFrame(lam)
            if abs((lam - value) * length * length) < 10 * U_SERIES_WINDOW:
                continue
            _assert_matches(_piece(value, length, frame), mp_piece(value, length, lam, frame.k_norm),
                            dir_abs=5e-12)


# a barrier as (log10 a, log10 length): a from 1e-4 to 1e150
_barrier = st.tuples(st.floats(-4.0, 150.0), st.floats(-3.0, 3.0))


def _barrier_piece(lam: float, log_a: float, log_length: float):
    """(value, length, a) of the barrier of a = 10**log_a and that length at lam."""
    length = 10.0 ** log_length
    value = lam + (10.0 ** log_a / length) ** 2
    u = (lam - value) * length * length
    assume(u <= -U_SERIES_WINDOW)
    return value, length, math.sqrt(-u)


@settings(max_examples=200, deadline=None)
@given(log_lam=st.floats(-323.31, 2.0), negative=st.booleans(), first=_barrier, second=_barrier)
def test_barrier_entries_are_bounded(log_lam, negative, first, second):
    # at k = sqrt(|lam|) from sqrt(5e-324) to 10, every barrier is built in
    # the factored form: c = e^(-a) cosh(a) in [1/2, 1], b = k l e^(-a)
    # sinh(a)/a <= k l, e = a e^(-a) sinh(a)/(k l) <= a/(2 k l), and exp(a)
    # in the prescale
    with mp.workdps(80):
        lam = math.copysign(10.0 ** log_lam, -1.0 if negative else 1.0)
        frame = EnergyFrame(lam)
        pieces = []
        for log_a, log_length in (first, second):
            value, length, a = _barrier_piece(lam, log_a, log_length)
            c, b, e, pre = _piece_entries_batch(value, length, lam, frame.k_norm)
            assert 0.5 <= c <= 1.0 and pre == a
            if not max(b, e) < sys.float_info.max / 2.0:
                continue  # an entry near or past float range at tiny k l
            pieces.append((c, b, e))
            oracle = mp_piece(value, length, lam, frame.k_norm)
            if a > A_FACTORED:  # as in test_factored_form_matches_oracle
                _assert_matches(_piece(value, length, frame), oracle, log_rel=1e-13)
            else:  # as in test_moderate_pieces_match_oracle
                _assert_matches(_piece(value, length, frame), oracle, dir_abs=5e-12)
        # each product entry is a sum of two terms: c1 c2 <= 1, the sums of two
        # entries stay below float range, and b2 e1 = sqrt((V1 - lam)/(V2 - lam))
        # (1 - e^(-2 a1)) (1 - e^(-2 a2))/4 is at most l2 a1/(2 l1) (and the same
        # with the pieces swapped for e2 b1)
        if len(pieces) == 2:
            for entry in _product_entries(pieces[0], pieces[1]):
                assert math.isfinite(entry)


def test_random_chain_matches_oracle():
    # 30-piece products with mixed regimes, against an exact mpmath product
    with mp.workdps(120):
        rng = np.random.default_rng(5150)
        frame = EnergyFrame(2.0)
        for _ in range(5):
            pieces = []
            for _ in range(30):
                if rng.random() < 0.3:
                    value = float(rng.uniform(50.0, 5000.0))  # hyperbolic
                else:
                    value = float(rng.uniform(-3.0, 1.9))  # oscillatory
                pieces.append((value, float(rng.uniform(0.1, 1.5))))
            bp = BatchProducts(1)
            oracle = mp.matrix([[1, 0], [0, 1]])
            for value, length in pieces:
                push_piece(bp, value, length, frame)
                oracle = mp_piece(value, length, 2.0, frame.k_norm) * oracle
            _assert_matches(_product(bp), oracle, log_rel=1e-11, dir_abs=1e-10)


# ── Determinant exactness ────────────────────────────────────────────────────


def test_det_defect_sweep():
    rng = np.random.default_rng(909)
    frames = [EnergyFrame(l) for l in (-5.0, 0.3, 2.0, 25.0)]
    worst = 0.0
    for _ in range(2000):
        frame = frames[rng.integers(len(frames))]
        if rng.random() < 0.2:
            value = float(rng.uniform(1e4, 1e8))  # heavy bump
        else:
            value = float(rng.uniform(-50.0, 50.0))
        length = float(math.exp(rng.uniform(-3.0, 1.0)))
        worst = max(worst, det_defect(value, length, frame))
    assert worst <= 1e-12


def test_product_det_weak_disorder_chain():
    # the stored det is reliable only while the product norm is moderate, so
    # pin it on a weak-disorder chain whose log scale stays near zero
    rng = np.random.default_rng(31)
    frame = EnergyFrame(2.0)
    bp = BatchProducts(1)
    for _ in range(200):
        push_piece(bp, float(rng.uniform(-0.5, 0.5)), 1.0, frame)
    assert bp.log[0] < 12.0
    det = bp.a[0] * bp.d[0] - bp.b[0] * bp.c[0]
    assert det * math.exp(2.0 * bp.log[0]) == pytest.approx(1.0, abs=1e-10)


# ── saturation ──────────────────────────────────────────────────────────────


def test_push_piece_saturates_on_log_ceiling():
    frame = EnergyFrame(1.0)
    bp = BatchProducts(1)
    bp.log[:] = 1.8e300
    with pytest.raises(SaturationError):
        push_piece(bp, 1.0, 1.0, frame)
    # an infinite height leaves float range
    with np.errstate(invalid="ignore"), pytest.raises(SaturationError):
        push_piece(BatchProducts(1), math.inf, 1.0, frame)


# ── Batch folds versus single-chain walks ────────────────────────────────────


def _walked_product(values, lengths, frame: EnergyFrame):
    """(log Frobenius norm, unit-Frobenius entries) of one chain's product.

    The columns M e1 and M e2 are walked with walk_chain from theta = pi/2
    and 0.
    """
    cols = [walk_chain(values, lengths, frame, theta) for theta in (0.5 * math.pi, 0.0)]
    log_norm = float(0.5 * np.logaddexp(2.0 * cols[0][1][-1], 2.0 * cols[1][1][-1]))
    (a, c), (b, d) = [(math.exp(lr[-1] - log_norm) * math.sin(th[-1]),
                       math.exp(lr[-1] - log_norm) * math.cos(th[-1])) for th, lr in cols]
    return log_norm, np.array([a, b, c, d])


def test_batch_matches_scalar_products():
    # the batch product against single-chain walks of its columns, in a
    # Python float loop over the same pieces
    rng = np.random.default_rng(2718)
    n_chains, n_pieces = 64, 40
    frame = EnergyFrame(2.0)

    values = rng.uniform(-3.0, 3.0, size=(n_pieces, n_chains))
    # sprinkle heavy bumps to hit the factored branch and tiny u for the series
    heavy = rng.random((n_pieces, n_chains)) < 0.05
    values[heavy] = rng.uniform(1e5, 1e7, size=int(heavy.sum()))
    tiny = rng.random((n_pieces, n_chains)) < 0.05
    values[tiny] = 2.0 - rng.uniform(-1e-9, 1e-9, size=int(tiny.sum()))
    lengths = rng.uniform(0.2, 1.5, size=(n_pieces, n_chains))
    gaps = rng.uniform(0.1, 4.0, size=(n_pieces, n_chains))

    bp = BatchProducts(n_chains)
    for p in range(n_pieces):
        push_rotation(bp, gaps[p], frame)
        push_piece(bp, values[p], lengths[p], frame)

    got_logs = bp.log_norms()
    chain_v = np.zeros((2 * n_pieces, n_chains))
    chain_v[1::2] = values
    chain_l = np.empty((2 * n_pieces, n_chains))
    chain_l[0::2] = gaps
    chain_l[1::2] = lengths
    for j in range(n_chains):
        want_log, walk_dir = _walked_product(chain_v[:, j], chain_l[:, j], frame)
        assert got_logs[j] == pytest.approx(want_log, rel=1e-10, abs=1e-10)
        # compare unit-Frobenius directions
        fro_b = math.sqrt(bp.a[j] ** 2 + bp.b[j] ** 2 + bp.c[j] ** 2 + bp.d[j] ** 2)
        batch_dir = np.array([bp.a[j], bp.b[j], bp.c[j], bp.d[j]]) / fro_b
        assert np.allclose(batch_dir, walk_dir, atol=1e-10)


def test_batch_scalar_broadcast():
    # scalar value/length (the unit-bump chains) must broadcast across chains
    frame = EnergyFrame(2.0)
    bp = BatchProducts(3)
    push_piece(bp, 1.0, 1.0, frame)
    want, _ = _piece(1.0, 1.0, frame)
    assert np.allclose(bp.log_norms(), want, atol=1e-14)


def test_push_rotation_requires_positive_lambda():
    bp = BatchProducts(2)
    for lam in (-2.0, 0.0):
        with pytest.raises(ValueError):
            push_rotation(bp, np.array([1.0, 1.0]), EnergyFrame(lam))
