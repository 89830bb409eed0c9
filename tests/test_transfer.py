"""Transfer matrices: closed forms, log scaling, determinant exactness, batch folds.

High-precision oracles are computed with mpmath directly from the defining
formulas (cos/cosh of sqrt(u)), so they exercise none of the library's own
branch logic: series window, factored overflow form, and renormalization all
have to reproduce them.
"""
import math

import mpmath as mp
import numpy as np
import pytest

from heavykp.transfer import (
    A_FACTORED,
    BatchProducts,
    EnergyFrame,
    Mat2,
    SaturationError,
    ScaledMat,
    U_SERIES_WINDOW,
    accumulate,
    det_defect,
    gap_matrix,
    identity_mat,
    log_norm,
    model3_bump_matrix,
    push_piece,
    push_rotation,
    stored_det,
    transfer_matrix,
)


def _mp_piece(value: float, length: float, lam: float, k: float) -> mp.matrix:
    """Piece propagator at 80 digits, straight from the defining formulas."""
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


def _mp_frobenius(m: mp.matrix) -> mp.mpf:
    return mp.sqrt(m[0, 0] ** 2 + m[0, 1] ** 2 + m[1, 0] ** 2 + m[1, 1] ** 2)


def _assert_matches(sm: ScaledMat, oracle: mp.matrix, log_rel=1e-12, dir_abs=1e-12):
    """Compare log Frobenius norm and unit-Frobenius direction against mpmath."""
    f = _mp_frobenius(oracle)
    assert log_norm(sm) == pytest.approx(float(mp.log(f)), rel=log_rel, abs=1e-11)
    fro = math.sqrt(sm.m.a ** 2 + sm.m.b ** 2 + sm.m.c ** 2 + sm.m.d ** 2)
    want = [oracle[0, 0] / f, oracle[0, 1] / f, oracle[1, 0] / f, oracle[1, 1] / f]
    got = [sm.m.a / fro, sm.m.b / fro, sm.m.c / fro, sm.m.d / fro]
    for g, w in zip(got, want):
        assert g == pytest.approx(float(w), abs=dir_abs)


# ── Energy frame ─────────────────────────────────────────────────────────────


def test_frame_normalization():
    assert EnergyFrame.from_lambda(4.0).k_norm == 2.0
    assert EnergyFrame.from_lambda(-9.0).k_norm == 3.0
    assert EnergyFrame.from_lambda(0.0).k_norm == 1.0


def test_frame_rejects_bad_input():
    with pytest.raises(ValueError):
        EnergyFrame.from_lambda(math.nan)
    with pytest.raises(ValueError):
        EnergyFrame(lam=1.0, k_norm=0.0)
    with pytest.raises(ValueError):
        EnergyFrame(lam=math.inf, k_norm=1.0)


# ── Closed-form piece matrices ───────────────────────────────────────────────


def test_free_quarter_rotation():
    # V = 0, lam = 1, length pi/2: a quarter turn of the frame
    sm = transfer_matrix(0.0, math.pi / 2, EnergyFrame.from_lambda(1.0))
    assert sm.log_scale == 0.0
    assert sm.m.a == pytest.approx(0.0, abs=1e-12)
    assert sm.m.b == pytest.approx(1.0, abs=1e-12)
    assert sm.m.c == pytest.approx(-1.0, abs=1e-12)
    assert sm.m.d == pytest.approx(0.0, abs=1e-12)


def test_resonant_shear():
    # V = lam gives u = 0 exactly: unit shear in the k = 1 frame
    sm = transfer_matrix(1.0, 1.0, EnergyFrame.from_lambda(1.0))
    assert sm.m == Mat2(1.0, 1.0, 0.0, 1.0)
    assert sm.log_scale == 0.0


def test_deep_well_reconstructs_cosh():
    # V = lam + 100: a = 10, comfortably inside the unfactored branch
    sm = transfer_matrix(101.0, 1.0, EnergyFrame.from_lambda(1.0))
    scale = math.exp(sm.log_scale)
    assert scale * sm.m.a == pytest.approx(math.cosh(10.0), rel=1e-10)
    assert scale * sm.m.b == pytest.approx(math.sinh(10.0) / 10.0, rel=1e-10)
    assert scale * sm.m.c == pytest.approx(10.0 * math.sinh(10.0), rel=1e-10)
    assert scale * sm.m.d == pytest.approx(math.cosh(10.0), rel=1e-10)
    for entry in sm.m:
        assert abs(entry) <= 2.0  # renormalization band


def test_unit_bump_trig_form():
    # k^2 = 2: oscillatory unit bump
    sm = model3_bump_matrix(EnergyFrame.from_lambda(2.0))
    assert sm.log_scale == 0.0
    assert sm.m.a == pytest.approx(math.cos(1.0), abs=1e-12)
    assert sm.m.b == pytest.approx(math.sqrt(2.0) * math.sin(1.0), abs=1e-12)
    assert sm.m.c == pytest.approx(-math.sin(1.0) / math.sqrt(2.0), abs=1e-12)
    assert sm.m.d == pytest.approx(math.cos(1.0), abs=1e-12)


def test_unit_bump_resonant_and_hyperbolic():
    # k^2 = 1 degenerates to the shear; k^2 = 1/2 is hyperbolic with det 1
    shear = model3_bump_matrix(EnergyFrame.from_lambda(1.0))
    assert shear.m == Mat2(1.0, 1.0, 0.0, 1.0)

    frame = EnergyFrame.from_lambda(0.5)
    hyp = model3_bump_matrix(frame)
    _assert_matches(hyp, _mp_piece(1.0, 1.0, 0.5, frame.k_norm))
    assert det_defect(1.0, 1.0, frame) <= 1e-12
    with pytest.raises(ValueError):
        model3_bump_matrix(EnergyFrame.from_lambda(-1.0))


def test_piece_validation():
    frame = EnergyFrame.from_lambda(1.0)
    with pytest.raises(ValueError):
        transfer_matrix(math.nan, 1.0, frame)
    with pytest.raises(ValueError):
        transfer_matrix(1.0, 0.0, frame)
    with pytest.raises(ValueError):
        transfer_matrix(1.0, -2.0, frame)
    with pytest.raises(ValueError):
        transfer_matrix(1.0, math.inf, frame)


# ── Gap rotations ────────────────────────────────────────────────────────────


def test_gap_is_free_transfer():
    frame = EnergyFrame.from_lambda(3.0)
    g = gap_matrix(1.7, frame)
    t = transfer_matrix(0.0, 1.7, frame)
    for ge, te in zip(g.m, t.m):
        assert ge == pytest.approx(te, abs=1e-14)
    assert g.log_scale == 0.0


def test_gap_composition():
    frame = EnergyFrame.from_lambda(2.0)
    for y1, y2 in [(0.3, 1.1), (5.0, 0.02), (12.7, 9.9)]:
        combined = gap_matrix(y1 + y2, frame)
        product = accumulate(gap_matrix(y1, frame), gap_matrix(y2, frame))
        scale = math.exp(product.log_scale)
        for pe, ce in zip(product.m, combined.m):
            assert scale * pe == pytest.approx(ce, abs=1e-12)


def test_gap_rejects_bad_input():
    with pytest.raises(ValueError):
        gap_matrix(1.0, EnergyFrame.from_lambda(-1.0))
    with pytest.raises(ValueError):
        gap_matrix(1.0, EnergyFrame.from_lambda(0.0))
    with pytest.raises(ValueError):
        gap_matrix(0.0, EnergyFrame.from_lambda(1.0))


def test_long_rotation_chain_stays_orthogonal():
    # 1e5 renormalized rotation products: drift must stay at rounding level
    rng = np.random.default_rng(10)
    frame = EnergyFrame.from_lambda(2.0)
    gaps = rng.random(100_000) * 3.0 + 1e-3
    acc = identity_mat()
    for y in gaps:
        acc = accumulate(acc, gap_matrix(float(y), frame))
    total = acc.log_scale + math.log(math.sqrt(acc.m.a ** 2 + acc.m.b ** 2 + acc.m.c ** 2 + acc.m.d ** 2))
    assert abs(total - 0.5 * math.log(2.0)) <= 1e-9  # norm of a rotation is sqrt(2)
    assert abs(stored_det(acc) * math.exp(2.0 * acc.log_scale) - 1.0) <= 1e-9
    assert abs(acc.m.a - acc.m.d) <= 1e-9
    assert abs(acc.m.b + acc.m.c) <= 1e-9


# ── Oracle comparisons across regimes ────────────────────────────────────────


def test_series_window_matches_oracle():
    # u within the series window, reached through different (value, length) routes
    mp.mp.dps = 80
    cases = [
        (2.0 - 1e-9, 1.0, 2.0),
        (2.0 + 1e-9, 1.0, 2.0),
        (2.0 - 2.5e-13, 1.0, 2.0),
        (2.0 + 2.5e-13, 1.0, 2.0),
        (5.0, 1e-3, 5.0 + 1e-3),  # u = 1e-9 via a short piece
        (5.0, 1e-3, 5.0 - 1e-3),
    ]
    for value, length, lam in cases:
        frame = EnergyFrame.from_lambda(lam)
        u = (lam - value) * length * length
        assert abs(u) < U_SERIES_WINDOW
        sm = transfer_matrix(value, length, frame)
        _assert_matches(sm, _mp_piece(value, length, lam, frame.k_norm), dir_abs=1e-14)


def test_factored_form_matches_oracle():
    # a = sqrt(-u) beyond the cosh overflow threshold, including a > 700
    mp.mp.dps = 120
    frame = EnergyFrame.from_lambda(1.0)
    for a in (305.0, 500.0, 1000.0, 3000.0):
        value = 1.0 + a * a
        assert math.sqrt((value - 1.0)) > A_FACTORED
        sm = transfer_matrix(value, 1.0, frame)
        _assert_matches(sm, _mp_piece(value, 1.0, 1.0, frame.k_norm), log_rel=1e-13)
        assert det_defect(value, 1.0, frame) <= 1e-12


def test_moderate_pieces_match_oracle():
    mp.mp.dps = 80
    rng = np.random.default_rng(77)
    for _ in range(60):
        lam = float(rng.uniform(-10.0, 30.0))
        if lam == 0.0:
            lam = 0.5
        value = float(rng.uniform(-20.0, 40.0))
        length = float(rng.uniform(0.05, 3.0))
        frame = EnergyFrame.from_lambda(lam)
        if abs((lam - value) * length * length) < 10 * U_SERIES_WINDOW:
            continue
        sm = transfer_matrix(value, length, frame)
        _assert_matches(sm, _mp_piece(value, length, lam, frame.k_norm), dir_abs=5e-12)


def test_random_chain_matches_oracle():
    # 30-piece products with mixed regimes, against an exact mpmath product
    mp.mp.dps = 120
    rng = np.random.default_rng(5150)
    frame = EnergyFrame.from_lambda(2.0)
    for _ in range(5):
        pieces = []
        for _ in range(30):
            if rng.random() < 0.3:
                value = float(rng.uniform(50.0, 5000.0))  # hyperbolic
            else:
                value = float(rng.uniform(-3.0, 1.9))  # oscillatory
            pieces.append((value, float(rng.uniform(0.1, 1.5))))
        acc = identity_mat()
        oracle = mp.matrix([[1, 0], [0, 1]])
        for value, length in pieces:
            acc = accumulate(acc, transfer_matrix(value, length, frame))
            oracle = _mp_piece(value, length, 2.0, frame.k_norm) * oracle
        _assert_matches(acc, oracle, log_rel=1e-11, dir_abs=1e-10)


# ── Determinant exactness ────────────────────────────────────────────────────


def test_det_defect_sweep():
    rng = np.random.default_rng(909)
    frames = [EnergyFrame.from_lambda(l) for l in (-5.0, 0.3, 2.0, 25.0)]
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


def test_stored_det_weak_disorder_chain():
    # stored det is reliable only while the product norm is moderate, so pin
    # it on a weak-disorder chain whose log scale stays near zero
    rng = np.random.default_rng(31)
    frame = EnergyFrame.from_lambda(2.0)
    acc = identity_mat()
    for _ in range(200):
        acc = accumulate(acc, transfer_matrix(float(rng.uniform(-0.5, 0.5)), 1.0, frame))
    assert acc.log_scale < 12.0
    assert stored_det(acc) * math.exp(2.0 * acc.log_scale) == pytest.approx(1.0, abs=1e-10)


# ── saturation ──────────────────────────────────────────────────────────────


def test_accumulate_saturates_on_log_ceiling():
    big = ScaledMat(m=Mat2(1.0, 0.0, 0.0, 1.0), log_scale=9e299)
    with pytest.raises(SaturationError):
        accumulate(big, big)


# ── Batch folds versus scalar path ───────────────────────────────────────────


def test_batch_matches_scalar_products():
    rng = np.random.default_rng(2718)
    n_chains, n_pieces = 64, 40
    frame = EnergyFrame.from_lambda(2.0)

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
    for j in range(n_chains):
        acc = identity_mat()
        for p in range(n_pieces):
            acc = accumulate(acc, gap_matrix(float(gaps[p, j]), frame))
            acc = accumulate(acc, transfer_matrix(float(values[p, j]), float(lengths[p, j]), frame))
        assert got_logs[j] == pytest.approx(log_norm(acc), rel=1e-10, abs=1e-10)
        # compare unit-Frobenius directions
        fro_b = math.sqrt(bp.a[j] ** 2 + bp.b[j] ** 2 + bp.c[j] ** 2 + bp.d[j] ** 2)
        fro_s = math.sqrt(acc.m.a ** 2 + acc.m.b ** 2 + acc.m.c ** 2 + acc.m.d ** 2)
        batch_dir = np.array([bp.a[j], bp.b[j], bp.c[j], bp.d[j]]) / fro_b
        scalar_dir = np.array([acc.m.a, acc.m.b, acc.m.c, acc.m.d]) / fro_s
        assert np.allclose(batch_dir, scalar_dir, atol=1e-10)


def test_batch_scalar_broadcast():
    # scalar value/length (the unit-bump chains) must broadcast across chains
    frame = EnergyFrame.from_lambda(2.0)
    bp = BatchProducts(3)
    push_piece(bp, 1.0, 1.0, frame)
    single = transfer_matrix(1.0, 1.0, frame)
    want = log_norm(single)
    assert np.allclose(bp.log_norms(), want, atol=1e-14)


def test_push_rotation_requires_positive_lambda():
    bp = BatchProducts(2)
    with pytest.raises(ValueError):
        push_rotation(bp, np.array([1.0, 1.0]), EnergyFrame.from_lambda(-2.0))
