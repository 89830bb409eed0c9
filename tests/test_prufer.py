"""Phase flow: closed-form piece maps against ODE, matrix, and counting oracles.

Three independent pins: a 4th-order integrator of the phase/radius ODEs, the
high-precision transfer matrix applied in mpmath, and a closed-form zero
count for oscillatory pieces that must equal the pi-winding bookkeeping.
"""
import math

import mpmath as mp
import numpy as np
import pytest

from heavykp.estimators import _tangent_phase
from heavykp.prufer import (
    PruferState,
    advance_interval,
    boundary_theta,
    phase_fold,
)
from heavykp.transfer import EnergyFrame

_PI = math.pi


def _advance(theta0: float, value: float, length: float, lam: float):
    st = advance_interval(PruferState(theta=theta0, log_r=0.0, x=0.0), value, length,
                          EnergyFrame(lam))
    return st.theta, st.log_r


# ── Boundary condition ───────────────────────────────────────────────────────


def test_boundary_theta_rescales_tangent():
    frame = EnergyFrame(4.0)  # k = 2
    for theta0 in (0.1, 0.7, 1.3, 2.0, 2.9):
        t = boundary_theta(theta0, frame)
        assert math.tan(t) == pytest.approx(2.0 * math.tan(theta0), rel=1e-12)
        assert 0.0 <= t < _PI


def test_boundary_theta_fixed_points():
    frame = EnergyFrame(4.0)
    assert boundary_theta(0.0, frame) == 0.0
    assert boundary_theta(_PI / 2, frame) == pytest.approx(_PI / 2, abs=1e-15)
    # k = 1 frame leaves the parameter unchanged
    unit = EnergyFrame(1.0)
    assert boundary_theta(0.7, unit) == pytest.approx(0.7, abs=1e-15)


def test_boundary_theta_range_checked():
    frame = EnergyFrame(1.0)
    with pytest.raises(ValueError):
        boundary_theta(-0.1, frame)
    with pytest.raises(ValueError):
        boundary_theta(_PI, frame)


# ── Structural properties of the piece map ───────────────────────────────────


def test_gap_advance_is_exact_rotation():
    frame = EnergyFrame(9.0)  # k = 3
    st = PruferState(theta=1.234, log_r=0.5, x=2.0)
    out = advance_interval(st, 0.0, 1.75, frame)
    assert out.theta == 1.234 + 3.0 * 1.75  # bit-exact fast path
    assert out.log_r == 0.5
    assert out.x == 3.75


def test_free_phase_velocity():
    # zero potential at lam = k^2: theta/(pi x) = k/pi identically
    frame = EnergyFrame(4.0)
    st = advance_interval(PruferState(0.0, 0.0, 0.0), 0.0, 12.5, frame)
    assert st.theta / (_PI * st.x) == pytest.approx(2.0 / _PI, rel=1e-15)


@pytest.mark.parametrize(
    "value,length,lam",
    [(-3.0, 1.0, 2.0), (11.0, 1.0, 2.0), (2.0, 1.0, 2.0), (925.0, 1.0, 25.0), (0.4, 0.3, 0.9)],
)
def test_pi_shift_equivariance(value, length, lam):
    # the flow commutes with theta -> theta + pi
    for theta0 in (0.2, 1.1, 2.7):
        t1, r1 = _advance(theta0, value, length, lam)
        t2, r2 = _advance(theta0 + _PI, value, length, lam)
        assert t2 - t1 == pytest.approx(_PI, abs=1e-10)
        assert r2 == pytest.approx(r1, abs=1e-10)


@pytest.mark.parametrize(
    "value,length,lam",
    [(-3.0, 1.0, 2.0), (11.0, 1.0, 2.0), (2.0, 1.0, 2.0), (925.0, 1.0, 25.0)],
)
def test_order_preservation(value, length, lam):
    rng = np.random.default_rng(17)
    for _ in range(50):
        ta = float(rng.uniform(0.0, _PI))
        tb = ta + float(rng.uniform(1e-6, _PI - 1e-6))
        a1, _ = _advance(ta, value, length, lam)
        b1, _ = _advance(tb, value, length, lam)
        # monotone up to one ulp and trapped within one half-turn: strong
        # contraction (a = 30) collapses separations of e^-60 below float
        # resolution, where rounding may invert the pair by a single ulp
        assert b1 >= a1 - 1e-12
        assert b1 - a1 < _PI + 1e-9


def test_hyperbolic_gain_example():
    # a = sqrt(900) = 30; the radius gain sits just under a + log cosh-ish slack
    theta, log_r = _advance(0.7, 925.0, 1.0, 25.0)
    assert log_r == pytest.approx(30.853141206670117, rel=1e-12)
    assert abs(log_r - 30.0) < 2.0
    assert theta == pytest.approx(0.1651486774146268, abs=1e-12)
    # phase increment trapped in (-pi, pi)
    assert abs(theta - 0.7) < _PI


def test_hyperbolic_tiny_a_matches_shear_limit():
    # expm1 arrangement: a -> 0 must join the parabolic branch continuously
    lam, length = 2.0, 1.0
    t_shear, r_shear = _advance(0.9, 2.0, length, lam)
    t_hyp, r_hyp = _advance(0.9, 2.0 + 1e-9, length, lam)
    assert t_hyp == pytest.approx(t_shear, abs=1e-9)
    assert r_hyp == pytest.approx(r_shear, abs=1e-9)


def test_contracting_direction_dead_branch():
    # start exactly on the contracting eigendirection with exp(-2a) underflowed.
    # At lam = 4, V = 5, l = 400 the slope ratio is a power of two (bok = 1/2),
    # and this theta satisfies sin(theta) == -2 cos(theta) bit-exactly, so both
    # frame components cancel to zero and only the decaying mode survives.
    theta0 = 2.0344439357957027  # pi - atan(2), exact contracting direction
    assert math.sin(theta0) == -2.0 * math.cos(theta0)
    theta, log_r = _advance(theta0, 5.0, 400.0, 4.0)
    assert log_r == -400.0
    assert theta == theta0


# ── ODE oracle ───────────────────────────────────────────────────────────────


def _rk4_flow(theta0, value, length, lam, k, n_steps=8192):
    """4th-order integration of theta' and (log r)'; wholly independent path."""
    h = length / n_steps

    def dth(t):
        c = math.cos(t)
        s = math.sin(t)
        return k * c * c + ((lam - value) / k) * s * s

    def dlr(t):
        return (k - (lam - value) / k) * math.sin(t) * math.cos(t)

    theta, logr = theta0, 0.0
    for _ in range(n_steps):
        k1, r1 = dth(theta), dlr(theta)
        k2, r2 = dth(theta + 0.5 * h * k1), dlr(theta + 0.5 * h * k1)
        k3, r3 = dth(theta + 0.5 * h * k2), dlr(theta + 0.5 * h * k2)
        k4, r4 = dth(theta + h * k3), dlr(theta + h * k3)
        theta += h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        logr += h * (r1 + 2 * r2 + 2 * r3 + r4) / 6.0
    return theta, logr


@pytest.mark.parametrize(
    "value,length,lam",
    [
        (-3.0, 1.0, 2.0),    # oscillatory
        (-398.0, 1.0, 2.0),  # oscillatory, 20 radians of conjugated rotation
        (11.0, 1.0, 2.0),    # hyperbolic, a = 3
        (2.0, 1.0, 2.0),     # parabolic shear
        (0.0, 2.5, 4.0),     # gap fast path
        (26.0, 0.7, 25.0),   # weak hyperbolic at k = 5
    ],
)
def test_flow_matches_ode_integration(value, length, lam):
    k = math.sqrt(abs(lam))
    for theta0 in (0.0, 0.3, 2.8):
        t_ode, r_ode = _rk4_flow(theta0, value, length, lam, k)
        t_cf, r_cf = _advance(theta0, value, length, lam)
        assert t_cf == pytest.approx(t_ode, abs=5e-8)
        assert r_cf == pytest.approx(r_ode, abs=2e-7)


# ── Matrix oracle (mpmath) ───────────────────────────────────────────────────


def _mp_frame_action(theta, value, length, lam, k):
    """Apply the exact piece propagator to (sin theta, cos theta) at 60 digits."""
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
    v0 = mp.sin(mp.mpf(theta))
    v1 = mp.cos(mp.mpf(theta))
    w0 = c * v0 + m01 * v1
    w1 = m10 * v0 + c * v1
    return mp.atan2(w0, w1), mp.log(mp.sqrt(w0 ** 2 + w1 ** 2))


def test_flow_matches_matrix_action():
    mp.mp.dps = 60
    rng = np.random.default_rng(404)
    lam = 2.0
    k = math.sqrt(lam)
    specs = [(-50.0, 30.0), (-3.0, 1.9), (2.1, 40.0), (1e4, 1e6), (2.0, 2.0)]
    for lo, hi in specs:
        for _ in range(8):
            theta0 = float(rng.uniform(0.1, _PI - 0.1))
            value = float(rng.uniform(lo, hi))
            length = float(rng.uniform(0.3, 1.5))
            t_new, r_new = _advance(theta0, value, length, lam)
            ang, gain = _mp_frame_action(theta0, value, length, lam, k)
            # agreement mod 2pi: direction of the frame vector is preserved
            diff = float(mp.fmod(mp.mpf(t_new) - ang, 2 * mp.pi))
            diff = min(abs(diff), abs(abs(diff) - 2 * math.pi))
            assert diff < 5e-13
            assert r_new == pytest.approx(float(gain), rel=1e-11, abs=1e-11)


# ── Winding oracle (zero counting) ───────────────────────────────────────────


def _zero_count(theta0, value, length, lam, k):
    """Number of zeros of psi on (0, length] for an oscillatory piece.

    psi(x) is proportional to sin(b x + delta); the count is read off the
    lattice crossings of b x + delta without any flow machinery.
    """
    b = math.sqrt(lam - value)
    delta = math.atan2(math.sin(theta0), (k / b) * math.cos(theta0))
    lo = delta / _PI
    hi = (delta + b * length) / _PI
    return math.floor(hi) - math.floor(lo)


def test_winding_count_matches_zero_count():
    rng = np.random.default_rng(1234)
    lam = 2.0
    k = math.sqrt(lam)
    for _ in range(300):
        theta0 = float(rng.uniform(0.01, _PI - 0.01))
        b = float(math.exp(rng.uniform(math.log(0.1), math.log(180.0))))
        value = lam - b * b
        length = float(rng.uniform(0.2, 1.2))
        t_new, _ = _advance(theta0, value, length, lam)
        assert math.floor(t_new / _PI) == _zero_count(theta0, value, length, lam, k)


# ── Validation ───────────────────────────────────────────────────────────────


def test_advance_interval_validation():
    with pytest.raises(ValueError):
        advance_interval(PruferState(0.0, 0.0, 0.0), 1.0, 0.0, EnergyFrame(1.0))


# ── Tangent-map oracles ──────────────────────────────────────────────────────
#
# At fixed energy the phase mod pi after a unit bump of height X is a map of
# the tangent t = tan(theta).  The paper writes it in closed form: F in the
# hyperbolic regime (X > lam), G in the oscillatory one (X < lam).  A pole
# of the quotient is the projective point, encoded as inf.


def _tan_update_F(t: float, y: float, frame: EnergyFrame) -> float:
    """F(t, y) = (t + (k/y) tanh y) / (t (y/k) tanh y + 1), y = sqrt(X - lam)."""
    k = frame.k_norm
    th = math.tanh(y)
    den = t * (y / k) * th + 1.0
    return math.inf if den == 0.0 else (t + (k / y) * th) / den


def _tan_update_G(t: float, y: float, frame: EnergyFrame) -> float:
    """G(t, y) = (t + (k/y) tan y) / (-t (y/k) tan y + 1), y = sqrt(lam - X)."""
    k = frame.k_norm
    ty = math.tan(y)
    den = 1.0 - t * (y / k) * ty
    return math.inf if den == 0.0 else (t + (k / y) * ty) / den


def _tangent_after_bump(t: float, x: float, frame: EnergyFrame) -> float:
    """tan of the phase mod pi after advance_interval across a unit bump of height x."""
    start = PruferState(theta=_tangent_phase(t), log_r=0.0, x=0.0)
    return math.tan(advance_interval(start, x, 1.0, frame).theta % _PI)


def test_from_tangent_quadrants():
    # the lift chain_mixing starts its phases from
    assert _tangent_phase(1.0) == pytest.approx(_PI / 4)
    theta = _tangent_phase(-1.0)
    assert theta == pytest.approx(3 * _PI / 4)
    assert math.tan(theta) == pytest.approx(-1.0, rel=1e-12)


def test_tangent_map_hyperbolic_matches_chain():
    frame = EnergyFrame(2.0)
    rng = np.random.default_rng(55)
    for _ in range(40):
        t = float(rng.uniform(-5.0, 5.0))
        x = float(rng.uniform(2.5, 50.0))  # X > lam: hyperbolic
        y = math.sqrt(x - 2.0)
        mapped = _tan_update_F(t, y, frame)
        if abs(mapped) > 1e3:
            continue  # too near the projective point for a tan comparison
        assert mapped == pytest.approx(_tangent_after_bump(t, x, frame), rel=1e-8, abs=1e-8)


def test_tangent_map_oscillatory_matches_chain():
    frame = EnergyFrame(2.0)
    rng = np.random.default_rng(56)
    for _ in range(40):
        t = float(rng.uniform(-5.0, 5.0))
        x = float(rng.uniform(0.05, 1.9))  # 0 < X < lam: oscillatory
        y = math.sqrt(2.0 - x)
        mapped = _tan_update_G(t, y, frame)
        if abs(mapped) > 1e3:
            continue
        assert mapped == pytest.approx(_tangent_after_bump(t, x, frame), rel=1e-8, abs=1e-8)


def test_tangent_map_full_period_identity():
    # y = pi: tan(y) vanishes to rounding, so G is the identity to ~1e-12
    frame = EnergyFrame(1.0 + _PI * _PI)
    for t in (-2.0, 0.0, 0.4, 10.0):
        assert _tan_update_G(t, _PI, frame) == pytest.approx(t, rel=1e-10, abs=1e-12)
        # the flow agrees: a bump of height 1 at lam = 1 + pi^2 turns the phase by pi
        assert _tangent_after_bump(t, 1.0, frame) == pytest.approx(t, rel=1e-10, abs=1e-12)


def test_tangent_map_pole_returns_inf():
    # y = 1/2 at k = 1: t = -1/(y tanh y) zeroes the denominator bit-exactly
    frame = EnergyFrame(1.0)
    y = 0.5
    t = -1.0 / (y * math.tanh(y))
    assert _tan_update_F(t, y, frame) == math.inf


# ── Vectorized fold versus scalar ────────────────────────────────────────────


def test_phase_fold_matches_scalar_all_branches():
    frame = EnergyFrame(2.0)
    rng = np.random.default_rng(31337)
    n = 256
    thetas = rng.uniform(-8.0, 8.0, size=n)
    values = rng.uniform(-5.0, 8.0, size=n)
    lengths = rng.uniform(0.2, 1.5, size=n)
    # force every branch to appear
    values[:40] = 0.0                      # gap
    values[40:80] = 2.0                    # u == 0 shear (value == lam)
    lengths[40:80] = 1.0
    values[80:120] = rng.uniform(1e5, 1e7, size=40)  # factored hyperbolic
    # dead branch: exact contracting direction with exp(-2a) underflowed
    # (bok = 1/2 at V = 2.5, and this theta has sin == -2 cos bit-exactly)
    thetas[120:124] = 2.0344439357957027
    values[120:124] = 2.5
    lengths[120:124] = 400.0

    logs = np.zeros(n)
    got_t = thetas.copy()
    phase_fold(got_t, values, lengths, frame, logs)

    # advance_interval is phase_fold on one lane, so every lane agrees bit for bit
    for j in range(n):
        t_ref, r_ref = _advance(float(thetas[j]), float(values[j]), float(lengths[j]), 2.0)
        assert got_t[j] == t_ref
        assert logs[j] == r_ref


def test_phase_fold_without_logs():
    frame = EnergyFrame(2.0)
    thetas = np.array([0.1, 0.2, 0.3])
    ref = thetas.copy()
    phase_fold(thetas, 1.0, 1.0, frame)
    for j in range(3):
        t_ref, _ = _advance(float(ref[j]), 1.0, 1.0, 2.0)
        assert thetas[j] == t_ref


def test_phase_fold_scalar_broadcast():
    frame = EnergyFrame(2.0)
    thetas = np.full(5, 0.7)
    logs = np.zeros(5)
    phase_fold(thetas, 3.0, 1.0, frame, logs)
    assert np.all(thetas == thetas[0])
    assert np.all(logs == logs[0])

