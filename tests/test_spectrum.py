"""Box spectra via phase winding: free-box exactness, counting, decay fits."""
import io
import math

import numpy as np
import pytest

from heavykp.potentials import Model, ModelConfig, generate, realization_from_csv
from heavykp.prufer import PruferState, advance_interval, boundary_theta
from heavykp.rng import RngStream, split_stream
from heavykp.spectrum import (
    BoxProblem,
    boundary_phase,
    count_below,
    decay_fit,
    find_eigenvalues,
    phase_trace,
)
from heavykp.stats import linear_fit
from heavykp.transfer import EnergyFrame

_PI = math.pi


def _free_realization(lengths):
    """Zero-potential chain assembled from gap pieces only."""
    cfg = ModelConfig(model=Model.III, energy=1.0, alpha2=0.5)
    rows = ["index,kind,value,length"]
    rows += [f"{i},gap,0.0,{l!r}" for i, l in enumerate(lengths)]
    return realization_from_csv(cfg, io.StringIO("\n".join(rows) + "\n"))


def _csv_realization(rows):
    cfg = ModelConfig(model=Model.III, energy=1.0, alpha2=0.5)
    text = "index,kind,value,length\n" + "".join(rows)
    return realization_from_csv(cfg, io.StringIO(text))


# ── Free box ─────────────────────────────────────────────────────────────────


def test_free_box_eigenvalues_exact():
    # Dirichlet box of length 2 built from three gap pieces: (m pi / 2)^2
    free = _free_realization([0.7, 0.8, 0.5])
    prob = BoxProblem(realization=free, theta0=0.0, L_box=2.0)
    eigs = find_eigenvalues(prob, 1.0, 990.0)
    assert len(eigs) == 20
    for m, lam in enumerate(eigs, start=1):
        want = (m * _PI / 2.0) ** 2
        assert lam == pytest.approx(want, rel=1e-10)
        # at a free eigenvalue the boundary phase is an exact multiple of pi
        assert boundary_phase(prob, lam) / _PI == pytest.approx(m, abs=1e-8)


def test_free_box_counting():
    free = _free_realization([2.0])
    prob = BoxProblem(realization=free, theta0=0.0, L_box=2.0)
    # eigenvalues (m pi/2)^2 = 2.467, 9.87, 22.2, ...
    assert count_below(prob, 1.0) == 0
    assert count_below(prob, 3.0) == 1
    assert count_below(prob, 10.0) == 2
    assert count_below(prob, 100.0) == math.floor(math.sqrt(100.0) * 2.0 / _PI)


def test_free_decay_fit_is_flat():
    # reversed sweep through gaps keeps log r at zero: slope 0, perfect fit
    free = _free_realization([0.2] * 60)
    prob = BoxProblem(realization=free, theta0=0.0, L_box=12.0)
    slope, r2 = decay_fit(prob, (5 * _PI / 12.0) ** 2)
    assert slope == 0.0
    assert r2 == 1.0


# ── Single bump cross-check ──────────────────────────────────────────────────


def test_single_bump_against_grid_scan():
    # V = 1 on [0,1] plus a free tail on [1,2]: locate eigenvalues two ways
    real = _csv_realization(["0,bump,1.0,1.0\n", "1,gap,0.0,1.0\n"])
    prob = BoxProblem(realization=real, theta0=0.0, L_box=2.0)
    eigs = find_eigenvalues(prob, 0.5, 30.0)
    assert eigs

    # brute force: crossings of m pi on a dense lambda grid
    grid = np.linspace(0.5, 30.0, 20_001)
    phases = np.array([boundary_phase(prob, float(l)) for l in grid])
    assert np.all(np.diff(phases) > 0.0)  # strict monotonicity in lambda
    crossings = []
    m_lo = math.floor(phases[0] / _PI)
    for j in range(len(grid) - 1):
        while phases[j + 1] >= (m_lo + 1) * _PI:
            m_lo += 1
            # linear interpolation within one grid cell
            t = ((m_lo) * _PI - phases[j]) / (phases[j + 1] - phases[j])
            crossings.append(float(grid[j] + t * (grid[j + 1] - grid[j])))
    assert len(crossings) == len(eigs)
    for a, b in zip(eigs, crossings):
        assert a == pytest.approx(b, abs=2e-3)


def test_count_jumps_by_one_at_eigenvalue():
    real = _csv_realization(["0,bump,1.0,1.0\n", "1,gap,0.0,1.0\n"])
    prob = BoxProblem(realization=real, theta0=0.0, L_box=2.0)
    for lam in find_eigenvalues(prob, 0.5, 30.0):
        delta = 1e-6 * max(1.0, abs(lam))
        assert count_below(prob, lam + delta) == count_below(prob, lam - delta) + 1


def test_below_spectrum_bottom_counts_zero():
    cfg = ModelConfig(model=Model.I, energy=1.0, alpha1=0.5)
    r = generate(cfg, 30, RngStream(17))
    prob = BoxProblem(realization=r, theta0=0.0, L_box=r.total_length)
    # model I potentials are nonnegative: nothing below lambda = 0
    assert count_below(prob, 0.0) == 0
    assert count_below(prob, -5.0) == 0
    assert boundary_phase(prob, 0.0) < _PI


# ── Chain walk versus the scalar flow ────────────────────────────────────────
#
# The spectrum module walks the truncated chain at one energy in bulk.  The
# oracle is the scalar closed-form flow, one advance_interval call per
# truncated piece.
#
# Tolerances.  theta: 1e-12 relative (1e-15 absolute near 0).  log r: 1e-11
# relative to max(1, |log r|): the oracle carries the unwound phase as one
# float, whose absolute error grows with |theta|, and every later piece turns
# that error into a log-gain error, while the walk carries the unit vector
# itself.  decay_fit: 1e-11 relative on the slope and absolute on r-squared,
# the same log r error passed through a least-squares fit.  x positions:
# exact (both sum the piece lengths left to right).  Measured worst cases on
# these chains: theta 7.5e-15, log r 6.3e-13, slope 8.1e-13, r-squared 7.4e-14.

_THETA_REL = 1e-12
_THETA_ABS = 1e-15
_LOG_R_REL = 1e-11
_FIT_TOL = 1e-11


def _oracle_pieces(problem: BoxProblem):
    """(value, length) of the pieces covering exactly [0, L_box]."""
    out = []
    left = 0.0
    for p in problem.realization.pieces:
        if left >= problem.L_box:
            break
        length = min(p.length, problem.L_box - left)
        if length > 0.0:
            out.append((p.value, length))
        left += length
    return out


def _oracle_records(pieces, frame, theta):
    state = PruferState(theta=theta, log_r=0.0, x=0.0)
    records = [(0.0, theta, 0.0)]
    for value, length in pieces:
        state = advance_interval(state, value, length, frame)
        records.append((state.x, state.theta, state.log_r))
    return records


def _oracle_trace(problem: BoxProblem, lam: float):
    frame = EnergyFrame.from_lambda(lam)
    return _oracle_records(_oracle_pieces(problem), frame,
                           boundary_theta(problem.theta0, frame))


def _oracle_decay(problem: BoxProblem, lam: float, scale_exponent: float):
    records = _oracle_records(reversed(_oracle_pieces(problem)),
                              EnergyFrame.from_lambda(lam), 0.0)[1:]
    xs, logs = [], []
    for x_swept, _, log_r in records:
        x = problem.L_box - x_swept
        if 0.25 * problem.L_box <= x <= 0.75 * problem.L_box:
            xs.append(x)
            logs.append(log_r)
    if len(xs) < 10:
        return None  # too few boundaries in the middle half for a fit
    fit = linear_fit([x ** scale_exponent for x in xs], logs)
    return fit.slope, fit.r_squared


def _assert_trace_matches_oracle(problem: BoxProblem, lam: float) -> None:
    want = _oracle_trace(problem, lam)
    got = phase_trace(problem, lam)
    assert len(got) == len(want)
    for rec, (x, theta, log_r) in zip(got, want):
        assert rec.x == x
        assert rec.theta == pytest.approx(theta, rel=_THETA_REL, abs=_THETA_ABS)
        assert abs(rec.log_r - log_r) <= _LOG_R_REL * max(1.0, abs(log_r))
    assert boundary_phase(problem, lam) == got[-1].theta
    assert boundary_phase(problem, lam) == pytest.approx(
        want[-1][1], rel=_THETA_REL, abs=_THETA_ABS)


_WALK_MODELS = [
    (Model.I, {"alpha1": 0.8}),
    (Model.II, {"alpha1": 0.8}),
    (Model.III, {"alpha2": 0.8}),
    (Model.IV, {"alpha1": 0.8, "alpha2": 0.8}),
]


@pytest.mark.parametrize("model,kw", _WALK_MODELS)
@pytest.mark.parametrize("lam", [-0.7, 0.0, 2.0])
@pytest.mark.parametrize("theta0", [0.0, 1.1, 3.0])
def test_walk_matches_scalar_flow(model, kw, lam, theta0):
    cfg = ModelConfig(model=model, energy=1.0, **kw)
    parent = RngStream(4041)
    for i in range(3):
        r = generate(cfg, 30, split_stream(parent, i))
        prob = BoxProblem(realization=r, theta0=theta0, L_box=r.total_length)
        _assert_trace_matches_oracle(prob, lam)
        # a box that cuts the last piece short
        cut = BoxProblem(realization=r, theta0=theta0, L_box=0.9 * r.total_length)
        _assert_trace_matches_oracle(cut, lam)
        want = _oracle_decay(prob, lam, 1.5)
        if want is None:
            with pytest.raises(ValueError, match="middle half"):
                decay_fit(prob, lam, 1.5)
            continue
        want_slope, want_r2 = want
        slope, r2 = decay_fit(prob, lam, 1.5)
        assert slope == pytest.approx(want_slope, rel=_FIT_TOL, abs=_FIT_TOL)
        assert r2 == pytest.approx(want_r2, abs=_FIT_TOL)


def test_walk_degenerate_piece():
    # lam equal to a piece's value gives u == 0: the parabolic shear, whose
    # increment lies in [0, pi).  From theta0 = 3.0 the long first piece turns
    # the phase by more than pi/2, past the middle of that range.
    real = _csv_realization(["0,bump,2.0,6.0\n", "1,gap,0.0,0.7\n",
                             "2,bump,2.0,0.4\n", "3,bump,-1.0,1.0\n"])
    for theta0 in (0.0, 1.1, 3.0):
        prob = BoxProblem(realization=real, theta0=theta0, L_box=real.total_length)
        _assert_trace_matches_oracle(prob, 2.0)
    prob = BoxProblem(realization=real, theta0=3.0, L_box=real.total_length)
    trace = phase_trace(prob, 2.0)
    assert trace[1].theta - trace[0].theta > 0.5 * _PI
    # lam = 0 on a gap (k = 1 frame) is degenerate too
    prob = BoxProblem(realization=real, theta0=1.1, L_box=real.total_length)
    _assert_trace_matches_oracle(prob, 0.0)


def test_walk_dead_direction():
    # A bump with a = sqrt(V - lam) * l > 372 has exp(-2a) underflowed, so its
    # matrix is rank one in floats.  At lam = 1 and theta0 = 2.35 the boundary
    # vector lies exactly on this bump's contracting direction: the value was
    # found by scanning V ulp by ulp until both the scalar flow's and the
    # walk's products of that vector vanish.
    real = _csv_realization(["0,bump,1.975525874775178,400.0\n",
                             "1,gap,0.0,0.5\n", "2,bump,3.0,1.0\n"])
    prob = BoxProblem(realization=real, theta0=2.35, L_box=real.total_length)
    frame = EnergyFrame.from_lambda(1.0)
    t = boundary_theta(2.35, frame)
    bok = math.sqrt((1.975525874775178 - 1.0) * 400.0 * 400.0) / 400.0
    assert math.sin(t) + math.cos(t) / bok == 0.0
    assert bok * math.sin(t) + math.cos(t) == 0.0
    _assert_trace_matches_oracle(prob, 1.0)
    # the dead branch contracts: log r falls by about a ~ 395 on the bump
    assert phase_trace(prob, 1.0)[1].log_r < -390.0


# ── Winding count versus dense sign changes ──────────────────────────────────


def _dense_zero_count(problem: BoxProblem, lam: float) -> int:
    """Sign changes of psi on (0, L_box], sampled piecewise in closed form.

    Works from the piece-boundary phases only; the within-piece winding logic
    under test plays no role here.  Hyperbolic pieces use the tanh form, so
    arbitrarily heavy bumps cannot overflow.
    """
    frame = EnergyFrame.from_lambda(lam)
    k = frame.k_norm
    trace = phase_trace(problem, lam)
    signs: list = []
    psi0 = math.sin(trace[0].theta)
    if psi0 != 0.0:
        signs.append(math.copysign(1.0, psi0))
    for rec, (value, length) in zip(trace, _oracle_pieces(problem)):
        s0 = math.sin(rec.theta)
        c0 = math.cos(rec.theta)
        if lam > value:
            b = math.sqrt(lam - value)
            t = np.linspace(0.0, length, max(64, int(10.0 * b * length / _PI)) + 1)[1:]
            vals = s0 * np.cos(b * t) + (k / b) * c0 * np.sin(b * t)
        elif lam < value:
            b = math.sqrt(value - lam)
            t = np.linspace(0.0, length, 65)[1:]
            # sign(psi) = sign(s0 + (k/b) c0 tanh(b t)); cosh factor is positive
            vals = s0 + (k / b) * c0 * np.tanh(b * t)
        else:
            t = np.linspace(0.0, length, 65)[1:]
            vals = s0 + k * c0 * t
        signs.extend(np.sign(vals)[np.sign(vals) != 0.0])
    arr = np.array(signs)
    return int(np.sum(arr[:-1] * arr[1:] < 0.0))


@pytest.mark.parametrize("model,kw,theta0", [
    (Model.I, {"alpha1": 0.8}, 0.0),
    (Model.III, {"alpha2": 0.8}, 0.0),
    (Model.I, {"alpha1": 0.8}, 0.3),
    # wells and signed bumps, below and above the gap potential
    *[(Model.II, {"alpha1": 0.8, "energy": lam}, 1.1) for lam in (-0.7, 0.3, 2.0)],
    *[(Model.IV, {"alpha1": 0.8, "alpha2": 0.8, "energy": lam}, 1.1)
      for lam in (-0.7, 0.3, 2.0)],
])
def test_winding_count_matches_dense_signs(model, kw, theta0):
    # kw may override the energy the winding is counted at (default 2)
    cfg = ModelConfig(model=model, **{"energy": 2.0, **kw})
    parent = RngStream(2024)
    for i in range(10):
        r = generate(cfg, 8, split_stream(parent, i))
        prob = BoxProblem(realization=r, theta0=theta0, L_box=r.total_length)
        assert count_below(prob, cfg.energy) == _dense_zero_count(prob, cfg.energy)


def test_count_monotone_in_box_size():
    cfg = ModelConfig(model=Model.I, energy=1.0, alpha1=0.5)
    r = generate(cfg, 40, RngStream(23))
    small = BoxProblem(realization=r, theta0=0.0, L_box=30.0)
    large = BoxProblem(realization=r, theta0=0.0, L_box=39.0)
    for lam in (0.5, 2.0, 5.0, 11.0):
        assert count_below(small, lam) <= count_below(large, lam)


# ── Localized states ─────────────────────────────────────────────────────────


def test_model2_ground_states_decay():
    # deep wells: ground state of the box is exponentially localized, so the
    # reversed sweep gives a steeply negative slope with near-perfect fit
    cfg = ModelConfig(model=Model.II, energy=1.0, alpha1=0.5)
    parent = RngStream(611)
    for i in range(10):
        r = generate(cfg, 60, split_stream(parent, i))
        prob = BoxProblem(realization=r, theta0=0.0, L_box=r.total_length)
        lam_min = min(p.value for p in r.pieces) - 1.0
        eigs = find_eigenvalues(prob, lam_min, 0.0, max_count=1)
        assert len(eigs) == 1
        slope, r2 = decay_fit(prob, eigs[0])
        assert slope < -10.0
        assert r2 > 0.99


def test_max_count_truncates_from_below():
    free = _free_realization([2.0])
    prob = BoxProblem(realization=free, theta0=0.0, L_box=2.0)
    full = find_eigenvalues(prob, 1.0, 990.0)
    first = find_eigenvalues(prob, 1.0, 990.0, max_count=3)
    assert first == full[:3]


def test_find_eigenvalues_empty_window():
    free = _free_realization([2.0])
    prob = BoxProblem(realization=free, theta0=0.0, L_box=2.0)
    assert find_eigenvalues(prob, 3.0, 9.0) == []


def test_tolerance_consistency():
    free = _free_realization([2.0])
    prob = BoxProblem(realization=free, theta0=0.0, L_box=2.0)
    rough = find_eigenvalues(prob, 1.0, 30.0, tol=1e-6)
    fine = find_eigenvalues(prob, 1.0, 30.0, tol=1e-12)
    assert len(rough) == len(fine)
    for a, b in zip(rough, fine):
        assert a == pytest.approx(b, abs=1e-5 * max(1.0, abs(b)))


# ── Traces ───────────────────────────────────────────────────────────────────


def test_phase_trace_structure():
    cfg = ModelConfig(model=Model.III, energy=2.0, alpha2=0.5)
    r = generate(cfg, 15, RngStream(9))
    prob = BoxProblem(realization=r, theta0=0.2, L_box=r.total_length)
    trace = phase_trace(prob, 2.0)
    assert len(trace) == len(r.pieces) + 1
    assert trace[0].x == 0.0
    assert trace[-1].x == pytest.approx(r.total_length)
    xs = [rec.x for rec in trace]
    assert all(b > a for a, b in zip(xs, xs[1:]))
    # all pieces oscillatory at lam = 2: theta increases along the chain
    thetas = [rec.theta for rec in trace]
    assert all(b > a for a, b in zip(thetas, thetas[1:]))


def test_decay_fit_needs_interior_boundaries():
    free = _free_realization([2.0])
    prob = BoxProblem(realization=free, theta0=0.0, L_box=2.0)
    with pytest.raises(ValueError, match="middle half"):
        decay_fit(prob, 2.0)


# ── Validation ───────────────────────────────────────────────────────────────


def test_box_problem_validation():
    free = _free_realization([2.0])
    with pytest.raises(ValueError, match="theta0"):
        BoxProblem(realization=free, theta0=-0.1, L_box=1.0)
    with pytest.raises(ValueError, match="theta0"):
        BoxProblem(realization=free, theta0=_PI, L_box=1.0)
    with pytest.raises(ValueError, match="L_box"):
        BoxProblem(realization=free, theta0=0.0, L_box=0.0)
    with pytest.raises(ValueError, match="exceeds"):
        BoxProblem(realization=free, theta0=0.0, L_box=2.5)
    # tolerance slack: L_box equal to the chain length within rounding is fine
    BoxProblem(realization=free, theta0=0.0, L_box=2.0 * (1.0 + 5e-13))


def test_find_eigenvalues_validation():
    free = _free_realization([2.0])
    prob = BoxProblem(realization=free, theta0=0.0, L_box=2.0)
    with pytest.raises(ValueError):
        find_eigenvalues(prob, 5.0, 5.0)
    with pytest.raises(ValueError):
        find_eigenvalues(prob, 1.0, 5.0, tol=0.0)
    with pytest.raises(ValueError):
        decay_fit(prob, 2.0, scale_exponent=0.0)
