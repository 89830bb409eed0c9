"""Box spectra via phase winding: free-box exactness, counting, decay fits."""
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heavykp import spectrum
from heavykp.potentials import Model, ModelConfig, generate, realization_from_csv
from heavykp.prufer import PruferState, advance_interval, boundary_theta, walk_chain
from heavykp.rng import RngStream, split_stream
from heavykp.spectrum import (
    BoxProblem,
    EigenvalueSearchError,
    boundary_phase,
    count_below,
    decay_fit,
    find_eigenvalues,
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
    """(value, length) of the pieces covering exactly [0, L_box].

    Whole pieces up to the first whose right edge reaches L_box (the last
    piece if none does); that one is cut to L_box minus its left edge unless
    its right edge is L_box itself.
    """
    out = []
    left = 0.0
    real = problem.realization
    last = real.values.size - 1
    for i, (value, length) in enumerate(zip(real.values.tolist(), real.lengths.tolist())):
        right = left + length
        if right >= problem.L_box or i == last:
            out.append((value, length if right == problem.L_box else problem.L_box - left))
            return out
        out.append((value, length))
        left = right


def _oracle_records(pieces, frame, theta):
    state = PruferState(theta=theta, log_r=0.0, x=0.0)
    records = [(0.0, theta, 0.0)]
    for value, length in pieces:
        state = advance_interval(state, value, length, frame)
        records.append((state.x, state.theta, state.log_r))
    return records


def _oracle_trace(problem: BoxProblem, lam: float):
    frame = EnergyFrame(lam)
    return _oracle_records(_oracle_pieces(problem), frame,
                           boundary_theta(problem.theta0, frame))


def _oracle_decay(problem: BoxProblem, lam: float, scale_exponent: float):
    records = _oracle_records(reversed(_oracle_pieces(problem)),
                              EnergyFrame(lam), 0.0)[1:]
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


def _walk(problem: BoxProblem, lam: float):
    """(theta, log_r) at 0 and at every piece boundary of the box: its walk_chain."""
    frame = EnergyFrame(lam)
    return walk_chain(problem.values, problem.lengths, frame,
                      boundary_theta(problem.theta0, frame))


def _assert_trace_matches_oracle(problem: BoxProblem, lam: float) -> None:
    want = _oracle_trace(problem, lam)
    thetas, log_rs = _walk(problem, lam)
    xs = np.concatenate(([0.0], np.cumsum(problem.lengths)))
    assert thetas.size == log_rs.size == xs.size == len(want)
    for got_x, got_theta, got_log_r, (x, theta, log_r) in zip(
            xs.tolist(), thetas.tolist(), log_rs.tolist(), want):
        assert got_x == x
        assert got_theta == pytest.approx(theta, rel=_THETA_REL, abs=_THETA_ABS)
        assert abs(got_log_r - log_r) <= _LOG_R_REL * max(1.0, abs(log_r))
    assert boundary_phase(problem, lam) == thetas[-1]
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


@pytest.mark.parametrize("model,kw", [(Model.I, {"alpha1": 0.8}),
                                      (Model.III, {"alpha2": 0.6}),
                                      (Model.IV, {"alpha1": 0.8, "alpha2": 0.6})])
def test_box_cut_is_one_piece(model, kw):
    cfg = ModelConfig(model=model, energy=1.0, **kw)
    r = generate(cfg, 300, split_stream(RngStream(5), 13))
    edges = r.boundaries
    j = edges.size // 3
    inside = 0.5 * (edges[j - 1] + edges[j])
    beyond = r.total_length * (1.0 + 1e-12)
    # on model III, 0.37 L lands where left + (L_box - left) rounds below
    # L_box: a second piece of about one ulp used to follow the cut one
    at_37 = 0.37 * r.total_length
    n_37 = int(np.count_nonzero(edges < at_37))
    for L_box, n, last in ((inside, j, inside - edges[j - 1]),
                           (edges[j], j, r.lengths[j]),
                           (beyond, edges.size - 1, beyond - edges[-2]),
                           (at_37, n_37, at_37 - edges[n_37 - 1])):
        prob = BoxProblem(realization=r, theta0=0.0, L_box=L_box)
        assert prob.values.size == prob.lengths.size == n + 1
        assert np.array_equal(prob.values, r.values[:n + 1])
        assert np.array_equal(prob.lengths[:n], r.lengths[:n])
        assert prob.lengths[n] == last
        assert list(zip(prob.values.tolist(), prob.lengths.tolist())) == _oracle_pieces(prob)


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
    thetas, _ = _walk(prob, 2.0)
    assert thetas[1] - thetas[0] > 0.5 * _PI
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
    frame = EnergyFrame(1.0)
    t = boundary_theta(2.35, frame)
    bok = math.sqrt((1.975525874775178 - 1.0) * 400.0 * 400.0) / 400.0
    assert math.sin(t) + math.cos(t) / bok == 0.0
    assert bok * math.sin(t) + math.cos(t) == 0.0
    _assert_trace_matches_oracle(prob, 1.0)
    # the dead branch contracts: log r falls by about a ~ 395 on the bump
    _, log_rs = _walk(prob, 1.0)
    assert log_rs[1] < -390.0


# ── Winding count versus dense sign changes ──────────────────────────────────


def _dense_zero_count(problem: BoxProblem, lam: float) -> int:
    """Sign changes of psi on (0, L_box], sampled piecewise in closed form.

    Works from the piece-boundary phases only; the within-piece winding logic
    under test plays no role here.  Hyperbolic pieces use the tanh form, so
    arbitrarily heavy bumps cannot overflow.
    """
    frame = EnergyFrame(lam)
    k = frame.k_norm
    thetas, _ = _walk(problem, lam)
    signs: list = []
    psi0 = math.sin(thetas[0])
    if psi0 != 0.0:
        signs.append(math.copysign(1.0, psi0))
    for theta, (value, length) in zip(thetas.tolist(), _oracle_pieces(problem)):
        s0 = math.sin(theta)
        c0 = math.cos(theta)
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
        lam_min = float(r.values.min()) - 1.0
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


# ── Bracketed search versus bisection ────────────────────────────────────────
#
# The reference is plain bisection of theta(L_box) = m pi from the full window
# for every eigenvalue, with the same width rule and cap.  Both return the
# midpoint of a bracket of the crossing no wider than tol * max(1, |lo|, |hi|),
# so they agree within 2 tol * max(1, |lambda|).


def _bisect_eigenvalues(problem, lam_min, lam_max, tol=1e-10, max_count=None):
    n_lo = count_below(problem, lam_min)
    n_hi = count_below(problem, lam_max)
    if max_count is not None:
        n_hi = min(n_hi, n_lo + max_count)
    out = []
    for m in range(n_lo + 1, n_hi + 1):
        a, b = lam_min, lam_max
        for _ in range(240):
            if (b - a) <= tol * max(1.0, abs(a), abs(b)):
                break
            mid = 0.5 * (a + b)
            if boundary_phase(problem, mid) >= m * _PI:
                b = mid
            else:
                a = mid
        out.append(0.5 * (a + b))
    return out


def _search_window(model, problem):
    """The spectrum workload's windows: below 0 for II and IV, [0.25, 1] else."""
    if model in (Model.II, Model.IV):
        return min(0.0, float(problem.values.min())) - 1.0, 0.0
    return 0.25, 1.0


@pytest.mark.parametrize("model,kw", _WALK_MODELS)
@pytest.mark.parametrize("n", [60, 1000])
@pytest.mark.parametrize("theta0", [0.0, 1.1])
def test_search_matches_bisection(model, kw, n, theta0):
    tol = 1e-10
    cfg = ModelConfig(model=model, energy=1.0, **kw)
    parent = RngStream(5150)
    found = 0
    for i in range(2):
        r = generate(cfg, n, split_stream(parent, i))
        prob = BoxProblem(realization=r, theta0=theta0, L_box=r.total_length)
        lam_min, lam_max = _search_window(model, prob)
        want = _bisect_eigenvalues(prob, lam_min, lam_max, tol, max_count=3)
        got = find_eigenvalues(prob, lam_min, lam_max, tol, max_count=3)
        assert len(got) == len(want)
        for m, (a, b) in enumerate(zip(got, want), start=count_below(prob, lam_min) + 1):
            assert abs(a - b) <= 2.0 * tol * max(1.0, abs(b))
            # the midpoint of a bracket of the m-th crossing: half a width
            # below it the phase is short of m pi, half a width above it is not
            half = 0.5 * tol * max(1.0, abs(a))
            assert boundary_phase(prob, a - half) < m * _PI <= boundary_phase(prob, a + half)
        found += len(got)
    assert found > 0


# Walks per located eigenvalue, window ends included, on the spectrum
# workload's two configurations: 3 boxes of 1000 bumps each.  Bisection takes
# about 35.  The search measures 4.0 on the deep wells, where two boxes need
# extra walks to part two levels of one well, and 9.5 on the model I window,
# 6.75 over both; the bounds leave a sixth to a quarter of headroom.
_MAX_WALKS_PER_EIGENVALUE = 8
_MAX_WALKS_PER_EIGENVALUE_ONE_CONFIG = 12

_WORKLOAD_CONFIGS = [
    (ModelConfig(model=Model.II, energy=0.0, alpha1=0.5), None, 0.0),
    (ModelConfig(model=Model.I, energy=1.0, alpha1=0.5), 0.25, 1.0),
]


def _workload_boxes(cfg, lam_min):
    """The three 1000-bump RngStream(3141) boxes of a workload config, with
    the lower window end (the data-driven one when lam_min is None)."""
    parent = RngStream(3141)
    for i in range(3):
        r = generate(cfg, 1000, split_stream(parent, i))
        prob = BoxProblem(realization=r, theta0=0.0, L_box=r.total_length)
        lo = lam_min if lam_min is not None else min(0.0, float(prob.values.min())) - 1.0
        yield prob, lo


def _counted_walks(monkeypatch):
    """Wrap spectrum._end_state; the returned one-item list counts its calls."""
    walks = [0]
    end_state = spectrum._end_state

    def counted(problem, lam):
        walks[0] += 1
        return end_state(problem, lam)

    monkeypatch.setattr(spectrum, "_end_state", counted)
    return walks


def test_search_walk_count(monkeypatch):
    walks = _counted_walks(monkeypatch)
    total_walks = total_found = 0
    for cfg, lam_min, lam_max in _WORKLOAD_CONFIGS:
        walks[0] = found = 0
        for prob, lo in _workload_boxes(cfg, lam_min):
            found += len(find_eigenvalues(prob, lo, lam_max, max_count=2))
        assert found == 6
        assert walks[0] <= _MAX_WALKS_PER_EIGENVALUE_ONE_CONFIG * found
        total_walks += walks[0]
        total_found += found
    assert total_walks <= _MAX_WALKS_PER_EIGENVALUE * total_found


def test_deep_well_levels_come_out_apart():
    # Boxes 1 and 2 hold two levels of one well some 30 apart near -8e13 and
    # -5e13, where the width goal tol * |lambda| is thousands wide: the
    # bracket of the first level has to narrow on past the goal until it no
    # longer holds the second.
    cfg, lam_min, lam_max = _WORKLOAD_CONFIGS[0]
    for prob, lo in list(_workload_boxes(cfg, lam_min))[1:]:
        first, second = find_eigenvalues(prob, lo, lam_max, max_count=2)
        assert first < second
        assert count_below(prob, 0.5 * (first + second)) == count_below(prob, lo) + 1


def test_underflowed_residual_keeps_its_side(monkeypatch):
    # A synthetic box whose phase crosses pi at 0.3 and whose log r is -2000
    # below the crossing: there r sin(theta - pi) underflows to -0.0, which
    # compares >= 0.  The search works with log|psi|, which stays finite, and
    # takes the side from the phase, never from a residual.
    crossing = 0.3

    def fake_end_state(problem, lam):
        theta = _PI + 0.5 * _PI * math.tanh((lam - crossing) / 0.05)
        return theta, (-2000.0 if lam < crossing else 0.0)

    monkeypatch.setattr(spectrum, "_end_state", fake_end_state)
    prob = BoxProblem(realization=_free_realization([2.0]), theta0=0.0, L_box=2.0)
    table = {lam: fake_end_state(prob, lam) for lam in (0.0, 0.29, 1.0)}
    # both ends of [0.29, 1] are within pi of pi: the Dirichlet phase
    assert 0.0 < table[0.29][0] < _PI <= table[1.0][0] < 2.0 * _PI
    theta, log_r = table[0.29]
    size = abs(math.sin(theta - _PI))
    assert size * math.exp(log_r) == 0.0
    assert spectrum._log_residual(table, _PI, 0.29) == log_r + math.log(size)
    assert math.isfinite(spectrum._log_residual(table, _PI, 0.29))
    assert spectrum._tightest_bracket(table, _PI, 0.0, 1.0) == (0.29, 1.0)
    # the model puts the crossing e^-2000 of the width above 0.29: at it
    assert 0.29 <= spectrum._dirichlet_estimate(table, _PI, 0.29, 1.0) < 1.0
    tol = 1e-10
    (lam,) = find_eigenvalues(prob, 0.0, 1.0, tol)
    assert abs(lam - crossing) <= tol


@pytest.mark.parametrize("offset", [0.1, 0.5, 0.93])
@pytest.mark.parametrize("slope", [-300.0, 450.0])
@pytest.mark.parametrize("log_r0", [0.0, 2.6e6])
def test_dirichlet_step_lands_in_few_walks(monkeypatch, offset, slope, log_r0):
    # The shape of a localized box near its m-th crossing: theta sits on a
    # plateau 0.227 pi past (m - 1) pi and steps by pi at lam*, and
    # log r = log|lam - lam*| + a + b lam with |b| in the hundreds.  From a
    # bracket 1e-2 wide the model holds exactly, so the search must land
    # within tol in at most 5 walks after the two window ends.
    m, tol, width = 7, 1e-10, 1e-2
    lam_min = 0.4
    lam_star = lam_min + offset * width
    walks = [0]

    def fake_end_state(problem, lam):
        walks[0] += 1
        theta = (m - 1 + 0.227) * _PI + (_PI if lam >= lam_star else 0.0)
        if lam == lam_star:
            return theta, -math.inf
        return theta, math.log(abs(lam - lam_star)) + log_r0 + slope * lam

    monkeypatch.setattr(spectrum, "_end_state", fake_end_state)
    prob = BoxProblem(realization=_free_realization([2.0]), theta0=0.0, L_box=2.0)
    (lam,) = find_eigenvalues(prob, lam_min, lam_min + width, tol)
    assert abs(lam - lam_star) <= tol * max(1.0, abs(lam_star))
    assert walks[0] - 2 <= 5


def test_phase_landing_on_m_pi_closes_the_bracket(monkeypatch):
    # On this short model II box the walk at 2.0327752197831543 returns
    # theta == 32 pi exactly, so log|psi| there is -inf.  That end is the
    # crossing: the search closes on the next walk instead of bisecting
    # down to tol against a residual it cannot use.
    cfg = ModelConfig(model=Model.II, energy=1.0, alpha1=0.5)
    r = generate(cfg, 12, split_stream(RngStream(777), 4))
    prob = BoxProblem(realization=r, theta0=0.7, L_box=r.total_length)
    hit = 2.0327752197831543
    assert spectrum._end_state(prob, hit)[0] == 32 * _PI
    table = {lam: spectrum._end_state(prob, lam) for lam in (2.03, 2.032, hit, 2.04)}
    assert spectrum._log_residual(table, 32 * _PI, hit) == -math.inf
    assert spectrum._dirichlet_estimate(table, 32 * _PI, 2.032, hit) == hit

    walks = _counted_walks(monkeypatch)
    found = find_eigenvalues(prob, 0.25, 4.0)
    assert any(abs(lam - hit) <= 1e-10 * hit for lam in found)
    assert walks[0] <= 2 + 11 * len(found)


def test_exhausted_search_raises(monkeypatch):
    # With three walks per eigenvalue the model I window cannot close its
    # brackets; the search must say so instead of returning a midpoint
    monkeypatch.setattr(spectrum, "_MAX_EVALS", 3)
    cfg = ModelConfig(model=Model.I, energy=1.0, alpha1=0.5)
    prob, lo = next(_workload_boxes(cfg, 0.25))
    with pytest.raises(EigenvalueSearchError,
                       match=r"^eigenvalue 1: bracket \[[\d.]+, [\d.]+\] still wider"):
        find_eigenvalues(prob, lo, 1.0, max_count=2)


# ── Located eigenvalues versus bisection on the count ────────────────────────
#
# An oracle independent of the search's side test: plain bisection on
# count_below, the winding count with its guard, to a width of tol / 100.
# count_below counts a phase within _WINDING_GUARD pi below m pi as having
# reached it.  On 1000-bump boxes theta steps by pi at float resolution and
# the guard moves the count's crossing by nothing measurable; on a short box
# the phase rises gently and the guard moves it by up to about 1e-9 pi
# divided by the phase slope, so short boxes are searched at tol = 1e-7.


def _count_oracle(problem, lam_min, lam_max, tol, max_count):
    n_lo = count_below(problem, lam_min)
    n_hi = min(count_below(problem, lam_max), n_lo + max_count)
    out = []
    for m in range(n_lo + 1, n_hi + 1):
        a, b = lam_min, lam_max
        while b - a > 0.01 * tol * max(1.0, abs(a), abs(b)):
            mid = 0.5 * (a + b)
            if not a < mid < b:
                break
            if count_below(problem, mid) >= m:
                b = mid
            else:
                a = mid
        out.append(0.5 * (a + b))
    return n_lo, out


def _assert_matches_count_oracle(problem, lam_min, lam_max, tol, max_count=3,
                                 isolated=False):
    n_lo, want = _count_oracle(problem, lam_min, lam_max, tol, max_count)
    got = find_eigenvalues(problem, lam_min, lam_max, tol, max_count=max_count)
    assert len(got) == len(want)
    for m, (lam, ref) in enumerate(zip(got, want), start=n_lo + 1):
        step = tol * max(1.0, abs(lam))
        assert abs(lam - ref) <= tol * max(1.0, abs(ref))
        below, above = count_below(problem, lam - step), count_below(problem, lam + step)
        assert below <= m - 1 and above >= m
        # Levels of one deep well can lie closer together than tol * |lam|
        # and share a step of the count.  Where two steps on either side hold
        # a single eigenvalue, the count must step from m - 1 to m alone.
        if isolated or (count_below(problem, lam + 2.0 * step)
                        - count_below(problem, lam - 2.0 * step)) == 1:
            assert (below, above) == (m - 1, m)
    return got


@pytest.mark.parametrize("cfg,lam_min,lam_max", _WORKLOAD_CONFIGS)
def test_workload_boxes_match_count_oracle(cfg, lam_min, lam_max):
    found = 0
    for prob, lo in _workload_boxes(cfg, lam_min):
        found += len(_assert_matches_count_oracle(prob, lo, lam_max, 1e-10, max_count=2,
                                                  isolated=cfg.model is Model.I))
    assert found == 6


@pytest.mark.parametrize("model,kw", [(Model.III, {"alpha2": 0.6}),
                                      (Model.IV, {"alpha1": 0.7, "alpha2": 0.6})])
def test_short_boxes_match_count_oracle(model, kw):
    cfg = ModelConfig(model=model, energy=1.0, **kw)
    parent = RngStream(3141)
    found = 0
    for i in range(3):
        r = generate(cfg, 40, split_stream(parent, i))
        prob = BoxProblem(realization=r, theta0=0.7, L_box=r.total_length)
        lam_min, lam_max = _search_window(model, prob)
        found += len(_assert_matches_count_oracle(prob, lam_min, lam_max, 1e-7))
        if model is Model.IV:  # above the gap potential too
            found += len(_assert_matches_count_oracle(prob, 0.25, 3.0, 1e-7))
    assert found > 0


_MODEL_ALPHAS = {
    Model.I: lambda a: {"alpha1": a},
    Model.II: lambda a: {"alpha1": a},
    Model.III: lambda a: {"alpha2": a},
    Model.IV: lambda a: {"alpha1": a, "alpha2": a},
}


@settings(max_examples=100, deadline=None)
@given(model=st.sampled_from(list(Model)),
       alpha=st.floats(0.2, 0.95),
       n=st.integers(2, 24),
       seed=st.integers(0, 2**20),
       theta0=st.floats(0.0, 3.1))
def test_random_short_boxes_match_count_oracle(model, alpha, n, seed, theta0):
    cfg = ModelConfig(model=model, energy=1.0, **_MODEL_ALPHAS[model](alpha))
    r = generate(cfg, n, RngStream(seed))
    prob = BoxProblem(realization=r, theta0=theta0, L_box=r.total_length)
    # lambda <= 0 windows for the signed models, [0.25, 4] for the others
    lam_min, lam_max = _search_window(model, prob)
    if model in (Model.I, Model.III):
        lam_max = 4.0
    _assert_matches_count_oracle(prob, lam_min, lam_max, 1e-7)


def test_max_count_is_the_head_of_the_full_search():
    # every eigenvalue of a model IV box below 0 (60 of them), then the heads
    cfg = ModelConfig(model=Model.IV, energy=1.0, alpha1=0.8, alpha2=0.8)
    r = generate(cfg, 60, split_stream(RngStream(5150), 0))
    prob = BoxProblem(realization=r, theta0=1.1, L_box=r.total_length)
    lam_min, lam_max = _search_window(Model.IV, prob)
    full = find_eigenvalues(prob, lam_min, lam_max)
    assert len(full) > 3
    for k in (1, 2, 3):
        assert find_eigenvalues(prob, lam_min, lam_max, max_count=k) == full[:k]


# ── Traces ───────────────────────────────────────────────────────────────────


def test_phase_trace_structure():
    cfg = ModelConfig(model=Model.III, energy=2.0, alpha2=0.5)
    r = generate(cfg, 15, RngStream(9))
    prob = BoxProblem(realization=r, theta0=0.2, L_box=r.total_length)
    thetas, log_rs = _walk(prob, 2.0)
    assert thetas.size == log_rs.size == r.values.size + 1
    assert log_rs[0] == 0.0
    assert np.cumsum(prob.lengths)[-1] == pytest.approx(r.total_length)
    assert np.all(prob.lengths > 0.0)
    # all pieces oscillatory at lam = 2: theta increases along the chain
    assert np.all(np.diff(thetas) > 0.0)


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
