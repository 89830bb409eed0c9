"""Monte Carlo estimator sweeps: oracle agreement, failure cases and limit behavior.

Sweep oracles and their tolerances, on the pieces of potentials.generate
with the same seed stream:

    theta     prufer.walk_chain: |dtheta| <= 1e-12 * max(1, |theta|).
              Measured worst 2.0e-16 over models I-IV, lam in
              {2, 1, 0.3, 0, -0.7}, n = 1000, with the default and a 37-bump
              segment length.  A wrong winding count would miss by pi or
              more.  At n = 60 also a chain of scalar advance_interval
              steps: |dtheta/pi| <= 1e-11 * max(1, |theta/pi|).  The scalar
              flow works from sin/cos of the unwound theta and drifts once
              theta is large, so it is not the theta oracle at n = 1000.
    log norm  transfer.push_piece products of the whole chain (a 2x2
              product renormalized every piece, not a vector walk):
              |d log||M||| <= 1e-11 * max(1, |log||M|||) at n = 1000 and
              1e-9 at n = 60.  Measured worst 3.7e-15, sweep and
              lyapunov_trace alike.
    x         bit-identical to the chain's piece boundaries, as
              lyapunov_trace and ids_trace report them.

lyapunov_trace and ids_trace walk one chain with walk_chain and are checked
against the same oracles.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heavykp.estimators as estimators
from heavykp.estimators import (
    IdsScale,
    LyapunovScale,
    chain_mixing,
    darling_ratio,
    estimate_ids,
    estimate_lyapunov,
    estimate_lyapunov_and_ids,
    ids_trace,
    lyapunov_trace,
    model3_joint_samples,
    nonlinear_samples,
    sweep_chains,
)
from heavykp.potentials import Model, ModelConfig, _draw_blocks, generate
from heavykp.prufer import PruferState, advance_interval, boundary_theta, phase_fold, walk_chain
from heavykp.rng import RngStream, sample_bump_height, sample_gap_length, split_ids, split_stream
from heavykp.stats import ks_distance, mean_ci
from heavykp.transfer import BatchProducts, SaturationError, push_piece

_PI = math.pi
THETA_TOL = 1e-12
LOG_NORM_TOL = 1e-11


def _cfg(model: Model, **kw) -> ModelConfig:
    base = {"energy": 1.0}
    base.update(kw)
    return ModelConfig(model=model, **base)


CONFIGS = {
    "I": _cfg(Model.I, alpha1=0.5, energy=2.0),
    "II": _cfg(Model.II, alpha1=0.5, energy=1.0),
    "III": _cfg(Model.III, alpha2=0.6, energy=2.0),
    "IV": _cfg(Model.IV, alpha1=0.5, alpha2=0.6, energy=2.0),
}


# ── Vector sweep versus scalar traces ────────────────────────────────────────


def _bump_ends(cfg: ModelConfig, n_bumps: int) -> np.ndarray:
    """Index of the boundary after each bump (index 0 = start) in a walk's output."""
    per_bump = 1 if cfg.model in (Model.I, Model.II) else 2
    return np.arange(n_bumps + 1) * per_bump


def _scalar_thetas(cfg: ModelConfig, n_bumps: int, stream: RngStream) -> np.ndarray:
    """theta after each bump (index 0 = start) by a chain of advance_interval steps."""
    real = generate(cfg, n_bumps, stream)
    frame = cfg.frame()
    state = PruferState(theta=boundary_theta(cfg.theta0, frame), log_r=0.0, x=0.0)
    thetas = [state.theta]
    for value, length in zip(real.values.tolist(), real.lengths.tolist()):
        state = advance_interval(state, value, length, frame)
        thetas.append(state.theta)
    return np.array(thetas)[_bump_ends(cfg, n_bumps)]


def _product_log_norms(cfg: ModelConfig, n_bumps: int, n_seeds: int,
                       parent: RngStream) -> np.ndarray:
    """log||M|| after each bump (row 0 = start) of every seed's chain, by push_piece."""
    reals = [generate(cfg, n_bumps, split_stream(parent, i)) for i in range(n_seeds)]
    values = np.stack([r.values for r in reals], axis=1)
    lengths = np.stack([r.lengths for r in reals], axis=1)
    frame = cfg.frame()
    bp = BatchProducts(n_seeds)
    log_norms = [bp.log_norms()]
    for v, l in zip(values, lengths):
        push_piece(bp, v, l, frame)
        log_norms.append(bp.log_norms())
    return np.array(log_norms)[_bump_ends(cfg, n_bumps)]


@pytest.mark.parametrize("name", ["I", "II", "III", "IV"])
def test_sweep_matches_scalar_traces(name):
    # seed i of the sweep must retrace the single-chain paths built on
    # split_stream(parent, i): same draws, same geometry, the theta of a
    # chain of scalar flow steps and the log norm of the matrix product;
    # the traces must agree with the same references
    cfg = CONFIGS[name]
    parent = RngStream(321, stream_id=4)
    n_bumps, n_seeds = 60, 4
    res = sweep_chains(cfg, n_bumps, n_seeds, parent, want_theta=True, want_log_norm=True,
                       checkpoint_bumps=[20])
    products = _product_log_norms(cfg, n_bumps, n_seeds, parent)
    for i in range(n_seeds):
        child = split_stream(parent, i)
        thetas = _scalar_thetas(cfg, n_bumps, child)
        ids_pts = ids_trace(cfg, n_bumps, [20], child)
        lyap_pts = lyapunov_trace(cfg, n_bumps, [20], child)
        for rec_nb, (x_ids, rot), (x_ly, ln) in zip((20, 60), ids_pts, lyap_pts):
            rec = res.records[rec_nb]
            assert rec.x[i] == x_ids == x_ly
            for got in (rec.theta[i] / _PI, rot):
                assert got == pytest.approx(thetas[rec_nb] / _PI, rel=1e-11, abs=1e-11)
            for got in (rec.log_norm[i], ln):
                assert got == pytest.approx(products[rec_nb, i], rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("name", ["I", "II", "III"])
def test_sweep_checkpoints_consistent_with_shorter_sweep(name):
    # single-block models draw one array per seed, so the 50-bump checkpoint
    # of a 200-bump sweep is bit-identical to a standalone 50-bump sweep on
    # the same stream (model IV's three stacked blocks shift positions, so
    # the property is deliberately not claimed there)
    cfg = CONFIGS[name]
    parent = RngStream(8421)
    long = sweep_chains(cfg, 200, 6, parent, want_theta=True, want_log_norm=True,
                        checkpoint_bumps=[50])
    short = sweep_chains(cfg, 50, 6, parent, want_theta=True, want_log_norm=True)
    a, b = long.records[50], short.records[50]
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.log_norm, b.log_norm)


# ── Sweep against the chain-walk and product oracles ────────────────────────


def _walk_thetas(cfg: ModelConfig, n_bumps: int, stream: RngStream, edit=None) -> np.ndarray:
    """walk_chain's theta after each bump (index 0 = start) of the generated chain."""
    real = generate(cfg, n_bumps, stream)
    values = np.array([p.value for p in real.pieces])
    lengths = np.array([p.length for p in real.pieces])
    if edit is not None:
        edit(values, lengths)
    frame = cfg.frame()
    thetas, _ = walk_chain(values, lengths, frame, boundary_theta(cfg.theta0, frame))
    return thetas[_bump_ends(cfg, n_bumps)]


def _check_against_oracles(cfg: ModelConfig, n_bumps: int, n_seeds: int, parent: RngStream,
                           checkpoints) -> None:
    res = sweep_chains(cfg, n_bumps, n_seeds, parent, want_theta=True, want_log_norm=True,
                       checkpoint_bumps=checkpoints)
    products = _product_log_norms(cfg, n_bumps, n_seeds, parent)
    for i in range(n_seeds):
        child = split_stream(parent, i)
        thetas = _walk_thetas(cfg, n_bumps, child)
        traced = lyapunov_trace(cfg, n_bumps, checkpoints, child)
        for (x, traced_ln), nb in zip(traced, sorted(res.records)):
            rec = res.records[nb]
            want = thetas[nb]
            assert abs(rec.theta[i] - want) <= THETA_TOL * max(1.0, abs(want)), (nb, i)
            assert rec.x[i] == x
            ln = products[nb, i]
            for got in (rec.log_norm[i], traced_ln):
                assert abs(got - ln) <= LOG_NORM_TOL * max(1.0, abs(ln)), (nb, i)


ORACLE_CONFIGS = {
    "I": _cfg(Model.I, alpha1=0.5, energy=2.0, theta0=1.1),
    "II": _cfg(Model.II, alpha1=0.5, energy=-0.7, theta0=1.1),
    "III": _cfg(Model.III, alpha2=0.6, energy=0.3, theta0=1.1),
    "IV": _cfg(Model.IV, alpha1=0.5, alpha2=0.6, energy=1.0, theta0=1.1),
}


@pytest.mark.parametrize("budget", ["default", "short"])
@pytest.mark.parametrize("name", ["I", "II", "III", "IV"])
def test_sweep_matches_walk_and_product_oracles(name, budget, monkeypatch):
    # n = 1000 with checkpoints on both sides of a segment boundary: the
    # default segments of 8 seeds, or 37-bump segments (a boundary every 37)
    n_seeds = 8
    if budget == "short":
        n_seeds = 4
        monkeypatch.setattr(estimators, "_SEGMENT_ELEMENTS", 37 * n_seeds)
    seg = estimators._SEGMENT_ELEMENTS // n_seeds
    assert seg < 1000
    checkpoints = [c for c in (seg - 1, seg, seg + 1, 2 * seg + 1) if c < 1000]
    _check_against_oracles(ORACLE_CONFIGS[name], 1000, n_seeds, RngStream(55, stream_id=3),
                           checkpoints)


def test_sweep_gap_models_at_nonpositive_energy():
    # gaps at lam <= 0 are ordinary hyperbolic (lam < 0) or degenerate
    # (lam = 0) pieces of the walk; model IV accepts any real energy
    for energy in (-0.7, 0.0):
        cfg = _cfg(Model.IV, alpha1=0.5, alpha2=0.5, energy=energy)
        _check_against_oracles(cfg, 300, 3, RngStream(1), [150])


@settings(max_examples=25, deadline=None)
@given(
    model=st.sampled_from(list(Model)),
    alpha=st.floats(0.3, 0.95),
    energy=st.floats(-1.0, 3.0),
    theta0=st.floats(0.0, _PI, exclude_max=True),
    seed=st.integers(0, 2**31 - 1),
)
def test_sweep_theta_property(model, alpha, energy, theta0, seed):
    # models I and III need energy > 0; II and IV take any real energy
    if model in (Model.I, Model.III) and energy <= 0.0:
        energy = 0.5 + abs(energy)
    kw = {"alpha1": alpha} if model is not Model.III else {}
    if model in (Model.III, Model.IV):
        kw["alpha2"] = alpha
    cfg = ModelConfig(model=model, energy=energy, theta0=theta0, **kw)
    parent = RngStream(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "_SEGMENT_ELEMENTS", 3 * 7)  # 7-bump segments
        res = sweep_chains(cfg, 40, 3, parent, want_theta=True, checkpoint_bumps=[13])
    for i in range(3):
        thetas = _walk_thetas(cfg, 40, split_stream(parent, i))
        for nb in (13, 40):
            got, want = res.records[nb].theta[i], thetas[nb]
            assert abs(got - want) <= THETA_TOL * max(1.0, abs(want))


# ── Failure cases ────────────────────────────────────────────────────────────


def test_theta_sweep_marks_infinite_heights_nan():
    # alpha1 = 0.02 squares Frechet variates past float range on some
    # draws: exactly the chains fed an infinite height turn NaN, the others
    # stay finite, and nothing raises
    cfg = _cfg(Model.II, alpha1=0.02, energy=1.0)
    parent = RngStream(11)
    n, n_seeds = 128, 40
    with np.errstate(over="ignore", invalid="ignore"):
        res = sweep_chains(cfg, n, n_seeds, parent, want_theta=True)
        heights = np.array([sample_bump_height(cfg.bump_law(), split_stream(parent, i).generator(),
                                               size=n) for i in range(n_seeds)])
    fed_inf = np.isinf(heights).any(axis=1)
    assert 0 < fed_inf.sum() < n_seeds
    assert np.array_equal(np.isnan(res.final().theta), fed_inf)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SaturationError):
            sweep_chains(cfg, n, n_seeds, parent, want_log_norm=True)


# (V, theta0) at lam = 1: the boundary vector of theta0 lies exactly on the
# contracting direction of a unit bump of height V, whose factored matrix
# maps it to (0, 0) in floating point; hypot of that vector is exactly 1
DEAD_HEIGHT = 2256465.4763044724
DEAD_THETA0 = 3.140926942662913


def _dead_draws(monkeypatch, child: RngStream):
    """Make the first bump of stream child's chain DEAD_HEIGHT, after a 1e-300 gap."""
    def draw(config, seed, stream_ids, n):
        values, gaps = _draw_blocks(config, seed, stream_ids, n)
        row = np.asarray(stream_ids) == child.stream_id
        assert seed == child.seed and row.sum() == 1
        values[row, 0] = DEAD_HEIGHT
        if gaps is not None:
            gaps[row, 0] = 1e-300
        return values, gaps

    monkeypatch.setattr(estimators, "_draw_blocks", draw)


@pytest.mark.parametrize("model", [Model.I, Model.IV])
def test_sweep_dead_direction_lane(model, monkeypatch):
    cfg = _cfg(model, alpha1=0.5, alpha2=0.6 if model is Model.IV else None,
               energy=1.0, theta0=DEAD_THETA0)
    parent = RngStream(12)
    n, n_seeds = 60, 3
    dead = 1
    _dead_draws(monkeypatch, split_stream(parent, dead))
    res = sweep_chains(cfg, n, n_seeds, parent, want_theta=True, want_log_norm=True,
                       checkpoint_bumps=[1])

    def edit(values, lengths):
        first_bump = 0 if model is Model.I else 1
        values[first_bump] = DEAD_HEIGHT
        if model is Model.IV:
            lengths[0] = 1e-300

    for i in range(n_seeds):
        thetas = _walk_thetas(cfg, n, split_stream(parent, i), edit if i == dead else None)
        for nb in (1, n):
            got, want = res.records[nb].theta[i], thetas[nb]
            assert abs(got - want) <= THETA_TOL * max(1.0, abs(want)), (nb, i)
    assert np.all(np.isfinite(res.final().log_norm))


def test_joint_sweep_equals_separate_estimates_bitwise():
    # one sweep with both lane kinds gives each estimate bit for bit
    for cfg in (CONFIGS["II"], CONFIGS["IV"]):
        lya, ids = estimate_lyapunov_and_ids(cfg, 300, 40, RngStream(5),
                                             LyapunovScale.NONLINEAR_ALPHA,
                                             IdsScale.NONLINEAR_ALPHA)
        lya1 = estimate_lyapunov(cfg, 300, 40, RngStream(5), LyapunovScale.NONLINEAR_ALPHA)
        ids1 = estimate_ids(cfg, 300, 40, RngStream(5), IdsScale.NONLINEAR_ALPHA)
        assert np.array_equal(lya.values, lya1.values)
        assert np.array_equal(ids.values, ids1.values)
        assert (lya.normalizer_desc, ids.normalizer_desc) == (lya1.normalizer_desc,
                                                              ids1.normalizer_desc)


# ── Bulk draws against the per-seed samplers ────────────────────────────────


def _per_seed_draws(cfg: ModelConfig, stream: RngStream, n: int):
    """(x, y, eps) of one chain, drawn from stream.generator() by the samplers."""
    gen = stream.generator()
    x = y = eps = None
    if cfg.model is not Model.III:
        x = sample_bump_height(cfg.bump_law(), gen, size=n)
    if cfg.model in (Model.III, Model.IV):
        y = sample_gap_length(cfg.gap_law(), gen, size=n)
    if cfg.model is Model.IV:
        eps = gen.integers(0, 2, size=n)
    return x, y, eps


def _per_seed_pieces(cfg: ModelConfig, stream: RngStream, n: int):
    """(bump potentials, gap lengths) of one chain, mapped from _per_seed_draws."""
    x, y, eps = _per_seed_draws(cfg, stream, n)
    if cfg.model is Model.III:
        return 1.0, y
    if cfg.model is Model.IV:
        return x * (1.0 - 2.0 * eps), y
    return (x if cfg.model is Model.I else -x), y


def _assert_rows_equal(got, want):
    assert (got is None) == (want is None)
    if want is not None:
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name", ["I", "II", "III", "IV"])
def test_draw_blocks_match_per_seed_samplers(name):
    # the sweep's seed blocks, drawn and mapped to pieces at once, against
    # each seed's own generator(); 70 seeds at the chunk length of a
    # 2**17-bump sweep give blocks 0..63 and 64..69, so the second block
    # starts at lo > 0
    cfg = CONFIGS[name]
    parent = RngStream(2**40 + 17, stream_id=2**64 - 1)
    n = 45
    chunks = estimators._chunk_sizes(70, 2**17)
    assert chunks == [(0, 64), (64, 70)]
    for lo, hi in chunks:
        values, gaps = estimators._draw_blocks(cfg, parent.seed, split_ids(parent, lo, hi), n)
        for r, seed in enumerate(range(lo, hi)):
            want_values, want_gaps = _per_seed_pieces(cfg, split_stream(parent, seed), n)
            if cfg.model is Model.III:
                assert values == want_values
            else:
                _assert_rows_equal(values[r], want_values)
            _assert_rows_equal(None if gaps is None else gaps[r], want_gaps)


@pytest.mark.parametrize("name", ["I", "II", "III", "IV"])
def test_generate_matches_per_seed_samplers(name):
    cfg = CONFIGS[name]
    for stream in (RngStream(3), RngStream(2**64 + 5, stream_id=2**32), RngStream(-1, 7)):
        real = generate(cfg, 33, stream)
        x, y, eps = _per_seed_draws(cfg, stream, 33)
        values = np.array([p.value for p in real.pieces])
        lengths = np.array([p.length for p in real.pieces])
        if cfg.model is Model.I:
            assert np.array_equal(values, x) and np.all(lengths == 1.0)
        elif cfg.model is Model.II:
            assert np.array_equal(values, -x)
        elif cfg.model is Model.III:
            assert np.array_equal(lengths[0::2], y) and np.all(values[1::2] == 1.0)
        else:
            assert np.array_equal(lengths[0::2], y)
            assert np.array_equal(values[1::2], x * (1.0 - 2.0 * eps))
            assert np.array_equal(real.signs, eps)


def test_sweep_validation():
    cfg = CONFIGS["I"]
    with pytest.raises(ValueError):
        sweep_chains(cfg, 0, 2, RngStream(1))
    with pytest.raises(ValueError):
        sweep_chains(cfg, 10, 2, RngStream(1), checkpoint_bumps=[0])
    with pytest.raises(ValueError):
        sweep_chains(cfg, 10, 2, RngStream(1), checkpoint_bumps=[11])


def test_aux_sqrt_sums_match_manual_draws():
    # model II: sum sqrt(lam + X); model I: sqrt of the positive part of X - lam
    parent = RngStream(99)
    n = 40
    for name, reducer in (
        ("II", lambda x, lam: np.sqrt(lam + x).sum()),
        ("I", lambda x, lam: np.sqrt(np.maximum(x - lam, 0.0)).sum()),
    ):
        cfg = CONFIGS[name]
        res = sweep_chains(cfg, n, 3, parent, want_aux_sqrt=True)
        for i in range(3):
            gen = split_stream(parent, i).generator()
            x = sample_bump_height(cfg.bump_law(), gen, size=n)
            assert res.aux_sqrt_sum[i] == pytest.approx(reducer(x, cfg.energy), rel=1e-12)


def test_aux_sqrt_rejected_for_gap_models():
    with pytest.raises(ValueError, match="models I and II"):
        sweep_chains(CONFIGS["III"], 10, 2, RngStream(1), want_aux_sqrt=True)


# ── Scalar traces ────────────────────────────────────────────────────────────


def test_traces_record_requested_bump_counts():
    cfg = CONFIGS["I"]
    pts = lyapunov_trace(cfg, 30, [10, 20], RngStream(3))
    assert [x for x, _ in pts] == [10.0, 20.0, 30.0]
    rot = ids_trace(cfg, 30, [10, 20], RngStream(3))
    assert [x for x, _ in rot] == [10.0, 20.0, 30.0]
    # same chain: log norms nondecreasing in n for a model I chain is not
    # guaranteed, but positivity of the rotation is
    assert all(v > 0.0 for _, v in rot)


def test_trace_checkpoint_validation():
    cfg = CONFIGS["I"]
    with pytest.raises(ValueError):
        lyapunov_trace(cfg, 10, [0], RngStream(1))
    with pytest.raises(ValueError):
        ids_trace(cfg, 10, [11], RngStream(1))


# ── Estimates and scales ─────────────────────────────────────────────────────


def test_linear_scales_coincide_for_unit_spacing():
    # models I/II have x_n = n, so per-length and per-bump scales agree
    cfg = CONFIGS["I"]
    ex = estimate_lyapunov(cfg, 50, 8, RngStream(12), LyapunovScale.LINEAR_X)
    en = estimate_lyapunov(cfg, 50, 8, RngStream(12), LyapunovScale.LINEAR_N)
    assert np.allclose(ex.values, en.values, rtol=1e-12)
    assert ex.normalizer_desc != en.normalizer_desc


def test_nonlinear_normalizer_descriptions():
    est = estimate_lyapunov(CONFIGS["I"], 50, 4, RngStream(13), LyapunovScale.NONLINEAR_ALPHA)
    assert "alpha1=0.5" in est.normalizer_desc
    est3 = estimate_lyapunov(CONFIGS["III"], 50, 4, RngStream(13), LyapunovScale.NONLINEAR_ALPHA)
    assert "L_n**alpha2" in est3.normalizer_desc
    ids3 = estimate_ids(CONFIGS["III"], 50, 4, RngStream(13), IdsScale.NONLINEAR_ALPHA)
    assert "n**(1/alpha2)" in ids3.normalizer_desc


def test_model3_rotation_tracks_free_value():
    # sparse bumps barely perturb the free rotation: theta/(pi x) near 1/pi at k=1
    cfg = _cfg(Model.III, alpha2=0.5, energy=1.0)
    est = estimate_ids(cfg, 500, 200, RngStream(72))
    assert np.median(est.values) == pytest.approx(1.0 / _PI, rel=0.02)


def test_model3_lyapunov_per_bump_positive():
    cfg = _cfg(Model.III, alpha2=0.5, energy=1.0)
    est = estimate_lyapunov(cfg, 500, 100, RngStream(73), LyapunovScale.LINEAR_N)
    ci = mean_ci(est.values)
    assert ci.mean - ci.half_width > 0.0
    assert 0.05 < ci.mean < 0.15


def test_model2_linear_rotation_diverges():
    # theta grows like the sum of sqrt(lam + X), a heavy-tailed pile: the
    # per-length rotation must blow up with n rather than stabilize
    cfg = CONFIGS["II"]
    m_small = np.median(estimate_ids(cfg, 100, 100, RngStream(71)).values)
    m_big = np.median(estimate_ids(cfg, 1600, 100, RngStream(71)).values)
    assert m_big > 5.0 * m_small


def test_nonlinear_samples_dispatch_and_validation():
    cfg = CONFIGS["I"]
    vals = nonlinear_samples(cfg, 64, 16, "lyapunov", RngStream(14))
    assert vals.shape == (16,)
    assert np.all(vals >= 0.0)
    with pytest.raises(ValueError, match="which"):
        nonlinear_samples(cfg, 64, 16, "spectral", RngStream(14))
    with pytest.raises(ValueError):
        nonlinear_samples(cfg, 64, 1, "ids", RngStream(14))


def test_model3_joint_samples_identity():
    # dividing ln||M||/n by (L/n^(1/alpha))^alpha recovers the L^alpha scaling
    cfg = _cfg(Model.III, alpha2=0.5, energy=1.0)
    stream = RngStream(15)
    a_part, b_part = model3_joint_samples(cfg, 128, 32, stream)
    scaled = nonlinear_samples(cfg, 128, 32, "lyapunov", stream)
    assert np.allclose(a_part / b_part ** cfg.alpha2, scaled, rtol=1e-12)


def test_model3_joint_samples_model_checked():
    with pytest.raises(ValueError, match="Model III"):
        model3_joint_samples(CONFIGS["I"], 16, 4, RngStream(1))


# ── Darling ratio ────────────────────────────────────────────────────────────


def test_darling_ratio_values():
    assert darling_ratio([1.0, 2.0, 3.0, 4.0]) == pytest.approx(0.4)
    assert darling_ratio([7.0]) == 1.0
    assert darling_ratio(np.full(10, 2.5)) == pytest.approx(0.1)


def test_darling_ratio_validation():
    with pytest.raises(ValueError):
        darling_ratio([])
    with pytest.raises(ValueError):
        darling_ratio([1.0, 0.0])
    with pytest.raises(ValueError):
        darling_ratio([1.0, -2.0])


# ── Phase-chain mixing ───────────────────────────────────────────────────────


def test_mixing_output_shape_and_symmetry():
    cfg = _cfg(Model.I, alpha1=0.5, energy=1.0)
    ks = chain_mixing(cfg, 5, [-1.0, 0.0, 2.0], 50, RngStream(20))
    assert ks.shape == (5, 3, 3)
    assert np.all(ks >= 0.0) and np.all(ks <= 1.0)
    for s in range(5):
        assert np.array_equal(ks[s], ks[s].T)
        assert np.all(np.diag(ks[s]) == 0.0)


def test_mixing_identical_starts_stay_identical():
    cfg = _cfg(Model.I, alpha1=0.5, energy=1.0)
    ks = chain_mixing(cfg, 10, [0.5, 0.5], 50, RngStream(21))
    assert np.all(ks == 0.0)


def test_mixing_strong_disorder_collapses_exactly():
    # coupled chains at alpha = 1/2, k = 1: by 50 bumps every seed's three
    # phases have merged to the same float, so the KS distance is exactly 0
    cfg = _cfg(Model.I, alpha1=0.5, energy=1.0)
    ks = chain_mixing(cfg, 50, [-10.0, 0.0, 10.0], 200, RngStream(74))
    assert ks[0].max() > 0.1          # distinguishable at the start
    assert ks[9].max() < 0.02
    assert ks[49].max() == 0.0


def test_mixing_decay_profile_mild_disorder():
    # k = 6, alpha = 0.8: slower geometric contraction, still monotone
    cfg = _cfg(Model.I, alpha1=0.8, energy=36.0)
    ks = chain_mixing(cfg, 40, [-10.0, 0.0, 10.0], 20000, RngStream(75))
    d10, d20, d40 = ks[9].max(), ks[19].max(), ks[39].max()
    assert d10 < 0.006
    assert d20 < 0.5 * d10
    assert d40 < d20
    assert d40 < 5e-4


def _phase_fold_mixing(config, n_steps, initial_points, n_seeds, stream):
    """chain_mixing by the scalar flow's batch twin: theta itself advanced by phase_fold."""
    frame = config.frame()
    m = len(initial_points)
    theta0 = np.array([estimators._tangent_phase(t) for t in initial_points])
    x = _draw_blocks(config, stream.seed, split_ids(stream, 0, n_seeds), n_steps)[0]
    thetas = np.repeat(theta0, n_seeds)  # layout: m blocks of n_seeds chains
    out = np.zeros((n_steps, m, m))
    for step in range(n_steps):
        phase_fold(thetas, np.tile(x[:, step], m), 1.0, frame)
        thetas = np.fmod(thetas, _PI)
        thetas[thetas < 0.0] += _PI
        rows = thetas.reshape(m, n_seeds)
        for i in range(m):
            for j in range(i + 1, m):
                out[step, i, j] = out[step, j, i] = ks_distance(rows[i], rows[j])
    return out


@pytest.mark.parametrize("energy, alpha, n_steps, n_seeds, seed", [
    (1.0, 0.5, 40, 2000, 7),      # the benchmark's mixing cell shape
    (1.0, 0.5, 50, 200, 74),
    (36.0, 0.8, 40, 20000, 75),
])
def test_mixing_matches_phase_fold_reference(energy, alpha, n_steps, n_seeds, seed):
    # phases read off the lane walk's vectors against phases advanced by the
    # closed-form flow: rounding may move a seed across a KS step, so the
    # entries agree within one count, and a collapse to exactly 0 stays 0
    cfg = _cfg(Model.I, alpha1=alpha, energy=energy)
    points = [-10.0, 0.0, 10.0]
    got = chain_mixing(cfg, n_steps, points, n_seeds, RngStream(seed))
    want = _phase_fold_mixing(cfg, n_steps, points, n_seeds, RngStream(seed))
    assert np.all(np.abs(got - want) <= 1.0 / n_seeds + 1e-12)
    assert np.all(got[want == 0.0] == 0.0)


def test_mixing_validation():
    cfg = _cfg(Model.I, alpha1=0.5, energy=1.0)
    with pytest.raises(ValueError, match="Model I"):
        chain_mixing(CONFIGS["II"], 5, [0.0, 1.0], 10, RngStream(1))
    with pytest.raises(ValueError):
        chain_mixing(cfg, 5, [0.0], 10, RngStream(1))
    with pytest.raises(ValueError):
        chain_mixing(cfg, 0, [0.0, 1.0], 10, RngStream(1))
    with pytest.raises(ValueError):
        chain_mixing(cfg, 5, [0.0, 1.0], 1, RngStream(1))
