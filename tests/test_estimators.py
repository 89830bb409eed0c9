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
              chain_trace alike.
    x         bit-identical to the chain's piece boundaries, as chain_trace
              reports them.

chain_trace walks one chain with walk_chain and is checked against the same
oracles, and against the sweep's record of the same seed.
"""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heavykp.estimators as estimators
import heavykp.prufer as prufer
from heavykp.estimators import (
    chain_mixing,
    chain_trace,
    darling_ratio,
    nonlinear_normalizers,
    sweep_chains,
)
from heavykp.potentials import Model, ModelConfig, _draw_blocks, generate
from heavykp.prufer import (
    PruferState,
    _unwind_boundaries,
    advance_interval,
    boundary_theta,
    phase_fold,
    walk_chain,
)
from heavykp.rng import RngStream, sample_bump_height, sample_gap_length, split_ids, split_stream
from heavykp.stats import _ks_distances, ks_distance, mean_ci
from heavykp.transfer import BatchProducts, EnergyFrame, SaturationError, push_piece
from reference import exact_ks

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
    n_seeds = 4
    for n_bumps in (20, 60):
        rec = sweep_chains(cfg, n_bumps, n_seeds, parent, want_theta=True, want_log_norm=True)
        products = _product_log_norms(cfg, n_bumps, n_seeds, parent)
        for i in range(n_seeds):
            child = split_stream(parent, i)
            thetas = _scalar_thetas(cfg, n_bumps, child)
            trace = chain_trace(cfg, n_bumps, child)
            assert rec.x[i] == trace.x[-1]
            for got in (rec.theta[i], trace.theta[-1]):
                assert got / _PI == pytest.approx(thetas[n_bumps] / _PI, rel=1e-11, abs=1e-11)
            for got in (rec.log_norm[i], trace.log_norm[-1]):
                assert got == pytest.approx(products[n_bumps, i], rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("name", ["I", "II", "III"])
def test_sweep_checkpoints_consistent_with_shorter_sweep(name):
    # single-block models draw one array per seed, so a 50-bump sweep walks
    # the first 50 bumps of the 200-bump chains on the same stream: it
    # matches the 200-bump traces after bump 50, x bit for bit (criteria 06
    # and 07 read n = 100 off a shorter sweep for this reason; model IV's
    # three stacked blocks shift positions, so the property is deliberately
    # not claimed there)
    cfg = CONFIGS[name]
    parent = RngStream(8421)
    short = sweep_chains(cfg, 50, 6, parent, want_theta=True, want_log_norm=True)
    for i in range(6):
        trace = chain_trace(cfg, 200, split_stream(parent, i))
        x, theta, ln = trace.x[49], trace.theta[49], trace.log_norm[49]
        assert short.x[i] == x
        assert abs(short.log_norm[i] - ln) <= LOG_NORM_TOL * max(1.0, abs(ln))
        assert abs(short.theta[i] - theta) <= THETA_TOL * max(1.0, abs(theta))


@pytest.mark.parametrize("name", ["I", "II", "III"])
def test_chain_trace_prefix_is_the_shorter_trace(name):
    # on the single-block models the first 50 bumps of a 200-bump chain are
    # the 50-bump chain of the same stream, and its trace the same bits
    cfg = CONFIGS[name]
    for i in range(3):
        child = split_stream(RngStream(8421), i)
        long, short = chain_trace(cfg, 200, child), chain_trace(cfg, 50, child)
        for field in ("x", "theta", "log_norm"):
            got, want = getattr(long, field), getattr(short, field)
            assert got.shape == (200,) and want.shape == (50,)
            assert got[:50].tobytes() == want.tobytes(), (field, i)


# ── Sweep against the chain-walk and product oracles ────────────────────────


def _chain(cfg: ModelConfig, n_bumps: int, stream: RngStream, edit=None):
    """(values, lengths) of the generated chain, passed through edit(values, lengths) if given."""
    real = generate(cfg, n_bumps, stream)
    values, lengths = real.values.copy(), real.lengths.copy()
    if edit is not None:
        edit(values, lengths)
    return values, lengths


def _walk_thetas(cfg: ModelConfig, n_bumps: int, stream: RngStream, edit=None) -> np.ndarray:
    """walk_chain's theta after each bump (index 0 = start) of the generated chain."""
    frame = cfg.frame()
    thetas, _ = walk_chain(*_chain(cfg, n_bumps, stream, edit), frame,
                           boundary_theta(cfg.theta0, frame))
    return thetas[_bump_ends(cfg, n_bumps)]


def _walk_log_norm(cfg: ModelConfig, n_bumps: int, stream: RngStream, edit=None) -> float:
    """log||M|| of the generated chain from walk_chain's columns M e1 and M e2."""
    values, lengths = _chain(cfg, n_bumps, stream, edit)
    log_e1, log_e2 = (walk_chain(values, lengths, cfg.frame(), t)[1][-1] for t in (0.5 * _PI, 0.0))
    return 0.5 * np.logaddexp(2.0 * log_e1, 2.0 * log_e2)


def _check_against_oracles(cfg: ModelConfig, n_bumps: int, n_seeds: int,
                           parent: RngStream) -> None:
    rec = sweep_chains(cfg, n_bumps, n_seeds, parent, want_theta=True, want_log_norm=True)
    products = _product_log_norms(cfg, n_bumps, n_seeds, parent)
    for i in range(n_seeds):
        child = split_stream(parent, i)
        want = _walk_thetas(cfg, n_bumps, child)[-1]
        trace = chain_trace(cfg, n_bumps, child)
        ln = products[-1, i]
        for got in (rec.theta[i], trace.theta[-1]):
            assert abs(got - want) <= THETA_TOL * max(1.0, abs(want)), (n_bumps, i)
        for got in (rec.log_norm[i], trace.log_norm[-1]):
            assert abs(got - ln) <= LOG_NORM_TOL * max(1.0, abs(ln)), (n_bumps, i)
        # the trace's last entries are the sweep's record of the seed
        assert rec.x[i] == trace.x[-1]
        assert abs(rec.theta[i] - trace.theta[-1]) <= THETA_TOL * max(1.0, abs(want))
        assert abs(rec.log_norm[i] - trace.log_norm[-1]) <= LOG_NORM_TOL * max(1.0, abs(ln))


ORACLE_CONFIGS = {
    "I": _cfg(Model.I, alpha1=0.5, energy=2.0, theta0=1.1),
    "II": _cfg(Model.II, alpha1=0.5, energy=-0.7, theta0=1.1),
    "III": _cfg(Model.III, alpha2=0.6, energy=0.3, theta0=1.1),
    "IV": _cfg(Model.IV, alpha1=0.5, alpha2=0.6, energy=1.0, theta0=1.1),
}


@pytest.mark.parametrize("budget", ["default", "short"])
@pytest.mark.parametrize("name", ["I", "II", "III", "IV"])
def test_sweep_matches_walk_and_product_oracles(name, budget, monkeypatch):
    # sweeps that end on both sides of a segment boundary, and n = 1000:
    # the default segments of 9 seeds (910 bumps), or 37-bump segments (a
    # boundary every 37)
    n_seeds = 9
    if budget == "short":
        n_seeds = 4
        monkeypatch.setattr(estimators, "_SEGMENT_ELEMENTS", 37 * n_seeds)
    seg = estimators._segment_length(n_seeds)
    assert seg < 1000
    for n_bumps in [c for c in (seg - 1, seg, seg + 1, 2 * seg + 1) if c < 1000] + [1000]:
        _check_against_oracles(ORACLE_CONFIGS[name], n_bumps, n_seeds,
                               RngStream(55, stream_id=3))


# the log-norm lanes M v0 and M v0' off the coordinate axes: v0 is neither
# e1 nor e2 at these boundary phases
_OFF_AXIS_CONFIGS = {
    f"{name}-lam{energy:g}-theta{theta0:g}": _cfg(model, energy=energy, theta0=theta0, **kw)
    for theta0 in (0.7, 2.9)
    for name, model, kw, energies in (
        ("I", Model.I, {"alpha1": 0.5}, (1.0,)),
        ("II", Model.II, {"alpha1": 0.5}, (1.0, -1.0)),
        ("III", Model.III, {"alpha2": 0.6}, (1.0,)),
        ("IV", Model.IV, {"alpha1": 0.5, "alpha2": 0.6}, (1.0, -1.0)))
    for energy in energies
}


@pytest.mark.parametrize("name", _OFF_AXIS_CONFIGS)
def test_sweep_log_norm_lanes_off_the_axes(name):
    # ||M||**2 = |M v0|**2 + |M v0'|**2 for any orthonormal v0, v0'
    cfg = _OFF_AXIS_CONFIGS[name]
    for n_bumps in (37, 1000):
        _check_against_oracles(cfg, n_bumps, 4, RngStream(61, stream_id=2))


def test_sweep_gap_models_at_nonpositive_energy():
    # gaps at lam <= 0 are ordinary hyperbolic (lam < 0) or degenerate
    # (lam = 0) pieces of the walk; model IV accepts any real energy
    for energy in (-0.7, 0.0):
        cfg = _cfg(Model.IV, alpha1=0.5, alpha2=0.5, energy=energy)
        for n_bumps in (150, 300):
            _check_against_oracles(cfg, n_bumps, 3, RngStream(1))
    # bumps heavy enough that many steps take x*x + y*y past float range
    cfg = _cfg(Model.IV, alpha1=0.2, alpha2=0.5, energy=-1.0)
    _check_against_oracles(cfg, 200, 64, RngStream(5))


# (energy, theta0, seed) of model IV chains drawn from RngStream(2024) in
# which a gap of length l with sqrt(-lam) l past about 18.4 meets the walked
# vector on its contracting direction: expm1(-2a) rounds to -1, the gap's
# factored matrix is [[1, 1], [1, 1]] / 2, and the vector maps to exactly 0.
# Seeds 44 and 23 once divided by that 0, seed 46 handed the well after the
# gap to the dead-direction arithmetic, whose sqrt(-u) failed.  At seed 62
# the gap-bump product maps the vector to a rounding-size one, not to 0, so
# only a check of the gap itself finds the step; without it theta is off by pi
_DEAD_GAP_CHAINS = [(-4.736, 2.710859123055398, 44), (-4.77, 2.71221454141428, 23),
                    (-4.77, 2.71221454141428, 46), (-4.77, 2.71221454141428, 62)]


@pytest.mark.parametrize("energy, theta0, seed", _DEAD_GAP_CHAINS)
def test_sweep_walks_a_gap_that_annihilates_its_vector(energy, theta0, seed):
    # every lane set matches chain_trace, with no 0/0 or other invalid
    # operation left in the lane walk or in the theta lane's gap recovery
    cfg = _cfg(Model.IV, alpha1=0.5, alpha2=0.6, energy=energy, theta0=theta0)
    want = chain_trace(cfg, 40, split_stream(RngStream(2024), seed))
    theta, log_norm = want.theta[-1], want.log_norm[-1]
    for want_theta, want_log_norm in ((True, False), (False, True), (True, True)):
        with np.errstate(divide="raise", invalid="raise"):
            rec = sweep_chains(cfg, 40, 1, RngStream(2024), first_seed=seed,
                               want_theta=want_theta, want_log_norm=want_log_norm)
        if want_theta:
            assert abs(rec.theta[0] - theta) <= THETA_TOL * max(1.0, abs(theta))
        if want_log_norm:
            assert abs(rec.log_norm[0] - log_norm) <= LOG_NORM_TOL * max(1.0, abs(log_norm))


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
    for n_bumps in (13, 40):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimators, "_SEGMENT_ELEMENTS", 3 * 7)  # 7-bump segments
            rec = sweep_chains(cfg, n_bumps, 3, parent, want_theta=True)
        for i in range(3):
            got, want = rec.theta[i], _walk_thetas(cfg, n_bumps, split_stream(parent, i))[-1]
            assert abs(got - want) <= THETA_TOL * max(1.0, abs(want))


def test_segment_length_has_a_floor_of_four_bumps():
    # blocks of up to 2048 seeds keep the element budget's length
    assert estimators._SEGMENT_ELEMENTS // 2048 == 4
    for n_seeds in (1, 8, 256, 700, 768, 1000, 2048):
        assert estimators._segment_length(n_seeds) == estimators._SEGMENT_ELEMENTS // n_seeds
    for n_seeds in (2049, 3000, 4096, 10**6):
        assert estimators._segment_length(n_seeds) == 4


_SEGMENT_CONFIGS = dict({
    f"{name}-{a}": cfg
    for a in (0.3, 0.7)
    for name, cfg in (("I", _cfg(Model.I, alpha1=a, energy=2.0, theta0=0.4)),
                      ("II", _cfg(Model.II, alpha1=a, energy=1.0, theta0=0.4)),
                      ("III", _cfg(Model.III, alpha2=a, energy=2.0, theta0=0.4)),
                      ("IV", _cfg(Model.IV, alpha1=a, alpha2=a, energy=1.0, theta0=0.4)))
}, **{
    # these two wind a share of the chains past 2**53 in 30 bumps
    "II-0.1": _cfg(Model.II, alpha1=0.1, energy=1.0, theta0=0.4),
    "IV-0.1-0.3": _cfg(Model.IV, alpha1=0.1, alpha2=0.3, energy=1.0, theta0=0.4),
})


@pytest.mark.parametrize("cfg", _SEGMENT_CONFIGS.values(), ids=_SEGMENT_CONFIGS.keys())
def test_sweep_records_do_not_depend_on_segment_length(cfg, monkeypatch):
    # 1-bump segments against the 8-bump segments of a 1000-seed block:
    # every record is the same bytes, past |theta| = 2**53 too
    n_seeds = 1000
    assert estimators._segment_length(n_seeds) == 8

    def sweeps():
        return [sweep_chains(cfg, n_bumps, n_seeds, RngStream(808), want_theta=True,
                             want_log_norm=True) for n_bumps in (1, 6, 9, 30)]

    default = sweeps()
    monkeypatch.setattr(estimators, "_segment_length", lambda n_seeds: 1)
    single = sweeps()
    assert (np.abs(default[-1].theta) >= 2.0 ** 53).any() == (cfg.alpha1 == 0.1)
    for rec, other in zip(default, single):
        for name in ("x", "theta", "log_norm"):
            assert getattr(rec, name).tobytes() == getattr(other, name).tobytes()


_SPLIT_CONFIGS = dict(CONFIGS, **{"II-0.1": _cfg(Model.II, alpha1=0.1, energy=1.0)})


@pytest.mark.parametrize("name", _SPLIT_CONFIGS)
def test_sweep_in_two_blocks_equals_one_whole_sweep(name):
    # seeds 0..1023 and 1024..1499 swept apart, as the runner's blocks are,
    # against one 1500-seed sweep of other segment lengths (8, 17 against 5):
    # the same bytes, past |theta| = 2**53 too.  alpha1 = 0.1 winds two
    # thirds of the chains past that in 40 bumps
    cfg = _SPLIT_CONFIGS[name]
    stream = RngStream(4242)

    def sweep(n_seeds, first_seed=0):
        return sweep_chains(cfg, 40, n_seeds, stream, first_seed=first_seed, want_theta=True,
                            want_log_norm=True)

    whole = sweep(1500)
    parts = (sweep(1024), sweep(476, first_seed=1024))
    for field in ("x", "theta", "log_norm"):
        assert (np.concatenate([getattr(p, field) for p in parts]).tobytes()
                == getattr(whole, field).tobytes())
    if name == "II-0.1":
        assert (np.abs(whole.theta) >= 2.0 ** 53).mean() > 0.5


def test_sweep_bytes_do_not_depend_on_blocks_or_segments(monkeypatch):
    # model II at alpha1 = 0.02 winds every finite chain far past 2**53 and
    # feeds some an infinite height: three ways of cutting 1500 seeds into
    # calls, each at three segment lengths, give the same bytes, NaN at the
    # same places.  One-seed calls add each seed's turns in order too
    cfg = _cfg(Model.II, alpha1=0.02, energy=1.0, theta0=0.4)
    stream = RngStream(4242)
    partitions = ([1500], [1024, 476], [1] * 40 + [1460])
    records = []
    for seg in (None, 1, 13):
        if seg is not None:
            monkeypatch.setattr(estimators, "_segment_length", lambda n_seeds: seg)
        for sizes in partitions:
            starts = np.cumsum([0] + sizes[:-1])
            with np.errstate(all="ignore"):
                parts = [sweep_chains(cfg, 40, size, stream, first_seed=int(lo), want_theta=True)
                         for lo, size in zip(starts, sizes)]
            records.append(np.concatenate([p.theta for p in parts]))
    first = records[0]
    finite = np.isfinite(first)
    assert 0 < np.isnan(first).sum() and np.all(np.abs(first[finite]) >= 2.0 ** 53)
    for theta in records[1:]:
        assert _same_bits(theta, first)


def _same_bits(got, want) -> bool:
    """Equal bit for bit, NaN at the same places (its payload aside)."""
    nan = np.isnan(want)
    return np.array_equal(np.isnan(got), nan) and got[~nan].tobytes() == want[~nan].tobytes()


def _interleaved_thetas(vecs, gap, values, gaps, lam, k, start):
    """theta after every bump, (bumps, seeds), from one 1-D run per seed over all
    its pieces, gaps and bumps interleaved."""
    p, q = vecs[:, 0, 0], vecs[:, 1, 0]
    if gap is None:
        psi, psik, piece_v, lengths = p, q, values, np.ones_like(values)
        after_bump = slice(1, None)
    else:
        nj = gaps.shape[0]
        gc, gb, ge, _ = gap
        gp = gc * p[:-1] + gb * q[:-1]
        gq = ge * p[:-1] + gc * q[:-1]
        size = np.maximum(np.abs(gp), np.abs(gq))
        psi = np.empty((2 * nj + 1,) + p.shape[1:])
        psik = np.empty_like(psi)
        psi[0::2], psi[1::2] = p, gp / size
        psik[0::2], psik[1::2] = q, gq / size
        piece_v = np.zeros((2 * nj,) + p.shape[1:])
        piece_v[1::2] = values
        lengths = np.ones((2 * nj,) + p.shape[1:])
        lengths[0::2] = gaps
        after_bump = slice(2, None, 2)
    starts = np.broadcast_to(start, p.shape[1:])
    return np.stack([
        _unwind_boundaries(*(np.ascontiguousarray(a[:, s]) for a in (psi, psik, piece_v, lengths)),
                           lam, k, starts[s])[after_bump]
        for s in range(p.shape[1])], axis=1)


# (draws, lam): model III's config needs energy > 0, but its pieces unwind
# at any lam
_UNWIND_CASES = {
    "III-lam1": (_cfg(Model.III, alpha2=0.6), 1.0),
    "III-lam0": (_cfg(Model.III, alpha2=0.6), 0.0),
    "III-lam2": (_cfg(Model.III, alpha2=0.6), 2.0),
    "IV-lam1": (_cfg(Model.IV, alpha1=0.5, alpha2=0.6), 1.0),
    "IV-lam0": (_cfg(Model.IV, alpha1=0.5, alpha2=0.6), 0.0),
    "IV-lam-0.7": (_cfg(Model.IV, alpha1=0.5, alpha2=0.6), -0.7),
    "IV-inf": (_cfg(Model.IV, alpha1=0.02, alpha2=0.6), 1.0),
    "I": (_cfg(Model.I, alpha1=0.5), 2.0),
    "II-inf": (_cfg(Model.II, alpha1=0.02), 1.0),
}


@pytest.mark.parametrize("cfg, lam", _UNWIND_CASES.values(), ids=_UNWIND_CASES.keys())
def test_two_run_unwind_equals_one_interleaved_run(cfg, lam):
    # the gap pieces and the bump pieces unwound as two runs, their turns
    # added per step, against one run over the interleaved boundaries
    k = math.sqrt(abs(lam)) if lam != 0.0 else 1.0
    n, n_seeds = 40, 64
    th0 = 0.4
    with np.errstate(all="ignore"):
        value_blk, gap_blk = _draw_blocks(cfg, 9, list(range(n_seeds)), n)
        values, gaps = estimators._columns(value_blk, 0, n), estimators._columns(gap_blk, 0, n)
        lanes = estimators._LaneWalk([(math.sin(th0), math.cos(th0))], n, n_seeds, value_blk,
                                     lam, k)
        _, gap, _ = lanes.walk(n, values, gaps)
        angles, turns = estimators._unwind_segment(lanes.vecs, gap, values, gaps, lam, k)
        # the turns of the pieces up to each bump, added in piece order
        sums = np.add.accumulate(turns, axis=0)[turns.shape[0] // n - 1::turns.shape[0] // n]
        got = angles + 2.0 * _PI * sums
        # the interleaved run started at the entering vector's own angle
        start = np.arctan2(lanes.vecs[0, 0, 0], lanes.vecs[0, 1, 0])
        want = _interleaved_thetas(lanes.vecs, gap, values, gaps, lam, k, start)
        assert _same_bits(got, want)
    # lanes fed an infinite height turn NaN, the others stay finite
    assert np.isnan(want).any() == (cfg.alpha1 == 0.02)
    assert not np.isnan(want[-1]).all()


@pytest.mark.parametrize("lam", [1.0, 2.0, 0.3, 7e-5])
def test_rotation_turns_equal_the_conjugate_angle_turns(lam):
    # a zero-potential gap at lam > 0 rotates the vector by omega l, so its
    # whole turns come from the two boundary angles alone: on random
    # entering vectors and their images under the gap, omega l from 1e-6
    # to 1e12, the same floats as the conjugate-angle rule of _piece_turns
    k = math.sqrt(lam)
    rng = np.random.default_rng(29)
    shape = (40, 256)  # (gaps, seeds)
    lengths = 10.0 ** rng.uniform(-6.0, 12.0, shape) / k
    angle = rng.uniform(-_PI, _PI, shape)
    p, q = np.sin(angle), np.cos(angle)
    size = np.maximum(np.abs(p), np.abs(q))
    p, q = p / size, q / size
    gc, gb, ge, _ = estimators._piece_entries_batch(0.0, lengths, lam, k)
    gp, gq = gc * p + gb * q, ge * p + gc * q
    size = np.maximum(np.abs(gp), np.abs(gq))
    gp, gq = gp / size, gq / size
    before = (p, q, np.arctan2(p, q))
    after = (gp, gq, np.arctan2(gp, gq))
    want = prufer._piece_turns(before, after, 0.0, lengths, lam, k)
    got = prufer._rotation_turns(before[2], after[2], lengths, lam)
    assert got.tobytes() == want.tobytes()
    assert np.abs(want).max() > 1e10


def test_sweep_working_set_stays_near_its_measured_peak():
    # tracemalloc's peak over one model IV sweep of 256 seeds x 1024 bumps
    # with theta and log norm lanes: 7.20 MB measured with numpy 2.4, in the
    # walk segments (the seed draw peaks at 6.33 MB), bounded here at 7.7
    # MB.  A larger segment budget shows: 10240 elements peak at 7.99 MB,
    # 12288 at 8.76 MB
    cfg = _cfg(Model.IV, alpha1=0.5, alpha2=0.6)
    sweep_chains(cfg, 64, 16, RngStream(1), want_theta=True, want_log_norm=True)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        sweep_chains(cfg, 1024, 256, RngStream(1), want_theta=True, want_log_norm=True)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 7.7 * 2**20, peak / 2**20


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
        heights = np.array([sample_bump_height(cfg.alpha1, split_stream(parent, i).generator(),
                                               size=n) for i in range(n_seeds)])
    fed_inf = np.isinf(heights).any(axis=1)
    assert 0 < fed_inf.sum() < n_seeds
    assert np.array_equal(np.isnan(res.theta), fed_inf)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SaturationError):
            sweep_chains(cfg, n, n_seeds, parent, want_log_norm=True)


def _reduced_logs(logs, gains):
    """The sweep's log-norm carry over a segment: the start added to the first gains, reduced."""
    gains = gains.copy()
    gains[0] += logs
    return np.add.reduce(gains, axis=0)


def test_nonfinite_gain_leaves_the_last_running_sum_nonfinite():
    # the sweep checks only the sum of the log gains, an axis-0 reduce:
    # inf, -inf, inf then -inf, and NaN gains all reach it
    gains = np.zeros((5, 2, 3))
    gains[1, 0, 0] = np.inf
    gains[2, 0, 1] = -np.inf
    gains[1, 1, 1], gains[3, 1, 1] = np.inf, -np.inf
    gains[4, 1, 2] = np.nan
    with np.errstate(invalid="ignore"):
        last = _reduced_logs(np.full((2, 3), 2.5), gains)
    assert np.array_equal(np.isfinite(last), np.isfinite(gains).all(axis=0))
    assert not np.isfinite(last).all() and np.isfinite(last).any()
    # and the reduce adds the rows in order: the bits of a loop of adds
    rng = np.random.default_rng(3)
    for shape in ((1, 2, 5), (7, 2, 256), (32, 2, 256), (4, 2, 2000), (33, 2, 9)):
        start = rng.normal(size=shape[1:]) * 1e3
        gains = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
        want = start
        for row in gains:
            want = want + row
        assert _reduced_logs(start, gains).tobytes() == want.tobytes()


# (V, theta0) at lam = 1: the boundary vector of theta0 lies exactly on the
# contracting direction of a unit bump of height V, whose factored matrix
# maps it to (0, 0) in floating point; hypot of that vector is exactly 1
DEAD_HEIGHT = 2256465.4763044724
DEAD_THETA0 = 3.140926942662913


# (gap length, V) at lam = 1: the gap turns the column e2 = (0, 1) onto the
# contracting direction of a unit bump of height V, and both the product of
# the two matrices and the bump's own matrix map it to (0, 0) in floating
# point, so the lane walk and walk_chain both take the dead step.  Found by
# scanning V ulp by ulp.
DEAD_E2_GAP, DEAD_E2_HEIGHT = 3.092250021336823, 411.06249999999454


def _dead_draws(monkeypatch, child: RngStream, height=DEAD_HEIGHT, gap=1e-300):
    """Make the first bump of stream child's chain height, after a gap of that length."""
    def draw(config, seed, stream_ids, n):
        values, gaps = _draw_blocks(config, seed, stream_ids, n)
        row = np.asarray(stream_ids) == child.stream_id
        assert seed == child.seed and row.sum() == 1
        values[row, 0] = height
        if gaps is not None:
            gaps[row, 0] = gap
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

    def edit(values, lengths):
        first_bump = 0 if model is Model.I else 1
        values[first_bump] = DEAD_HEIGHT
        if model is Model.IV:
            lengths[0] = 1e-300

    for nb in (1, n):
        rec = sweep_chains(cfg, nb, n_seeds, parent, want_theta=True, want_log_norm=True)
        for i in range(n_seeds):
            child, seed_edit = split_stream(parent, i), edit if i == dead else None
            want = _walk_thetas(cfg, nb, child, seed_edit)[-1]
            assert abs(rec.theta[i] - want) <= THETA_TOL * max(1.0, abs(want)), (nb, i)
            ln = _walk_log_norm(cfg, nb, child, seed_edit)
            assert abs(rec.log_norm[i] - ln) <= LOG_NORM_TOL * max(1.0, abs(ln)), (nb, i)


def test_sweep_dead_log_norm_lane(monkeypatch):
    # the first step annihilates the column M e2 of one seed: its dead step's
    # gain, not the log of its scale, goes into log|M e2|, with and without
    # theta.  From theta0 = 0 the lane M v0 is M e2, which serves theta and
    # the log norm at once, so the dead step fires once either way
    cfg = _cfg(Model.IV, alpha1=0.5, alpha2=0.6, energy=1.0)
    parent = RngStream(12)
    n_seeds, dead = 3, 1
    _dead_draws(monkeypatch, split_stream(parent, dead), DEAD_E2_HEIGHT, DEAD_E2_GAP)
    steps, walked = [], []  # the sweep's fallback pieces and the dead heights
    step_pieces, dead_direction = estimators._step_pieces, prufer._dead_direction

    def spy_step(pieces, *rest):
        steps.append(pieces)
        return step_pieces(pieces, *rest)

    def spy_direction(p, q, value, *rest):
        walked.append(value)
        return dead_direction(p, q, value, *rest)

    monkeypatch.setattr(estimators, "_step_pieces", spy_step)
    monkeypatch.setattr(prufer, "_dead_direction", spy_direction)

    def edit(values, lengths):
        values[1] = DEAD_E2_HEIGHT
        lengths[0] = DEAD_E2_GAP

    for nb in (1, 60):
        for want_theta in (False, True):
            steps.clear()
            walked.clear()
            rec = sweep_chains(cfg, nb, n_seeds, parent, want_theta=want_theta,
                               want_log_norm=True)
            assert steps == [[(0.0, DEAD_E2_GAP), (DEAD_E2_HEIGHT, 1.0)]]
            for i in range(n_seeds):
                ln = _walk_log_norm(cfg, nb, split_stream(parent, i), edit if i == dead else None)
                assert abs(rec.log_norm[i] - ln) <= LOG_NORM_TOL * max(1.0, abs(ln)), (nb, i)
            # in the sweep's lane M e2 and the walk of M e2 alone
            assert set(walked) == {DEAD_E2_HEIGHT}


@pytest.mark.parametrize("gap_length", [None, 0.3, 2.5])
def test_dead_step_gain_counts_the_entering_length(gap_length):
    # the lane walk's stored vectors are not unit vectors, so the gain of its
    # fallback step is log|M v| for the vector v it is given: doubling v adds
    # log 2 and leaves the unit vector after the step as it is.  Alone, the
    # bump annihilates the boundary vector of DEAD_THETA0 and takes the dead
    # direction; after a gap at lam > 0 (a rotation) the gap's step counts v
    lam, k = 1.0, 1.0
    pieces = [(DEAD_HEIGHT, 1.0)]
    if gap_length is not None:
        pieces.insert(0, (0.0, gap_length))
    theta = boundary_theta(DEAD_THETA0, EnergyFrame(lam))
    p, q = math.sin(theta), math.cos(theta)
    x, y, gain = prufer._step_pieces(pieces, p, q, lam, k)
    x2, y2, gain2 = prufer._step_pieces(pieces, 2.0 * p, 2.0 * q, lam, k)
    assert (x2, y2) == (x, y) and math.hypot(x, y) == pytest.approx(1.0, rel=1e-15)
    assert gain2 - gain == pytest.approx(math.log(2.0), abs=1e-12)
    if gap_length is None:
        assert gain == prufer._dead_direction(p, q, DEAD_HEIGHT, 1.0, lam, k)[2]


def test_dead_step_of_a_gap_below_zero_energy():
    # at lam = -1 a gap of length 20 has a = 20, where expm1(-2a) rounds to
    # -1: its factored matrix is [[1, 1], [1, 1]] / 2, which maps (p, -p) to
    # exactly 0, so the gap, not the well after it, takes the dead direction.
    # M (p, -p) = p exp(-20) (1, -1) exactly, and the well (u = 2 > 0) then
    # steps the unit vector as a rotation-like piece
    lam, k = -1.0, 1.0
    gap, well = (0.0, 20.0), (-3.0, 1.0)
    half = math.sqrt(0.5)
    x, y, gain = prufer._step_pieces([gap], 0.6, -0.6, lam, k)
    assert (x, y) == pytest.approx((half, -half), rel=1e-15)
    assert gain == pytest.approx(math.log(0.6 * math.sqrt(2.0)) - 20.0, rel=1e-15)
    w = math.sqrt(2.0)
    c, b, e = math.cos(w), math.sin(w) / w, -w * math.sin(w)
    want = (c * half - b * half, e * half - c * half)
    for scale in (1.0, 2.0):
        x, y, gain2 = prufer._step_pieces([gap, well], 0.6 * scale, -0.6 * scale, lam, k)
        size = math.hypot(*want)
        assert (x, y) == pytest.approx((want[0] / size, want[1] / size), rel=1e-14)
        assert gain2 == pytest.approx(gain + math.log(scale * size), rel=1e-14)


def test_joint_sweep_equals_separate_estimates_bitwise():
    # one sweep with both lane kinds gives each lane of the separate sweeps
    # byte for byte
    for cfg in (CONFIGS["II"], CONFIGS["IV"]):
        joint = sweep_chains(cfg, 300, 40, RngStream(5), want_theta=True, want_log_norm=True)
        lya = sweep_chains(cfg, 300, 40, RngStream(5), want_log_norm=True)
        ids = sweep_chains(cfg, 300, 40, RngStream(5), want_theta=True)
        assert lya.theta is None and ids.log_norm is None
        assert joint.log_norm.tobytes() == lya.log_norm.tobytes()
        assert joint.theta.tobytes() == ids.theta.tobytes()
        assert joint.x.tobytes() == lya.x.tobytes() == ids.x.tobytes()


# ── Bulk draws against the per-seed samplers ────────────────────────────────


def _per_seed_draws(cfg: ModelConfig, stream: RngStream, n: int):
    """(x, y, eps) of one chain, drawn from stream.generator() by the samplers."""
    gen = stream.generator()
    x = y = eps = None
    if cfg.model is not Model.III:
        x = sample_bump_height(cfg.alpha1, gen, size=n)
    if cfg.model in (Model.III, Model.IV):
        y = sample_gap_length(cfg.alpha2, gen, size=n)
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
        values, lengths = real.values, real.lengths
        if cfg.model is Model.I:
            assert np.array_equal(values, x) and np.all(lengths == 1.0)
        elif cfg.model is Model.II:
            assert np.array_equal(values, -x)
        elif cfg.model is Model.III:
            assert np.array_equal(lengths[0::2], y) and np.all(values[1::2] == 1.0)
        else:
            assert np.array_equal(lengths[0::2], y)
            assert np.array_equal(values[1::2], x * (1.0 - 2.0 * eps))
            assert np.array_equal(np.signbit(real.values[real.is_bump]), eps == 1)


def test_sweep_validation():
    cfg = CONFIGS["I"]
    with pytest.raises(ValueError):
        sweep_chains(cfg, 0, 2, RngStream(1))
    with pytest.raises(ValueError):
        sweep_chains(cfg, 10, 0, RngStream(1))


# ── Single-chain trace ───────────────────────────────────────────────────────


def test_traces_record_requested_bump_counts():
    # one entry per bump: x = n on model I; log norms nondecreasing in n for
    # a model I chain is not guaranteed, but positivity of the rotation is
    cfg = CONFIGS["I"]
    trace = chain_trace(cfg, 30, RngStream(3))
    assert trace.x.tolist() == [float(n) for n in range(1, 31)]
    assert trace.theta.shape == trace.log_norm.shape == (30,)
    assert np.all(trace.theta > 0.0)
    with pytest.raises(ValueError):
        chain_trace(cfg, 0, RngStream(1))


# ── Scales ───────────────────────────────────────────────────────────────────


def test_linear_scales_coincide_for_unit_spacing():
    # models I/II have x_n = n, so per-length and per-bump scales agree
    rec = sweep_chains(CONFIGS["I"], 50, 8, RngStream(12), want_log_norm=True)
    assert np.all(rec.x == 50.0)
    assert np.allclose(rec.log_norm / rec.x, rec.log_norm / 50.0, rtol=1e-12)


def test_nonlinear_normalizers():
    # alpha1 = 0.5 and alpha2 = 0.6: bumps drive the log norm (n**2) but on
    # model III, whose unit bumps leave it to L_n**alpha2; bumps drive theta
    # on models I and II, gaps on III and IV (n**(1/0.6))
    x = np.array([50.0, 123.5, 1e6])
    by_gaps = 50.0 ** (1.0 / 0.6)
    for name, lyapunov, rotation in (("I", 2500.0, 2500.0), ("II", 2500.0, 2500.0),
                                     ("III", None, by_gaps), ("IV", 2500.0, by_gaps)):
        lya, rot = nonlinear_normalizers(CONFIGS[name], 50, x)
        assert rot == rotation, name
        if lyapunov is None:
            assert lya.tolist() == [50.0 ** 0.6, 123.5 ** 0.6, 1e6 ** 0.6]
        else:
            assert lya == lyapunov, name
    assert by_gaps == pytest.approx(678.6044041487, rel=1e-12)


def test_model3_rotation_tracks_free_value():
    # sparse bumps barely perturb the free rotation: theta/(pi x) near 1/pi at k=1
    cfg = _cfg(Model.III, alpha2=0.5, energy=1.0)
    rec = sweep_chains(cfg, 500, 200, RngStream(72), want_theta=True)
    assert np.median(rec.theta / (_PI * rec.x)) == pytest.approx(1.0 / _PI, rel=0.02)


def test_model3_lyapunov_per_bump_positive():
    cfg = _cfg(Model.III, alpha2=0.5, energy=1.0)
    rec = sweep_chains(cfg, 500, 100, RngStream(73), want_log_norm=True)
    ci = mean_ci(rec.log_norm / 500.0)
    assert ci.mean - ci.half_width > 0.0
    assert 0.05 < ci.mean < 0.15


def test_model2_linear_rotation_diverges():
    # theta grows like the sum of sqrt(lam + X), a heavy-tailed pile: the
    # per-length rotation must blow up with n rather than stabilize
    cfg = CONFIGS["II"]

    def median_rotation(n):
        rec = sweep_chains(cfg, n, 100, RngStream(71), want_theta=True)
        return np.median(rec.theta / (_PI * rec.x))

    assert median_rotation(1600) > 5.0 * median_rotation(100)


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
    # an overflowed variate would make max/sum inf/inf
    with pytest.raises(SaturationError, match="row 0: variate 2 of 3 overflowed to inf"):
        darling_ratio([1.0, 2.0, np.inf])


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


@pytest.mark.parametrize("m", [2, 3, 5])
def test_lane_ks_is_ks_distance_of_every_step_and_pair(m):
    # the bulk KS of chain_mixing, steps as rows of m lanes laid end to end,
    # against the exact rational KS step by step and pair by pair: the
    # correctly rounded fractions, with ties within a lane, across lanes,
    # whole lanes collapsed onto one another, and -0.0 beside 0.0
    rng = np.random.default_rng(m)
    phases = rng.choice(np.linspace(0.0, 3.0, 25), size=(6, m, 37))
    phases[3:] = rng.random((3, m, 37))
    phases[::2, 1] = phases[::2, 0]
    phases[0, 0, :3] = -0.0
    phases[0, -1, :5] = 0.0
    got = _ks_distances(phases.reshape(6, m * 37), (37,) * m)
    assert got.shape == (6, m, m)
    for step in range(6):
        assert np.all(np.diag(got[step]) == 0.0)
        for i in range(m):
            for j in range(m):
                if i != j:
                    want = exact_ks(phases[step, i].tolist(), phases[step, j].tolist())
                    assert got[step, i, j] == float(want)


def test_a_one_count_distance_reads_exactly_one_over_n():
    # two 2000-seed samples one count apart at q = 1999 alone, where the
    # fractions 1 and 1999/2000 differ by 1/2000 only up to rounding: the
    # kernel divides the count difference once, as the exact KS rounds it
    a = np.arange(2000.0)
    b = a.copy()
    b[-1] = 1999.5
    assert float(exact_ks(a.tolist(), b.tolist())) == 1 / 2000
    got = _ks_distances(np.concatenate([a, b])[None], (2000, 2000))
    assert got[0, 0, 1] == got[0, 1, 0] == 1 / 2000


def test_mixing_refuses_phases_of_infinite_heights():
    # alpha1 = 0.02 overflows some squared Frechet heights to inf, whose
    # lanes turn NaN: the seed-empirical laws refuse them as ks_distance does
    cfg = _cfg(Model.I, alpha1=0.02, energy=0.5)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="samples must be finite"):
        chain_mixing(cfg, 100, [-1.0, 1.0], 200, RngStream(1))


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
