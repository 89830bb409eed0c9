"""Stream splitting and the heavy-tailed samplers.

The distributional checks pin the samplers against closed-form CDFs and the
Laplace transform of the one-sided stable family; everything else is about
reproducibility of the stream tree.
"""
import inspect
import math

import numpy as np
import pytest

import heavykp
from heavykp.rng import (
    RngStream,
    _SIGN_ROWS,
    _frechet_in_place,
    _philox_keys,
    draw_block,
    sample_bump_height,
    sample_gap_length,
    sample_stable_oracle,
    split_ids,
    split_stream,
)
from heavykp.stats import ks_distance
from reference import frechet_cdf, frechet_tail, splitmix_child


# ── Streams ──────────────────────────────────────────────────────────────────


def test_same_stream_reproduces():
    a = RngStream(12345).generator().random(100)
    b = RngStream(12345).generator().random(100)
    assert np.array_equal(a, b)


def test_different_streams_differ():
    a = RngStream(12345, stream_id=0).generator().random(100)
    b = RngStream(12345, stream_id=1).generator().random(100)
    assert not np.array_equal(a, b)


def test_split_is_pure_function():
    parent = RngStream(7, stream_id=99)
    assert split_stream(parent, 3) == split_stream(parent, 3)
    assert split_stream(parent, 3) != split_stream(parent, 4)


def test_split_children_pairwise_distinct():
    parent = RngStream(2024)
    ids = {split_stream(parent, i).stream_id for i in range(5000)}
    assert len(ids) == 5000


def test_split_negative_index_rejected():
    with pytest.raises(ValueError):
        split_stream(RngStream(1), -1)


def test_draw_prefix_stability():
    # block draws of different sizes share their common prefix; acceptance
    # criteria 06 and 07, which read n = 100 off shorter sweeps of the same
    # streams, rely on this
    g1 = RngStream(55).generator()
    g2 = RngStream(55).generator()
    long = g1.random(1000)
    short = g2.random(400)
    assert np.array_equal(long[:400], short)


# ── Bulk seed blocks against generator() ────────────────────────────────────

# master seeds around the one- and two-word entropy boundaries, and past 2**64
# (generator() takes the seed modulo 2**64)
BLOCK_SEEDS = [0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 5, -3]
# stream ids around the one- and two-word spawn-key boundary
EDGE_IDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


def _generator_key(seed, stream_id):
    return RngStream(seed, stream_id).generator().bit_generator.state["state"]["key"]


def test_philox_keys_match_generator():
    rng = np.random.default_rng(20261018)
    random_ids = rng.integers(0, 2**64, size=2000, dtype=np.uint64, endpoint=False)
    checked = 0
    for seed in BLOCK_SEEDS:
        ids = np.concatenate([np.array(EDGE_IDS, dtype=np.uint64), random_ids])
        keys = _philox_keys(seed, ids)
        assert keys.shape == (ids.size, 2) and keys.dtype == np.uint64
        for key, stream_id in zip(keys, ids.tolist()):
            assert np.array_equal(key, _generator_key(seed, stream_id)), (seed, stream_id)
            checked += 1
    assert checked == 8 * 2005
    # plain ints are taken modulo 2**64, like generator() does
    assert np.array_equal(_philox_keys(5, [-1, 2**64 + 3]), _philox_keys(5, [2**64 - 1, 3]))


@pytest.mark.parametrize("stream_id", EDGE_IDS + [12345])
def test_split_ids_match_split_stream(stream_id):
    # both against the SplitMix64 child rule in Python ints (tests/reference.py)
    parent = RngStream(77, stream_id=stream_id)
    for lo, hi in ((0, 40), (3, 9), (1000, 1003)):
        ids = split_ids(parent, lo, hi)
        assert ids.dtype == np.uint64
        want = [splitmix_child(stream_id, i) for i in range(lo, hi)]
        assert ids.tolist() == want
        assert [split_stream(parent, i) for i in range(lo, hi)] == [
            RngStream(77, child) for child in want]
    assert split_ids(parent, 5, 5).size == 0
    for task_index in (-1, -2**40):
        with pytest.raises(ValueError, match="task_index must be nonnegative"):
            split_ids(parent, task_index, 2)
        with pytest.raises(ValueError, match="task_index must be nonnegative"):
            split_stream(parent, task_index)


@pytest.mark.parametrize("seed", BLOCK_SEEDS)
def test_draw_block_matches_generator(seed):
    # each row equals the samplers, then the signs, on that stream's own
    # generator(): uniforms, the Frechet transform and the sign draws
    heights, gaps = 0.45, 0.7
    parent = RngStream(seed, stream_id=2**33 + 1)
    for lo, hi, n in ((0, 5, 64), (6, 9, 37), (250, 251, 1)):
        ids = split_ids(parent, lo, hi)
        x, y, eps = draw_block(seed, ids, n, heights=heights, gaps=gaps, signs=True)
        (u,) = draw_block(seed, ids, n, gaps=gaps)
        for r, i in enumerate(range(lo, hi)):
            gen = split_stream(parent, i).generator()
            assert np.array_equal(x[r], sample_bump_height(heights, gen, size=n))
            assert np.array_equal(y[r], sample_gap_length(gaps, gen, size=n))
            assert np.array_equal(eps[r], gen.integers(0, 2, size=n))
            gen = split_stream(parent, i).generator()
            assert np.array_equal(u[r], sample_gap_length(gaps, gen, size=n))
    ids = EDGE_IDS
    (z,) = draw_block(seed, ids, 16, heights=heights)
    for r, stream_id in enumerate(ids):
        gen = RngStream(seed, stream_id).generator()
        assert np.array_equal(z[r], sample_bump_height(heights, gen, size=16))


@pytest.mark.parametrize("n", [7, 64])
def test_draw_block_signs_across_word_groups(n):
    # the signs come from raw words, a group of streams at a time: rows on
    # both sides of every group boundary match gen.integers(0, 2), for odd
    # n (the last word's high half dropped) and even n
    parent = RngStream(5)
    m = 2 * _SIGN_ROWS + 5
    _, eps = draw_block(parent.seed, split_ids(parent, 0, m), n, gaps=0.7, signs=True)
    assert eps.shape == (m, n) and eps.dtype == np.int64
    for r in range(m):
        gen = split_stream(parent, r).generator()
        gen.random(n)
        assert np.array_equal(eps[r], gen.integers(0, 2, size=n)), r


def test_draw_block_floors_and_overflows_like_the_samplers():
    # alpha = 0.02 sends the largest heights to inf; both paths agree on them
    parent = RngStream(11)
    with np.errstate(over="ignore"):
        (x,) = draw_block(parent.seed, split_ids(parent, 0, 40), 128, heights=0.02)
        want = np.array([sample_bump_height(0.02, split_stream(parent, i).generator(), size=128)
                         for i in range(40)])
    assert np.isinf(want).any()
    assert np.array_equal(x, want)


# ── Frechet transform ────────────────────────────────────────────────────────


def _frechet(alpha, u):
    z = np.array(u, dtype=float)
    _frechet_in_place(alpha, z)
    return z


def test_frechet_transform_unit_point():
    # u = e^{-1} maps to z = 1 for every tail index
    for alpha in (0.02, 0.3, 0.5, 0.9):
        assert _frechet(alpha, [math.exp(-1.0)])[0] == pytest.approx(1.0, rel=1e-12)


def test_frechet_transform_known_value():
    # u = e^{-4}, alpha = 1/2: z = 4^{-2} = 1/16
    assert _frechet(0.5, [math.exp(-4.0)])[0] == pytest.approx(0.0625, rel=1e-12)


def test_frechet_transform_floors_zero_uniform():
    z0, zf = _frechet(0.5, [0.0, 2.0 ** -64])
    assert z0 == zf and z0 > 0.0


def test_frechet_tail_cdf_complement():
    z = np.array([0.01, 0.5, 1.0, 3.0, 10.0, 1e4])
    total = frechet_tail(0.5, z) + frechet_cdf(0.5, z)
    assert np.allclose(total, 1.0, rtol=0, atol=1e-15)
    assert frechet_cdf(0.5, 0.0) == 0.0
    assert frechet_cdf(0.5, -3.0) == 0.0


def test_frechet_sample_matches_cdf():
    gen = RngStream(88).generator()
    z = sample_gap_length(0.5, gen, size=10_000)
    grid = np.sort(z)
    emp = np.arange(1, grid.size + 1) / grid.size
    dev = np.abs(emp - frechet_cdf(0.5, grid))
    assert dev.max() < 0.02


def test_bump_height_is_squared_frechet():
    # X = Z^2 gives P(X <= x) = exp(-x^{-alpha/2})
    gen = RngStream(89).generator()
    x = sample_bump_height(0.5, gen, size=20_000)
    grid = np.sort(x)
    emp = np.arange(1, grid.size + 1) / grid.size
    dev = np.abs(emp - frechet_cdf(0.25, grid))
    assert dev.max() < 0.015


def test_bump_height_median():
    # median of X: Z_med = (ln 2)^{-2}, X_med = (ln 2)^{-4}
    gen = RngStream(90).generator()
    x = sample_bump_height(0.5, gen, size=100_000)
    assert np.median(x) == pytest.approx(math.log(2.0) ** -4, rel=0.05)


def test_gap_length_matches_cdf():
    gen = RngStream(91).generator()
    y = sample_gap_length(0.7, gen, size=20_000)
    grid = np.sort(y)
    emp = np.arange(1, grid.size + 1) / grid.size
    assert np.abs(emp - frechet_cdf(0.7, grid)).max() < 0.015


def test_alpha_outside_unit_interval_refused():
    # a tail index outside (0, 1) is refused in either role of draw_block
    # and by every sampler
    for alpha in (0.0, 1.0, 1.2, math.nan):
        for role in ("heights", "gaps"):
            with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
                draw_block(3, [0, 1], 4, **{role: alpha})
        for sampler in (sample_bump_height, sample_gap_length, sample_stable_oracle):
            with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
                sampler(alpha, RngStream(1).generator(), 4)


def test_rng_surface_is_pinned():
    # plain tail indices in, one sampler per role, and the draw order as
    # draw_block's keywords; the law objects are gone
    def parameters(fn):
        return list(inspect.signature(fn).parameters)

    assert parameters(draw_block) == ["seed", "stream_ids", "n", "heights", "gaps", "signs"]
    for sampler in (sample_bump_height, sample_gap_length, sample_stable_oracle):
        assert parameters(sampler) == ["alpha", "gen", "size"]
    for name in ("TailLaw", "TailKind"):
        assert not hasattr(heavykp, name)
        assert not hasattr(heavykp.rng, name)
    assert not hasattr(heavykp.ModelConfig, "bump_law")
    assert not hasattr(heavykp.ModelConfig, "gap_law")


# ── Stable oracle ────────────────────────────────────────────────────────────


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.7])
def test_stable_oracle_laplace_transform(alpha):
    # E[exp(-s S)] = exp(-s^alpha); the strongest pointwise pin available
    gen = RngStream(404).generator()
    s_vals = (0.5, 1.0, 2.0, 4.0)
    samples = sample_stable_oracle(alpha, gen, size=200_000)
    for s in s_vals:
        emp = np.exp(-s * samples).mean()
        assert emp == pytest.approx(math.exp(-s ** alpha), abs=0.005)


def test_stable_oracle_half_is_levy():
    # alpha = 1/2 is the Levy law with CDF erfc(1/(2 sqrt(x))); median 1.0991
    gen = RngStream(405).generator()
    samples = sample_stable_oracle(0.5, gen, size=100_000)
    assert np.median(samples) == pytest.approx(1.0990983, abs=0.03)


def test_stable_oracle_positive():
    gen = RngStream(406).generator()
    samples = sample_stable_oracle(0.9, gen, size=10_000)
    assert np.all(samples > 0.0)


def test_stable_doubling_of_frechet_sums():
    # partial sums of Frechet(alpha) normalized by n^{1/alpha} converge:
    # n vs 4n should be close in KS distance already at moderate n
    alpha = 0.5
    gen = RngStream(407).generator()
    n, reps = 256, 4000
    s_small = sample_gap_length(alpha, gen, size=(reps, n)).sum(axis=1) / n ** (1 / alpha)
    s_big = sample_gap_length(alpha, gen, size=(reps, 4 * n)).sum(axis=1) / (4 * n) ** (1 / alpha)
    assert ks_distance(s_small, s_big) < 0.05
