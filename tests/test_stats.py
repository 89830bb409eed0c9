"""Statistics primitives: KS distance, OLS, mean CIs."""
import math

import numpy as np
import pytest

from heavykp.stats import ks_distance, linear_fit, mean_ci
from reference import exact_ks


# ── KS distance ──────────────────────────────────────────────────────────────


def test_ks_hand_computed():
    # F_a jumps at 1,2,3; F_b jumps at 1.5: sup gap is |1/3 - 1| at q = 1.5? no:
    # at q=1.5, F_a=1/3, F_b=1 -> 2/3, and that is the max
    assert ks_distance([1.0, 2.0, 3.0], [1.5]) == pytest.approx(2 / 3)


def test_ks_identical_samples_zero():
    x = np.linspace(0, 1, 50)
    assert ks_distance(x, x.copy()) == 0.0


def test_ks_symmetry_and_bounds():
    rng = np.random.default_rng(3)
    a = rng.random(200)
    b = rng.random(300) + 0.1
    d1 = ks_distance(a, b)
    d2 = ks_distance(b, a)
    assert d1 == d2
    assert 0.0 <= d1 <= 1.0


def test_ks_disjoint_supports():
    assert ks_distance([0.0, 1.0], [5.0, 6.0]) == 1.0


def test_ks_rejects_empty_and_nonfinite():
    # NaN sorts last and -inf first, so each is refused wherever it sits
    with pytest.raises(ValueError, match="at least one sample"):
        ks_distance([], [1.0])
    with pytest.raises(ValueError, match="at least one sample"):
        ks_distance([1.0], np.empty((3, 0)))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="samples must be finite"):
            ks_distance([1.0, bad, 2.0], [1.5])
        with pytest.raises(ValueError, match="samples must be finite"):
            ks_distance([1.5], [bad])


@pytest.mark.parametrize("n, b, ks", [
    # the last value moved: one count apart at q = n - 1 alone
    (40_000, np.append(np.arange(39_999.0), 40_000.5), 1 / 40_000),
    # every other value: F_b leads F_a by one count in n at each even value
    (40_000, np.arange(0.0, 40_000.0, 2.0), 1 / 40_000),
    # disjoint: c_a n_b - c_b n_a reaches n^2 > 2^31, where int32 would wrap
    (50_000, np.arange(50_000.0, 100_000.0), 1.0),
], ids=["moved", "halved", "disjoint"])
def test_ks_in_wide_counts(n, b, ks):
    # N max(n) passes 2^31, so the counts are taken in int64
    a = np.arange(float(n))
    assert n * (n + b.size) >= 2 ** 31
    assert ks_distance(a, b) == ks_distance(b, a) == ks


@pytest.mark.parametrize("na, nb", [(50, 50), (37, 53), (1, 7), (300, 301)])
def test_ks_is_the_correctly_rounded_fraction(na, nb):
    # ties within and across the samples; float() of a Fraction rounds correctly
    rng = np.random.default_rng(na * nb)
    a = rng.integers(0, 20, na).astype(float)
    b = rng.integers(3, 25, nb).astype(float)
    assert ks_distance(a, b) == float(exact_ks(a.tolist(), b.tolist()))


def test_ks_uniform_sample_against_grid():
    # classical rate: D_n ~ c/sqrt(n); 1.63/sqrt(n) is the 1% critical value
    rng = np.random.default_rng(11)
    n = 10_000
    sample = rng.random(n)
    grid = (np.arange(n) + 0.5) / n
    assert ks_distance(sample, grid) < 1.63 / math.sqrt(n)


# ── Linear fit ───────────────────────────────────────────────────────────────


def test_linear_fit_exact_line():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    fit = linear_fit(x, 2.5 * x - 1.0)
    assert fit.slope == pytest.approx(2.5, abs=1e-12)
    assert fit.intercept == pytest.approx(-1.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_linear_fit_residual_orthogonality():
    rng = np.random.default_rng(7)
    x = rng.random(100)
    y = 3.0 * x + rng.normal(size=100)
    fit = linear_fit(x, y)
    resid = y - (fit.slope * x + fit.intercept)
    # normal equations: residuals orthogonal to 1 and to x
    assert abs(resid.sum()) < 1e-8
    assert abs(resid @ x) < 1e-8
    assert 0.0 <= fit.r_squared <= 1.0


def test_linear_fit_constant_y():
    fit = linear_fit([0.0, 1.0, 2.0], [4.0, 4.0, 4.0])
    assert fit.slope == 0.0
    assert fit.r_squared == 1.0


def test_linear_fit_rejects_degenerate_input():
    with pytest.raises(ValueError):
        linear_fit([1.0], [2.0])
    with pytest.raises(ValueError):
        linear_fit([1.0, 1.0], [2.0, 3.0])
    with pytest.raises(ValueError):
        linear_fit([1.0, 2.0], [2.0])
    with pytest.raises(ValueError):
        linear_fit([1.0, 2.0], [2.0, math.nan])


# ── Mean CI ──────────────────────────────────────────────────────────────────


def test_mean_ci_two_points():
    # n=2, values {0,2}: mean 1, s = sqrt(2), half = 1.96 * sqrt(2)/sqrt(2)
    ci = mean_ci([0.0, 2.0])
    assert ci.mean == 1.0
    assert ci.half_width == pytest.approx(1.9599639845400545, rel=1e-12)


def test_mean_ci_coverage():
    # meta-test: the 95% interval should cover the true mean most of the time
    rng = np.random.default_rng(42)
    hits = 0
    for _ in range(100):
        sample = rng.normal(loc=3.0, scale=2.0, size=400)
        ci = mean_ci(sample)
        if abs(ci.mean - 3.0) <= ci.half_width:
            hits += 1
    assert 88 <= hits <= 100


def test_mean_ci_rejects_bad_input():
    with pytest.raises(ValueError):
        mean_ci([1.0])
    with pytest.raises(ValueError):
        mean_ci([1.0, math.inf])
