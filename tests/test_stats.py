"""Statistics primitives: empirical CDFs, KS distance, OLS, mean CIs."""
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import heavykp
from heavykp.stats import Ecdf, ks_distance, linear_fit, mean_ci


# ── Ecdf ─────────────────────────────────────────────────────────────────────


def test_ecdf_step_values():
    f = Ecdf.from_samples([1.0, 2.0, 2.0, 5.0])
    assert f.evaluate(0.5) == 0.0
    assert f.evaluate(1.0) == 0.25  # right-continuous: jump included at the point
    assert f.evaluate(2.0) == 0.75
    assert f.evaluate(4.9) == 0.75
    assert f.evaluate(5.0) == 1.0
    assert f.evaluate(100.0) == 1.0


def test_ecdf_vector_evaluation():
    f = Ecdf.from_samples([1.0, 2.0, 3.0])
    out = f.evaluate(np.array([0.0, 1.5, 3.0]))
    assert np.array_equal(out, np.array([0.0, 1 / 3, 1.0]))


def test_ecdf_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        Ecdf.from_samples([])
    with pytest.raises(ValueError):
        Ecdf.from_samples([1.0, math.nan])
    with pytest.raises(ValueError):
        Ecdf.from_samples([1.0, math.inf])


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


def test_ks_accepts_prebuilt_ecdf():
    a = [1.0, 2.0, 3.0]
    assert ks_distance(Ecdf.from_samples(a), a) == 0.0


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
    assert ci.level == 0.95


def test_mean_ci_level_monotone():
    vals = np.arange(20, dtype=float)
    assert mean_ci(vals, level=0.99).half_width > mean_ci(vals, level=0.9).half_width


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
    with pytest.raises(ValueError):
        mean_ci([1.0, 2.0], level=1.0)


def test_import_does_not_load_scipy():
    # the normal quantile comes from the standard library: importing the
    # package must not pull in scipy, whose import costs more than the rest
    src = os.path.dirname(os.path.dirname(os.path.abspath(heavykp.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, heavykp; print('scipy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
