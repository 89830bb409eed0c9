"""Config schema: every number a config holds must be finite.

JSON's NaN and Infinity literals parse as floats, so a type test alone lets
them through; `heavykp validate` must refuse each one and name its key.
"""
import copy
import json
import math

import pytest

from heavykp import runner


def _full_config():
    """A valid config that sets every key that holds a number."""
    return {
        "experiment": "spectrum",
        "model": {"model": "IV", "energy": 1.0, "alpha1": 0.5, "alpha2": 0.6,
                  "theta0": 0.5},
        "alpha_grid": [0.5],
        "energy_grid": [1.0],
        "n_grid": [10],
        "n_seeds": 2,
        "master_seed": 1,
        "workers": 1,
        "spectrum": {"lambda_min": 0.25, "lambda_max": 1.0, "max_eigenvalues": 1,
                     "scale_exponent": 1.0},
        "mixing": {"initial_points": [-1.0, 1.0]},
    }


_NUMBER_PATHS = [
    ("model", "energy"), ("model", "alpha1"), ("model", "alpha2"), ("model", "theta0"),
    ("alpha_grid", 0), ("energy_grid", 0), ("n_grid", 0), ("n_seeds",),
    ("master_seed",), ("workers",), ("spectrum", "lambda_min"),
    ("spectrum", "lambda_max"), ("spectrum", "max_eigenvalues"),
    ("spectrum", "scale_exponent"), ("mixing", "initial_points", 0),
]


def _validate(tmp_path, where, value):
    """Exit code of `heavykp validate` on the full config with one value replaced."""
    raw = copy.deepcopy(_full_config())
    node = raw
    for step in where[:-1]:
        node = node[step]
    node[where[-1]] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))  # writes NaN and Infinity as JSON literals
    return runner.main(["validate", str(path)])


def _key(where):
    return ".".join(step for step in where if isinstance(step, str))


def test_full_config_is_valid(tmp_path):
    assert _validate(tmp_path, ("n_seeds",), 2) == 0


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", _NUMBER_PATHS, ids=lambda p: ".".join(map(str, p)))
def test_validate_refuses_non_finite_numbers_by_key(tmp_path, capsys, where, value):
    assert _validate(tmp_path, where, value) == 2
    assert _key(where) in capsys.readouterr().err


@pytest.mark.parametrize("where", [("model", "energy"), ("energy_grid", 0),
                                   ("spectrum", "scale_exponent")],
                         ids=lambda p: ".".join(map(str, p)))
def test_validate_refuses_integers_beyond_float_range(tmp_path, capsys, where):
    # an integer literal converts to float only up to about 1.8e308
    assert _validate(tmp_path, where, 10**400) == 2
    err = capsys.readouterr().err
    assert _key(where) in err and "finite" in err


@pytest.mark.parametrize("seed, code", [(0, 0), (2**64 - 1, 0), (2**64, 2), (2**64 + 5, 2)])
def test_validate_refuses_master_seeds_past_64_bits(tmp_path, capsys, seed, code):
    # the streams take the seed modulo 2^64, so 2^64 + 5 would run as 5
    assert _validate(tmp_path, ("master_seed",), seed) == code
    if code:
        assert "master_seed must be below 2^64" in capsys.readouterr().err
