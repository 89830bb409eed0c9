"""Batch runner tests: config diagnostics, grid construction, CLI behavior.

End-to-end runs go through ``runner.main`` with JSON configs written into
tmp_path, so the exit codes, stderr diagnostics, and output files are
exercised exactly as a shell user would see them.
"""
import errno
import hashlib
import json
import math
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from heavykp import __version__, runner, spectrum
from heavykp.estimators import nonlinear_normalizers, sweep_chains
from heavykp.potentials import Model
from heavykp.rng import RngStream, sample_bump_height, sample_gap_length, split_stream
from heavykp.runner import (
    CSV_HEADER,
    ConfigError,
    build_tasks,
    config_from_dict,
    load_config,
    run_experiment,
)
from heavykp.stats import ks_distance
from heavykp.transfer import SaturationError


def _base_config(**over):
    cfg = {
        "experiment": "ids",
        "model": {"model": "III", "energy": 1.0, "alpha2": 0.6},
        "n_grid": [50],
        "n_seeds": 5,
        "master_seed": 2024,
    }
    cfg.update(over)
    return cfg


def _write_config(tmp_path, name="config.json", **over):
    path = tmp_path / name
    path.write_text(json.dumps(_base_config(**over)))
    return str(path)


def _read_rows(output_dir):
    with open(os.path.join(output_dir, "results.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == runner.CSV_HEADER
    return [line.split(",") for line in lines[1:]]


def _read_summary(output_dir):
    with open(os.path.join(output_dir, "summary.json")) as fh:
        return json.load(fh)


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ── Config validation ────────────────────────────────────────────────────────


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError, match="experiment must be one of"):
        config_from_dict(_base_config(experiment="frobnicate"))


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match=r"unknown configuration keys: \['extra'\]"):
        config_from_dict(_base_config(extra=1))


def test_unknown_model_name_diagnostic():
    cfg = _base_config(model={"model": "V", "energy": 1.0})
    with pytest.raises(ConfigError, match="model must be one of I, II, III, IV, got 'V'"):
        config_from_dict(cfg)


def test_model_alpha_range_diagnostic_passes_through():
    cfg = _base_config(model={"model": "III", "energy": 1.0, "alpha2": 1.2})
    with pytest.raises(ConfigError, match=r"alpha2 must lie in \(0, 1\)"):
        config_from_dict(cfg)


def test_model_energy_sign_diagnostic_passes_through():
    cfg = _base_config(model={"model": "I", "energy": -1.0, "alpha1": 0.5})
    with pytest.raises(ConfigError, match="Model I requires energy > 0"):
        config_from_dict(cfg)


def test_unknown_model_key_rejected():
    cfg = _base_config(model={"model": "III", "energy": 1.0, "alpha2": 0.6, "beta": 1})
    with pytest.raises(ConfigError, match=r"unknown model keys: \['beta'\]"):
        config_from_dict(cfg)


def test_empty_energy_grid_rejected():
    with pytest.raises(ConfigError, match="energy_grid must be a nonempty list"):
        config_from_dict(_base_config(energy_grid=[]))


def test_missing_n_grid_rejected():
    cfg = _base_config()
    del cfg["n_grid"]
    with pytest.raises(ConfigError, match="missing required key 'n_grid'"):
        config_from_dict(cfg)


def test_n_grid_entries_must_be_positive_integers():
    with pytest.raises(ConfigError, match="n_grid entries must be positive integers"):
        config_from_dict(_base_config(n_grid=[0]))
    with pytest.raises(ConfigError, match="n_grid entries must be positive integers"):
        config_from_dict(_base_config(n_grid=[10.5]))


def test_bool_is_not_an_integer_seed_count():
    with pytest.raises(ConfigError, match="n_seeds must be int"):
        config_from_dict(_base_config(n_seeds=True))


def test_negative_master_seed_rejected():
    with pytest.raises(ConfigError, match="master_seed must be a nonnegative integer"):
        config_from_dict(_base_config(master_seed=-3))


def test_workers_must_be_positive():
    with pytest.raises(ConfigError, match="workers must be a positive integer"):
        config_from_dict(_base_config(workers=0))


def test_grid_cell_alpha_failure_names_the_cell():
    # the model block is valid; the swept alpha is not, and the diagnostic
    # has to say which cell broke
    with pytest.raises(ConfigError, match=r"grid cell \(alpha=1.5"):
        config_from_dict(_base_config(alpha_grid=[1.5]))


def test_spectrum_options_validated():
    cfg = _base_config(experiment="spectrum", spectrum={"max_eigenvalues": 0})
    with pytest.raises(ConfigError, match="max_eigenvalues must be a positive integer"):
        config_from_dict(cfg)
    cfg = _base_config(experiment="spectrum", spectrum={"window": [0, 1]})
    with pytest.raises(ConfigError, match=r"unknown spectrum keys: \['window'\]"):
        config_from_dict(cfg)


def _spectrum_config(**window):
    return _base_config(experiment="spectrum",
                        model={"model": "I", "energy": 1.0, "alpha1": 0.5},
                        spectrum=dict(window, max_eigenvalues=2))


@pytest.mark.parametrize("window,match", [
    ({"lambda_min": 2.0, "lambda_max": 1.0}, "must lie below lambda_max"),
    ({"lambda_min": 1.0, "lambda_max": 1.0}, "must lie below lambda_max"),
    ({"lambda_min": math.nan, "lambda_max": 1.0}, "lambda_min must be finite"),
    ({"lambda_min": 0.25, "lambda_max": math.inf}, "lambda_max must be finite"),
    ({"lambda_min": -math.inf}, "lambda_min must be finite"),
    # lambda_max defaults to the cell energy, 1.0 here
    ({"lambda_min": 1.0}, "must lie below the cell energy 1.0"),
    ({"lambda_min": 3.0}, "must lie below the cell energy 1.0"),
])
def test_spectrum_window_must_be_a_finite_interval(window, match):
    with pytest.raises(ConfigError, match=match):
        config_from_dict(_spectrum_config(**window))


def test_spectrum_default_window_end_checked_per_energy_cell():
    cfg = _spectrum_config(lambda_min=1.5)
    config_from_dict(dict(cfg, energy_grid=[2.0, 3.0]))
    with pytest.raises(ConfigError, match="cell energy 1.25"):
        config_from_dict(dict(cfg, energy_grid=[2.0, 1.25]))
    # a data-driven lambda_min is left to the cell; an explicit pair is fine
    config_from_dict(_spectrum_config())
    config_from_dict(_spectrum_config(lambda_max=0.5))
    config_from_dict(_spectrum_config(lambda_min=0.25, lambda_max=3.0))


@pytest.mark.parametrize("literal", ["NaN", "Infinity"])
def test_validate_rejects_spectrum_window_json_literals(tmp_path, capsys, literal):
    # json accepts the NaN and Infinity literals; validate must still refuse
    path = tmp_path / "window.json"
    text = json.dumps(_spectrum_config(lambda_min=0.25, lambda_max=1.0))
    path.write_text(text.replace("0.25", literal))
    assert runner.main(["validate", str(path)]) == 2
    assert "lambda_min must be finite" in capsys.readouterr().err


def test_validate_rejects_reversed_spectrum_window(tmp_path, capsys):
    path = _write_config(tmp_path, experiment="spectrum",
                         model={"model": "I", "energy": 1.0, "alpha1": 0.5},
                         spectrum={"lambda_min": 2.0, "lambda_max": 1.0})
    assert runner.main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration:")
    assert "must lie below lambda_max" in err


_NONNEGATIVE_MODELS = [{"model": "I", "energy": 1.0, "alpha1": 0.5},
                       {"model": "III", "energy": 1.0, "alpha2": 0.6}]


@pytest.mark.parametrize("model", _NONNEGATIVE_MODELS, ids=["I", "III"])
def test_validate_rejects_a_window_below_the_default_lambda_min(tmp_path, capsys, model):
    # every potential of models I and III is nonnegative, so lambda_min
    # defaults to exactly -1: a window that ends there or below is refused
    # up front instead of failing every cell
    for hi in (-2.0, -1.0):
        path = _write_config(tmp_path, experiment="spectrum", model=model,
                             spectrum={"lambda_max": hi})
        assert runner.main(["validate", path]) == 2
        err = capsys.readouterr().err
        assert f"spectrum.lambda_max {hi!r}" in err and "default lambda_min" in err
        assert "-1.0" in err
    # model II's default lies below its deepest well, and a lambda_min of
    # one's own is always the window's
    config_from_dict(_base_config(experiment="spectrum", spectrum={"lambda_max": -2.0},
                                  model={"model": "II", "energy": 1.0, "alpha1": 0.5}))
    config_from_dict(_base_config(experiment="spectrum", model=model,
                                  spectrum={"lambda_min": -5.0, "lambda_max": -2.0}))


def test_a_window_below_a_nonnegative_potential_runs_and_finds_nothing(tmp_path):
    out = str(tmp_path / "out")
    path = _write_config(tmp_path, experiment="spectrum", model=_NONNEGATIVE_MODELS[0],
                         spectrum={"lambda_min": -5.0, "lambda_max": -2.0}, output_dir=out)
    assert runner.main(["run", path]) == 0
    assert _read_rows(out) == []
    assert _read_summary(out)["failed_tasks"] == []


def test_mixing_points_need_at_least_two_entries():
    cfg = _base_config(
        experiment="mixing",
        model={"model": "I", "energy": 2.0, "alpha1": 0.5},
        mixing={"initial_points": [0.0]},
    )
    with pytest.raises(ConfigError, match="at least two numbers"):
        config_from_dict(cfg)


@pytest.mark.parametrize("over, key", [
    ({"model": {"model": "II", "energy": 2.0, "alpha1": 0.5}}, "model must be I"),
    ({"n_seeds": 1}, "n_seeds must be at least 2"),
])
def test_mixing_configs_no_cell_can_run_are_refused(tmp_path, capsys, over, key):
    # chain_mixing refuses model II chains and single seeds, so such a grid
    # would fail every cell; validate and run both refuse it up front
    cfg = dict({"experiment": "mixing", "model": {"model": "I", "energy": 2.0, "alpha1": 0.5}},
               **over)
    out = tmp_path / "out"
    path = _write_config(tmp_path, output_dir=str(out), **cfg)
    for command in ("validate", "run"):
        assert runner.main([command, path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration:") and key in err
    assert not out.exists()


@pytest.mark.parametrize("key, grid, value", [
    ("alpha_grid", [0.5, 0.3, 0.5], "0.5"),
    ("energy_grid", [1.0, 2, 2.0], "2.0"),
    ("n_grid", [16, 16, 64], "16"),
])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_repeated_grid_values_are_refused(tmp_path, capsys, key, grid, value, command):
    # a repeated value would make two cells of one (alpha, energy, n)
    out = tmp_path / "out"
    path = _write_config(tmp_path, experiment="nonlinear", n_seeds=20, master_seed=3,
                         model={"model": "I", "energy": 1.0, "alpha1": 0.5},
                         output_dir=str(out), **{key: grid})
    assert runner.main([command, path]) == 2
    err = capsys.readouterr().err
    assert err == f"invalid configuration: {key} values must be distinct, got {value} twice\n"
    assert not out.exists()


def test_grids_default_to_the_model_block():
    cfg = config_from_dict(_base_config())
    assert cfg.alpha_grid == (0.6,)
    assert cfg.energy_grid == (1.0,)
    assert cfg.output_dir == "out"
    assert cfg.workers == 1


# ── Task grid construction ───────────────────────────────────────────────────


def test_task_grid_order_alpha_outer_then_energy_then_n():
    cfg = config_from_dict(
        _base_config(alpha_grid=[0.5, 0.7], energy_grid=[1.0, 2.0], n_grid=[10, 20])
    )
    tasks = build_tasks(cfg)
    assert [t.index for t in tasks] == list(range(8))
    assert [(t.alpha, t.energy, t.n) for t in tasks] == [
        (0.5, 1.0, 10), (0.5, 1.0, 20),
        (0.5, 2.0, 10), (0.5, 2.0, 20),
        (0.7, 1.0, 10), (0.7, 1.0, 20),
        (0.7, 2.0, 10), (0.7, 2.0, 20),
    ]


def test_swept_alpha_fills_gap_tail_for_model_three():
    cfg = config_from_dict(_base_config(alpha_grid=[0.3], energy_grid=[4.0]))
    cell = build_tasks(cfg)[0].cell_config
    assert cell.model is Model.III
    assert cell.alpha2 == 0.3
    assert cell.energy == 4.0


def test_swept_alpha_fills_bump_tail_and_keeps_gap_tail_for_model_four():
    cfg = config_from_dict(
        _base_config(
            model={"model": "IV", "energy": 2.0, "alpha1": 0.5, "alpha2": 0.6},
            alpha_grid=[0.3],
        )
    )
    cell = build_tasks(cfg)[0].cell_config
    assert cell.alpha1 == 0.3
    assert cell.alpha2 == 0.6


# ── CLI: end-to-end runs ─────────────────────────────────────────────────────


def test_ids_run_writes_schema_clean_outputs(tmp_path, capsys):
    out = str(tmp_path / "out")
    path = _write_config(tmp_path, output_dir=out)
    assert runner.main(["run", path]) == 0
    assert "results.csv" in capsys.readouterr().out

    rows = _read_rows(out)
    assert len(rows) == 5  # one observable per seed
    for fields in rows:
        experiment, model, alpha, energy, n, seed, obs, value = fields
        assert experiment == "ids"
        assert model == "III"
        assert alpha == "0.6" and energy == "1.0" and n == "50"
        assert obs == "rotation_per_unit_length"
        # repr round trip: the text is the shortest exact encoding
        assert repr(float(value)) == value
    assert [int(r[5]) for r in rows] == [0, 1, 2, 3, 4]

    summary = _read_summary(out)
    assert summary["experiment"] == "ids"
    assert summary["model"] == "III"
    assert summary["failed_tasks"] == []
    assert len(summary["cells"]) == 1
    cell = summary["cells"][0]
    assert cell["alpha"] == 0.6 and cell["energy"] == 1.0 and cell["n"] == 50
    assert "median_rotation_per_unit_length" in cell
    assert summary["median_rotation_per_unit_length"] == cell["median_rotation_per_unit_length"]

    with open(os.path.join(out, "manifest.json")) as fh:
        manifest = json.load(fh)
    assert sorted(manifest) == ["code_version", "config", "master_seed"]
    assert manifest["code_version"] == __version__
    assert manifest["master_seed"] == 2024
    assert manifest["config"]["model"] == {"model": "III", "energy": 1.0,
                                           "alpha2": 0.6, "theta0": 0.0}


def test_rerun_is_byte_identical(tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    path = _write_config(tmp_path)
    assert runner.main(["run", path, "--output-dir", out_a]) == 0
    assert runner.main(["run", path, "--output-dir", out_b]) == 0
    for name in ("results.csv", "summary.json", "manifest.json"):
        assert _sha256(os.path.join(out_a, name)) == _sha256(os.path.join(out_b, name))


def test_rerun_of_another_config_replaces_the_earlier_set(tmp_path, monkeypatch):
    # a second config run into the directory of a first: the three files
    # are the second run's bytes, the first run's manifest.json is gone
    # before any new file lands, and no temporary stays behind
    names = ("results.csv", "summary.json", "manifest.json")
    out = tmp_path / "out"
    fresh = tmp_path / "fresh"
    first = _write_config(tmp_path, name="first.json")
    second = _write_config(tmp_path, name="second.json", master_seed=7, n_grid=[30, 60])
    assert runner.main(["run", first, "--output-dir", str(out)]) == 0
    old = {name: (out / name).read_bytes() for name in names}
    assert runner.main(["run", second, "--output-dir", str(fresh)]) == 0
    new = {name: (fresh / name).read_bytes() for name in names}
    assert all(old[name] != new[name] for name in names)
    landed = []
    replace = os.replace

    def spy(src, dst):
        landed.append((os.path.basename(dst), (out / "manifest.json").exists()))
        replace(src, dst)

    monkeypatch.setattr(os, "replace", spy)
    assert runner.main(["run", second, "--output-dir", str(out)]) == 0
    # each file lands while no manifest.json exists, the new manifest last
    assert landed == [(name, False) for name in names]
    assert {name: (out / name).read_bytes() for name in names} == new
    assert sorted(p.name for p in out.iterdir()) == sorted(names)


def _row_by_row_csv(cfg, tasks, cell_rows):
    """results.csv as formatted one f-string and three repr(float(x)) calls per row."""
    def cell(x):
        return repr(float(x))

    return CSV_HEADER + "\n" + "".join(
        f"{cfg.experiment},{t.cell_config.model.value},{cell(t.alpha)},{cell(t.energy)},"
        f"{t.n},{seed},{obs},{cell(value)}\n"
        for t, rows in zip(tasks, cell_rows) for seed, obs, value in rows)


def test_csv_writer_keeps_repr_bytes_and_row_order(tmp_path, monkeypatch):
    # each ids block hands over a column of special floats, and the real
    # rows body formats them into results.csv; cell 1 fails and writes no
    # rows.  A mixing cell, one block, writes its seed -1 rows the same way
    special = [-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf, 0.1 + 0.2]

    def column(index):
        return special[index % 7:] + special[:index % 7]

    def block(spec, lo, hi):
        if spec.index == 1:
            raise RuntimeError("cell 1 fails")
        return {"rotation": np.array(column(spec.index))[lo:hi]}

    out = str(tmp_path / "out")
    cfg = config_from_dict(_base_config(alpha_grid=[0.3, 0.6], energy_grid=[1.0, 2.5],
                                        n_grid=[50, 7], n_seeds=7, output_dir=out))
    tasks = build_tasks(cfg)
    cell_rows = [[(seed, "rotation_per_unit_length", v)
                  for seed, v in enumerate(column(t.index))] for t in tasks]
    cell_rows[1] = []  # a failed cell writes no rows
    _, rows, summary = runner._BODIES["ids"]
    monkeypatch.setitem(runner._BODIES, "ids", (block, rows, summary))
    with np.errstate(invalid="ignore"):
        assert run_experiment(cfg) == (0, "")
    assert [f["task_index"] for f in _read_summary(out)["failed_tasks"]] == [1]
    with open(os.path.join(out, "results.csv")) as fh:
        text = fh.read()
    assert text == _row_by_row_csv(cfg, tasks, cell_rows)
    assert text.splitlines()[4:7] == ["ids,III,0.3,1.0,50,3,rotation_per_unit_length,nan",
                                      "ids,III,0.3,1.0,50,4,rotation_per_unit_length,inf",
                                      "ids,III,0.3,1.0,50,5,rotation_per_unit_length,-inf"]

    out = str(tmp_path / "mixing")
    cfg = config_from_dict(_base_config(experiment="mixing", n_grid=[2], n_seeds=7,
                                        model={"model": "I", "energy": 2.0, "alpha1": 0.5},
                                        output_dir=out))
    ks = np.array(special[1:5] + special[:5]).reshape(1, 3, 3)
    _, rows, summary = runner._BODIES["mixing"]
    monkeypatch.setitem(runner._BODIES, "mixing",
                        (lambda spec, lo, hi: {"ks": ks}, rows, summary))
    assert run_experiment(cfg) == (0, "")
    with open(os.path.join(out, "results.csv")) as fh:
        text = fh.read()
    mixing_rows = [(-1, f"ks_step001_pair{i}_{j}", ks[0, i, j])
                   for i, j in ((0, 1), (0, 2), (1, 2))]
    assert text == _row_by_row_csv(cfg, build_tasks(cfg), [mixing_rows])
    assert text.splitlines()[1:] == ["mixing,I,0.5,2.0,2,-1,ks_step001_pair0_1,1e+308",
                                     "mixing,I,0.5,2.0,2,-1,ks_step001_pair0_2,nan",
                                     "mixing,I,0.5,2.0,2,-1,ks_step001_pair1_2,5e-324"]


def test_one_failed_block_drops_the_whole_cells_text(tmp_path, monkeypatch):
    # the middle one of cell 0's three blocks fails: the cell writes none of
    # its rows, whichever process formatted the other two, and cell 1 of
    # the grid writes all of its own
    block, rows, summary = runner._BODIES["lyapunov"]

    def failing(spec, lo, hi):
        if spec.index == 0 and lo == runner.BLOCK_SEEDS:
            raise RuntimeError(f"block {lo}..{hi - 1} fails")
        return block(spec, lo, hi)

    monkeypatch.setitem(runner._BODIES, "lyapunov", (failing, rows, summary))
    path = _write_config(tmp_path, experiment="lyapunov",
                         model={"model": "I", "energy": 1.0, "alpha1": 0.5},
                         n_grid=[8, 9], n_seeds=_SPLIT_SEEDS)
    (task, _) = build_tasks(load_config(path))
    parts = [runner.run_task(task, lo, hi) for lo, hi in runner._blocks(task)]
    assert [part.text != "" for part in parts] == [True, False, True]
    cell = runner._cell_outcome(task, parts)
    assert cell.texts == [] and cell.columns is None
    assert cell.error == "RuntimeError: block 1024..2047 fails"
    for workers in (1, 2):
        out = str(tmp_path / f"w{workers}")
        assert runner.main(["run", path, "--output-dir", out, "--workers", str(workers)]) == 0
        rows = _read_rows(out)
        assert {r[4] for r in rows} == {"9"} and len(rows) == 2 * _SPLIT_SEEDS
        assert [f["error"] for f in _read_summary(out)["failed_tasks"]] == [cell.error]


def test_model_four_cell_below_zero_energy_runs_where_a_gap_annihilates(tmp_path):
    # at energy -4.736 a gap of one of these chains is long enough that its
    # factored matrix has rank one and maps the walked vector to exactly 0;
    # the sweep walks that step piece by piece, so the cell runs instead of
    # failing with a math domain error
    out = str(tmp_path / "out")
    path = _write_config(tmp_path, experiment="lyapunov", n_grid=[40], n_seeds=300,
                         master_seed=1,
                         model={"model": "IV", "energy": -4.736, "alpha1": 0.5,
                                "alpha2": 0.6, "theta0": 2.710859123055398})
    assert runner.main(["run", path, "--output-dir", out]) == 0
    assert _read_summary(out)["failed_tasks"] == []
    rows = _read_rows(out)
    assert len(rows) == 2 * 300 and all(math.isfinite(float(r[-1])) for r in rows)


@pytest.mark.parametrize("experiment, model, n", [
    ("lyapunov", {"model": "I", "energy": 1.0, "alpha1": 0.5}, 16),
    ("spectrum", {"model": "II", "energy": 1.0, "alpha1": 0.5}, 20),
])
def test_block_text_numbers_its_seeds_from_lo(experiment, model, n):
    # a block's rows carry the cell's seed numbers, lo first, and the
    # blocks' texts joined in seed order are the text of one whole block
    cfg = config_from_dict(_base_config(experiment=experiment, model=model, n_grid=[n],
                                        n_seeds=5))
    (task,) = build_tasks(cfg)
    whole = runner.run_task(task, 0, 5)
    parts = [runner.run_task(task, lo, hi) for lo, hi in ((0, 2), (2, 3), (3, 5))]
    for (lo, hi), part in zip(((0, 2), (2, 3), (3, 5)), parts):
        seeds = [int(line.split(",")[5]) for line in part.text.splitlines()]
        assert seeds[0] == lo and sorted(set(seeds)) == list(range(lo, hi))
    assert "".join(part.text for part in parts) == whole.text
    if experiment == "lyapunov":  # the observables of a seed, in table order
        assert [line.split(",")[6] for line in whole.text.splitlines()[:2]] == [
            "log_norm", "log_norm_over_x"]


@pytest.mark.parametrize("experiment, model", [
    ("lyapunov", {"model": "I", "energy": 1.0, "alpha1": 0.5}),
    ("ids", {"model": "III", "energy": 1.0, "alpha2": 0.6}),
    ("nonlinear", {"model": "IV", "energy": 1.0, "alpha1": 0.5, "alpha2": 0.6}),
    ("darling", {"model": "II", "energy": 1.0, "alpha1": 0.5}),
    ("mixing", {"model": "I", "energy": 2.0, "alpha1": 0.5}),
    ("spectrum", {"model": "II", "energy": 1.0, "alpha1": 0.5}),
])
def test_task_bodies_hand_over_python_floats(experiment, model):
    # a cell's text formats row values with repr, which spells a numpy
    # scalar differently from a float
    cfg = config_from_dict(_base_config(experiment=experiment, model=model, n_grid=[40],
                                        n_seeds=4))
    (task,) = build_tasks(cfg)
    part = runner.run_task(task, 0, task.n_seeds)
    out = runner._cell_outcome(task, [part])
    assert out.error is None and out.texts == [part.text] and part.text
    assert "np.float64(" not in part.text
    values = [line.rsplit(",", 1)[1] for line in part.text.splitlines()]
    assert all(value == repr(float(value)) for value in values)


def test_worker_count_does_not_change_results(tmp_path):
    # two tasks or more so the pool branch actually engages; in the nonlinear
    # grid a child runs the n = 64 cell, so both doubling KS entries read
    # columns that came back from the pool
    grids = {"ids": {"n_grid": [40, 80]},
             "nonlinear": {"experiment": "nonlinear", "n_grid": [16, 64, 256], "n_seeds": 30,
                           "model": {"model": "I", "energy": 2.0, "alpha1": 0.5}}}
    for experiment, over in grids.items():
        out_a = str(tmp_path / experiment / "serial")
        out_b = str(tmp_path / experiment / "pooled")
        path = _write_config(tmp_path, name=f"{experiment}.json", **over)
        assert runner.main(["run", path, "--output-dir", out_a, "--workers", "1"]) == 0
        assert runner.main(["run", path, "--output-dir", out_b, "--workers", "2"]) == 0
        for name in ("results.csv", "summary.json", "manifest.json"):
            assert _sha256(os.path.join(out_a, name)) == _sha256(os.path.join(out_b, name))
    assert len(_read_summary(str(tmp_path / "nonlinear" / "serial"))["ks_doubling"]) == 2


_SPLIT_SEEDS = 2 * runner.BLOCK_SEEDS + 100  # three blocks, the last a short one


@pytest.mark.parametrize("experiment, model", [
    ("lyapunov", {"model": "I", "energy": 1.0, "alpha1": 0.5}),
    ("ids", {"model": "II", "energy": 1.0, "alpha1": 0.02}),
    ("nonlinear", {"model": "IV", "energy": 1.0, "alpha1": 0.5, "alpha2": 0.6}),
    ("darling", {"model": "III", "energy": 1.0, "alpha2": 0.6}),
])
def test_split_cell_outputs_do_not_depend_on_the_worker_count(tmp_path, experiment, model):
    # one cell of three blocks: at 2 and 3 workers the parent and the
    # children share them, and the joined rows and summary stay the same bytes
    path = _write_config(tmp_path, experiment=experiment, model=model, n_grid=[16],
                         n_seeds=_SPLIT_SEEDS)
    (task,) = build_tasks(load_config(path))
    assert len(runner._blocks(task)) == 3
    digests = []
    for workers in (1, 2, 3):
        out = str(tmp_path / f"w{workers}")
        with np.errstate(all="ignore"):
            assert runner.main(["run", path, "--output-dir", out,
                                "--workers", str(workers)]) == 0
        digests.append([_sha256(os.path.join(out, name))
                        for name in ("results.csv", "summary.json", "manifest.json")])
    assert digests[0] == digests[1] == digests[2]
    assert len(_read_rows(str(tmp_path / "w1"))) >= _SPLIT_SEEDS


def test_the_parent_formats_only_the_blocks_it_ran(tmp_path, monkeypatch):
    # a spy on the rows body of a three-block cell: at --workers 2 the
    # parent formats blocks 0 and 2, which it ran, and the forked child block
    # 1; at --workers 1 the parent formats all three.  The bytes agree
    block, rows, summary = runner._BODIES["lyapunov"]
    seen = []

    def spy(spec, cols, lo):
        seen.append((os.getpid(), lo))
        return rows(spec, cols, lo)

    monkeypatch.setitem(runner._BODIES, "lyapunov", (block, spy, summary))
    path = _write_config(tmp_path, experiment="lyapunov",
                         model={"model": "I", "energy": 1.0, "alpha1": 0.5},
                         n_grid=[16], n_seeds=_SPLIT_SEEDS)
    digests = []
    for workers, formatted in ((2, [0, 2048]), (1, [0, 1024, 2048])):
        seen.clear()
        out = str(tmp_path / f"w{workers}")
        assert runner.main(["run", path, "--output-dir", out, "--workers", str(workers)]) == 0
        assert seen == [(os.getpid(), lo) for lo in formatted]
        digests.append(_sha256(os.path.join(out, "results.csv")))
    assert digests[0] == digests[1]


def test_oversubscribed_pool_writes_the_serial_bytes(tmp_path):
    # --workers 4 on a five-block cell, more processes than most hosts'
    # cores: the run ends within its timeout and writes the --workers 1 bytes
    path = _write_config(tmp_path, experiment="lyapunov",
                         model={"model": "I", "energy": 1.0, "alpha1": 0.5},
                         n_grid=[16], n_seeds=4 * runner.BLOCK_SEEDS + 50)
    (task,) = build_tasks(load_config(path))
    assert len(runner._blocks(task)) == 5
    pythonpath = (str(Path(runner.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    digests = []
    for workers in (1, 4):
        out = str(tmp_path / f"w{workers}")
        proc = subprocess.run([sys.executable, "-m", "heavykp.runner", "run", path,
                               "--output-dir", out, "--workers", str(workers)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        digests.append([_sha256(os.path.join(out, name))
                        for name in ("results.csv", "summary.json", "manifest.json")])
    assert digests[0] == digests[1]


def test_second_block_saturation_fails_the_cell_alike_at_every_worker_count(tmp_path, capsys):
    # alpha1 = 0.033 overflows a draw of seeds 1148 (block 1) and 2109, 2134
    # (block 2) of this cell only: the cell fails with block 1's message
    # whichever process ran each block
    path = _write_config(tmp_path, experiment="darling",
                         model={"model": "I", "energy": 1.0, "alpha1": 0.033},
                         n_grid=[64], n_seeds=_SPLIT_SEEDS, master_seed=28)
    draw = "darling draws of seeds 1024..1535, row 124: variate "
    failed = []
    for workers in (1, 2, 3):
        out = str(tmp_path / f"w{workers}")
        with np.errstate(over="ignore"):
            assert runner.main(["run", path, "--output-dir", out,
                                "--workers", str(workers)]) == 4
        err = capsys.readouterr().err
        assert "saturation in task 0 (alpha=0.033, energy=1.0, n=64)" in err and draw in err
        summary = _read_summary(out)
        assert summary["cells"] == [] and _read_rows(out) == []
        failed.append(summary["failed_tasks"])
    assert failed[0] == failed[1] == failed[2]
    assert draw in failed[0][0]["error"]


def test_validate_reports_grid_and_touches_nothing(tmp_path, capsys):
    out = str(tmp_path / "never_created")
    path = _write_config(tmp_path, output_dir=out, n_grid=[10, 20, 30])
    assert runner.main(["validate", path]) == 0
    assert capsys.readouterr().out == "ok: experiment=ids model=III tasks=3 seeds=5\n"
    assert not os.path.exists(out)


def test_validate_rejects_bad_alpha(tmp_path, capsys):
    path = _write_config(tmp_path, model={"model": "III", "energy": 1.0, "alpha2": 1.2})
    assert runner.main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration:")
    assert "alpha2 must lie in (0, 1)" in err


def test_missing_config_file_is_io_failure(tmp_path, capsys):
    assert runner.main(["run", str(tmp_path / "nope.json")]) == 3
    assert capsys.readouterr().err.startswith("cannot read configuration:")


def test_malformed_json_is_config_failure(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"experiment": "ids",')
    assert runner.main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration:")
    assert "malformed JSON" in err


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000],
                         ids=["undecodable", "nested-too-deep"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_unreadable_json_is_config_failure(tmp_path, capsys, command, content):
    path = tmp_path / "broken.json"
    path.write_bytes(content)
    out = tmp_path / "out"
    argv = [command, str(path)] + (["--output-dir", str(out)] if command == "run" else [])
    assert runner.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration: malformed JSON in ")
    assert str(path) in err and len(err.splitlines()) == 1
    assert not out.exists()


def test_output_path_collision_is_io_failure(tmp_path, capsys):
    blocker = tmp_path / "occupied"
    blocker.write_text("")
    path = _write_config(tmp_path)
    assert runner.main(["run", path, "--output-dir", str(blocker)]) == 3
    assert capsys.readouterr().err.startswith("output failure:")


def test_failed_write_leaves_the_earlier_set_or_no_manifest(tmp_path):
    # a rerun into the same directory under a 64 KiB file-size limit, set in
    # the child process only with SIGXFSZ ignored, so that the write fails
    # with EFBIG: it exits 3 naming the file, and leaves the first run's
    # complete set or no manifest.json, never a truncated results.csv beside
    # an earlier manifest
    resource = pytest.importorskip("resource")
    names = ("results.csv", "summary.json", "manifest.json")
    out = tmp_path / "out"
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "experiment": "lyapunov",
        "model": {"model": "I", "energy": 1.0, "alpha1": 0.5},
        "alpha_grid": [0.3, 0.45, 0.6, 0.75], "n_grid": [64], "n_seeds": 2000,
        "master_seed": 3, "workers": 1, "output_dir": str(out),
    }))
    assert runner.main(["run", str(path)]) == 0
    first = {name: (out / name).read_bytes() for name in names}
    limit = 64 * 1024
    assert len(first["results.csv"]) > limit

    def limit_file_size():
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE,
                           (limit, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))

    pythonpath = (str(Path(runner.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    proc = subprocess.run([sys.executable, "-m", "heavykp.runner", "run", str(path)],
                          env=env, preexec_fn=limit_file_size, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 3, proc.stderr
    left = {p.name for p in out.iterdir()}
    if "manifest.json" in left:
        assert {name: (out / name).read_bytes() for name in names} == first
    assert left <= set(names), left  # no temporary stays behind
    assert proc.stderr.startswith("output failure: writing results.csv:")
    assert "File too large" in proc.stderr


def _child_pids(pid):
    """The pids whose parent is pid, read from /proc."""
    kids = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:  # gone
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            kids.append(int(entry))
    return kids


@pytest.mark.parametrize("signum, code", [(signal.SIGINT, 130), (signal.SIGTERM, 143)])
def test_interrupted_run_ends_its_children_and_writes_nothing(tmp_path, signum, code):
    # a grid of many blocks at --workers 2, signalled in the parent alone once
    # its forked child exists: the run stops its share, ends the child without
    # its queued blocks, writes nothing and exits 128 + signum with one line
    if not os.path.exists("/proc/self/stat"):
        pytest.skip("finding the forked child needs /proc")
    out = tmp_path / "out"
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "experiment": "lyapunov",
        "model": {"model": "I", "energy": 1.0, "alpha1": 0.5},
        "alpha_grid": [0.3, 0.5, 0.7], "energy_grid": [1.0, 2.0], "n_grid": [2000],
        "n_seeds": 3000, "master_seed": 3, "workers": 2, "output_dir": str(out),
    }))
    pythonpath = (str(Path(runner.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    proc = subprocess.Popen([sys.executable, "-m", "heavykp.runner", "run", str(path)],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    kids = []
    try:
        deadline = time.monotonic() + 60.0
        while not kids:
            assert proc.poll() is None and time.monotonic() < deadline, "no child forked"
            time.sleep(0.01)
            kids = _child_pids(proc.pid)
        proc.send_signal(signum)
        # a child that outlives the run holds the pipes open
        stdout, stderr = proc.communicate(timeout=30)
    except BaseException:
        for pid in [proc.pid, *kids]:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        proc.communicate()
        raise
    assert proc.returncode == code, stderr
    assert stdout == ""
    assert stderr.splitlines() == [f"interrupted by {signal.Signals(signum).name}"]
    assert not out.exists()


def test_crashed_task_is_isolated_and_reported(tmp_path, monkeypatch):
    def _boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(runner, "sweep_chains", _boom)
    out = str(tmp_path / "out")
    cfg = load_config(_write_config(tmp_path, output_dir=out))
    code, diagnostic = run_experiment(cfg)
    assert code == 0 and diagnostic == ""
    summary = _read_summary(out)
    assert summary["cells"] == []
    assert summary["failed_tasks"] == [
        {"task_index": 0, "alpha": 0.6, "energy": 1.0, "n": 50,
         "error": "RuntimeError: boom"}
    ]
    assert _read_rows(out) == []


def test_saturated_task_stops_the_run_with_its_identity(tmp_path, monkeypatch, capsys):
    def _overflow(*args, **kwargs):
        raise SaturationError("log scale exceeded the ceiling")

    monkeypatch.setattr(runner, "sweep_chains", _overflow)
    out = str(tmp_path / "out")
    path = _write_config(tmp_path, output_dir=out)
    assert runner.main(["run", path]) == 4
    err = capsys.readouterr().err
    assert "saturation in task 0 (alpha=0.6, energy=1.0, n=50)" in err
    assert "log scale exceeded the ceiling" in err
    # outputs still land so the partial grid is inspectable
    assert os.path.exists(os.path.join(out, "summary.json"))


# A forked child inherits this module with the test process's pid in it.
_TEST_PID = os.getpid()
_run_task = runner.run_task
_needs_proc = pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                                 reason="finding the children needs /proc")


def _die_in_child(*unit):
    # the parent runs a share of the units itself, so only a child dies
    if os.getpid() != _TEST_PID:
        os._exit(1)
    return _run_task(*unit)


def _assert_failed_child_exits_5(tmp_path, capsys, **over):
    """Run at --workers 2, where a child is set to fail: exit 5, nothing
    written, every child reaped; returns the diagnostic."""
    out = str(tmp_path / "out")
    path = _write_config(tmp_path, output_dir=out, workers=2, **over)
    assert runner.main(["run", path]) == 5
    err = capsys.readouterr().err
    assert err.startswith("worker process failed, no outputs written:")
    assert not os.path.exists(out)
    if os.path.exists("/proc/self/stat"):
        assert _child_pids(os.getpid()) == []  # zombies included
    return err


def _assert_dead_child_exits_5(tmp_path, monkeypatch, capsys, **over):
    # a child that dies fails the run (forked children inherit the patch)
    monkeypatch.setattr(runner, "run_task", _die_in_child)
    _assert_failed_child_exits_5(tmp_path, capsys, **over)


def test_dead_worker_exits_5_and_writes_nothing(tmp_path, monkeypatch, capsys):
    _assert_dead_child_exits_5(tmp_path, monkeypatch, capsys, n_grid=[40, 80])


def test_dead_worker_in_a_split_cell_exits_5_and_writes_nothing(tmp_path, monkeypatch, capsys):
    # one cell of two blocks: the parent runs the first, the child dies on the second
    _assert_dead_child_exits_5(tmp_path, monkeypatch, capsys, n_grid=[8],
                               n_seeds=runner.BLOCK_SEEDS + 5)


@_needs_proc
def test_child_killed_mid_run_exits_5_and_is_reaped(tmp_path, monkeypatch, capsys):
    # the parent, in its own first unit, SIGKILLs the child waiting in its
    # first unit: the run exits 5, names the signal and reaps the child
    def kill_child_or_wait(*unit):
        if os.getpid() == _TEST_PID:
            for pid in _child_pids(_TEST_PID):
                os.kill(pid, signal.SIGKILL)
        else:
            time.sleep(60)
        return _run_task(*unit)

    monkeypatch.setattr(runner, "run_task", kill_child_or_wait)
    err = _assert_failed_child_exits_5(tmp_path, capsys, n_grid=[40, 80])
    assert f"was killed by signal {int(signal.SIGKILL)}" in err


def test_child_exiting_nonzero_after_its_whole_result_exits_5(tmp_path, monkeypatch, capsys):
    # the child writes its whole result and then leaves with status 3: the
    # status fails the run, however complete the result
    leave = os._exit
    monkeypatch.setattr(os, "_exit", lambda code: leave(code or 3))
    err = _assert_failed_child_exits_5(tmp_path, capsys, n_grid=[40, 80])
    assert "exited with status 3" in err


def test_child_result_that_does_not_unpickle_exits_5(tmp_path, monkeypatch, capsys):
    # the child exits 0 having written bytes that are no pickle
    monkeypatch.setattr(pickle, "dump", lambda obj, fh, protocol: fh.write(b"no pickle"))
    err = _assert_failed_child_exits_5(tmp_path, capsys, n_grid=[40, 80])
    assert "handed back an unreadable result" in err


@_needs_proc
def test_failed_fork_exits_5_and_ends_the_children_it_started(tmp_path, monkeypatch, capsys):
    # --workers 3 on three units: the first fork starts a child, the second
    # fails with EAGAIN.  The run exits 5 and writes nothing, the child is
    # killed and reaped, and the pipes of both forks are closed
    fork = os.fork
    forks = []

    def fork_once():
        forks.append(os.getpid())
        if len(forks) > 1:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    monkeypatch.setattr(os, "fork", fork_once)
    out = str(tmp_path / "out")
    path = _write_config(tmp_path, output_dir=out, n_grid=[40, 80, 120])
    fds = len(os.listdir("/proc/self/fd"))
    assert runner.main(["run", path, "--workers", "3"]) == 5
    assert forks == [os.getpid()] * 2
    err = capsys.readouterr().err
    assert err.startswith("worker process failed, no outputs written: "
                          "could not start a worker process: ")
    assert os.strerror(errno.EAGAIN) in err
    assert not os.path.exists(out)
    assert _child_pids(os.getpid()) == []  # zombies included
    assert len(os.listdir("/proc/self/fd")) == fds


@_needs_proc
@pytest.mark.parametrize("workers", [2, 3])
def test_in_process_run_leaves_no_child(tmp_path, workers):
    out = str(tmp_path / "out")
    cfg = load_config(_write_config(tmp_path, output_dir=out, n_grid=[40, 80, 120]),
                      workers=workers)
    assert run_experiment(cfg) == (0, "")
    assert _child_pids(os.getpid()) == []  # zombies included


def test_more_workers_than_units_fork_one_child_per_unit_past_the_first(tmp_path,
                                                                          monkeypatch):
    # --workers 3 on a grid of two units forks one child, not two, and
    # writes the --workers 1 bytes
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    path = _write_config(tmp_path, n_grid=[40, 80])
    digests = []
    for workers in (3, 1):
        out = str(tmp_path / f"w{workers}")
        assert runner.main(["run", path, "--output-dir", out, "--workers", str(workers)]) == 0
        digests.append([_sha256(os.path.join(out, name))
                        for name in ("results.csv", "summary.json", "manifest.json")])
    assert forks == [os.getpid()]
    assert digests[0] == digests[1]


@pytest.mark.parametrize("workers, n_grid", [(1, [40, 80, 120]), (4, [40])])
def test_one_worker_or_one_unit_forks_nothing(tmp_path, monkeypatch, workers, n_grid):
    # --workers 1 on three units, or one unit at --workers 4, runs every
    # unit in the parent: a fork would fail the run with exit 5
    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", no_fork)
    out = str(tmp_path / "out")
    path = _write_config(tmp_path, output_dir=out, n_grid=n_grid)
    assert runner.main(["run", path, "--workers", str(workers)]) == 0
    assert len(_read_summary(out)["cells"]) == len(n_grid)


def test_a_forked_run_loads_no_thread_or_process_pool_module(tmp_path):
    # the children are forked directly: neither concurrent.futures nor
    # multiprocessing, which start threads, is ever imported
    out = str(tmp_path / "out")
    path = _write_config(tmp_path, output_dir=out, workers=2, n_grid=[40, 80])
    script = ("import sys\nfrom heavykp import runner\n"
              f"assert runner.main(['run', {path!r}]) == 0\n"
              "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))\n")
    pythonpath = (str(Path(runner.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert os.path.exists(os.path.join(out, "manifest.json"))


# ── Experiment bodies through the CLI ────────────────────────────────────────


def test_ids_median_tracks_free_rotation(tmp_path):
    out = str(tmp_path / "out")
    path = _write_config(tmp_path, output_dir=out, n_grid=[400], n_seeds=40)
    assert runner.main(["run", path]) == 0
    med = _read_summary(out)["median_rotation_per_unit_length"]
    assert med == pytest.approx(1.0 / math.pi, rel=0.05)


def test_lyapunov_rows_and_cell_statistics(tmp_path):
    out = str(tmp_path / "out")
    path = _write_config(
        tmp_path,
        experiment="lyapunov",
        model={"model": "I", "energy": 2.0, "alpha1": 0.5},
        n_grid=[80],
        n_seeds=6,
        output_dir=out,
    )
    assert runner.main(["run", path]) == 0
    rows = _read_rows(out)
    names = {r[6] for r in rows}
    assert names == {"log_norm", "log_norm_over_x"}
    assert len(rows) == 12
    cell = _read_summary(out)["cells"][0]
    assert cell["median_log_norm_over_x"] > 0.0
    assert cell["mean_log_norm_over_x"] > 0.0
    assert cell["ci_half_width"] > 0.0


def test_nonlinear_summary_pairs_sample_sizes(tmp_path):
    out = str(tmp_path / "out")
    path = _write_config(
        tmp_path,
        experiment="nonlinear",
        model={"model": "I", "energy": 2.0, "alpha1": 0.5},
        n_grid=[32, 128],
        n_seeds=60,
        master_seed=77,
        output_dir=out,
    )
    assert runner.main(["run", path]) == 0
    rows = _read_rows(out)
    assert {r[6] for r in rows} == {"lyapunov_scaled", "ids_scaled"}
    assert len(rows) == 2 * 60 * 2
    summary = _read_summary(out)
    assert len(summary["ks_doubling"]) == 1
    entry = summary["ks_doubling"][0]
    assert entry["n"] == 32
    assert 0.0 <= entry["ks_lyapunov"] <= 1.0
    assert 0.0 <= entry["ks_ids"] <= 1.0

    def sample(n, observable):
        return [float(r[7]) for r in rows if int(r[4]) == n and r[6] == observable]

    # the statistic is the KS distance of the two cells' written samples, exactly
    assert entry["ks_lyapunov"] == ks_distance(sample(32, "lyapunov_scaled"),
                                               sample(128, "lyapunov_scaled"))
    assert entry["ks_ids"] == ks_distance(sample(32, "ids_scaled"), sample(128, "ids_scaled"))


def test_nonlinear_rows_equal_separate_estimates_bitwise(tmp_path):
    # one sweep per cell wanting theta and the log norm writes exactly the
    # values of two separate sweeps on the cell's stream over the normalizers
    out = str(tmp_path / "out")
    path = _write_config(
        tmp_path,
        experiment="nonlinear",
        model={"model": "IV", "energy": 1.0, "alpha1": 0.5, "alpha2": 0.6},
        n_grid=[40, 160],
        n_seeds=12,
        master_seed=78,
        output_dir=out,
    )
    assert runner.main(["run", path]) == 0
    rows = _read_rows(out)
    for task in build_tasks(load_config(path)):
        stream = split_stream(RngStream(task.master_seed), task.index)
        lya = sweep_chains(task.cell_config, task.n, task.n_seeds, stream, want_log_norm=True)
        ids = sweep_chains(task.cell_config, task.n, task.n_seeds, stream, want_theta=True)
        lya_norm, _ = nonlinear_normalizers(task.cell_config, task.n, lya.x)
        _, rot_norm = nonlinear_normalizers(task.cell_config, task.n, ids.x)
        cell = [r for r in rows if int(r[4]) == task.n]
        got_lya = [float(r[7]) for r in cell if r[6] == "lyapunov_scaled"]
        got_ids = [float(r[7]) for r in cell if r[6] == "ids_scaled"]
        assert got_lya == (lya.log_norm / lya_norm).tolist()
        assert got_ids == (ids.theta / (math.pi * rot_norm)).tolist()


@pytest.mark.parametrize("model", [
    {"model": "IV", "energy": 1.0, "alpha1": 0.5, "alpha2": 0.6},
    {"model": "III", "energy": 1.0, "alpha2": 0.6},
])
def test_darling_rows_equal_per_seed_ratios(tmp_path, model):
    # darling draws a cell's seeds in blocks (here 16 seeds of 2048 draws);
    # each row is max / sum of the seed's own primary draw, bit for bit
    out = str(tmp_path / "out")
    path = _write_config(tmp_path, experiment="darling", model=model, alpha_grid=[0.4, 0.7],
                         n_grid=[2048], n_seeds=40, master_seed=31, output_dir=out)
    assert runner._DARLING_BLOCK_ELEMENTS // 2048 < 40
    assert runner.main(["run", path]) == 0
    rows = _read_rows(out)
    for task in build_tasks(load_config(path)):
        base = split_stream(RngStream(task.master_seed), task.index)
        cfg = task.cell_config
        if cfg.model is Model.III:
            alpha, draw = cfg.alpha2, sample_gap_length
        else:
            alpha, draw = cfg.alpha1, sample_bump_height
        want = []
        for i in range(task.n_seeds):
            sample = draw(alpha, split_stream(base, i).generator(), size=task.n)
            want.append(float(sample.max() / sample.sum()))
        got = [float(r[7]) for r in rows if float(r[2]) == task.alpha]
        assert got == want


def test_darling_rows_stay_in_unit_interval(tmp_path):
    out = str(tmp_path / "out")
    path = _write_config(
        tmp_path,
        experiment="darling",
        model={"model": "I", "energy": 2.0, "alpha1": 0.5},
        n_grid=[256],
        n_seeds=50,
        output_dir=out,
    )
    assert runner.main(["run", path]) == 0
    rows = _read_rows(out)
    assert len(rows) == 50
    vals = np.array([float(r[7]) for r in rows])
    assert np.all(vals > 0.0) and np.all(vals <= 1.0)
    cell = _read_summary(out)["cells"][0]
    assert cell["mean_max_over_sum"] == pytest.approx(vals.mean())
    assert cell["ci_half_width"] > 0.0


@pytest.mark.parametrize("master_seed, n_seeds, seed, variate", [(6, 1, 0, 148), (5, 20, 6, 70)])
def test_darling_overflow_exits_4_naming_the_draw(tmp_path, capsys, master_seed, n_seeds, seed,
                                                  variate):
    # alpha1 = 0.02 squares a Frechet variate of these seeds past float
    # range, and max/sum would be inf/inf: the cell is refused as saturated,
    # naming the task and the overflowed draw, and writes no NaN
    out = str(tmp_path / "out")
    path = _write_config(tmp_path, experiment="darling",
                         model={"model": "I", "energy": 1.0, "alpha1": 0.02},
                         n_grid=[256], n_seeds=n_seeds, master_seed=master_seed,
                         output_dir=out)
    with np.errstate(over="ignore"):
        assert runner.main(["run", path]) == 4
    err = capsys.readouterr().err
    assert "saturation in task 0 (alpha=0.02, energy=1.0, n=256)" in err
    draw = f"seeds 0..{n_seeds - 1}, row {seed}: variate {variate} of 256 overflowed to inf"
    assert draw in err
    summary = _read_summary(out)
    assert summary["cells"] == [] and draw in summary["failed_tasks"][0]["error"]
    assert _read_rows(out) == []
    # the named draw is the seed's own, and it is the first infinite one
    base = split_stream(RngStream(master_seed), 0)
    with np.errstate(over="ignore"):
        sample = sample_bump_height(load_config(path).model.alpha1,
                                    split_stream(base, seed).generator(), size=256)
    assert np.isinf(sample[variate]) and np.argmax(sample) == variate


def test_mixing_rows_use_step_pair_names(tmp_path):
    out = str(tmp_path / "out")
    path = _write_config(
        tmp_path,
        experiment="mixing",
        model={"model": "I", "energy": 2.0, "alpha1": 0.5},
        n_grid=[10],
        n_seeds=200,
        output_dir=out,
    )
    assert runner.main(["run", path]) == 0
    rows = _read_rows(out)
    assert len(rows) == 10 * 3  # steps times unordered point pairs
    assert all(r[5] == "-1" for r in rows)  # KS rows aggregate across seeds
    assert rows[0][6] == "ks_step001_pair0_1"
    assert rows[-1][6] == "ks_step010_pair1_2"
    cell = _read_summary(out)["cells"][0]
    # strong disorder collapses the chains within ten steps
    assert cell["ks_final_max"] < 0.05


def test_unconverged_eigenvalue_search_fails_its_cell(tmp_path, monkeypatch):
    # three walks cannot close a bracket of a 1000-bump model I box
    monkeypatch.setattr(spectrum, "_MAX_EVALS", 3)
    out = str(tmp_path / "out")
    cfg = load_config(_write_config(
        tmp_path, experiment="spectrum",
        model={"model": "I", "energy": 1.0, "alpha1": 0.5},
        n_grid=[1000], n_seeds=1, output_dir=out,
        spectrum={"lambda_min": 0.25, "max_eigenvalues": 2}))
    code, diagnostic = run_experiment(cfg)
    assert code == 0 and diagnostic == ""
    (failed,) = _read_summary(out)["failed_tasks"]
    assert failed["error"].startswith("EigenvalueSearchError: eigenvalue 1: bracket [")
    assert _read_rows(out) == []


def test_spectrum_rows_report_localized_ground_states(tmp_path):
    out = str(tmp_path / "out")
    path = _write_config(
        tmp_path,
        experiment="spectrum",
        model={"model": "II", "energy": 1.0, "alpha1": 0.5},
        n_grid=[60],
        n_seeds=3,
        output_dir=out,
        spectrum={"max_eigenvalues": 1},
    )
    assert runner.main(["run", path]) == 0
    rows = _read_rows(out)
    names = [r[6] for r in rows]
    assert names.count("eigenvalue_0") == 3
    assert names.count("decay_slope_0") == 3
    assert names.count("decay_r_squared_0") == 3
    cell = _read_summary(out)["cells"][0]
    assert cell["fraction_negative_slope"] == 1.0
    assert cell["median_r_squared"] > 0.9
    assert cell["decay_fits_refused"] == 0


def test_spectrum_counts_refused_decay_fits(tmp_path):
    # 12-bump boxes hold fewer than 10 piece boundaries in their middle half:
    # every eigenvalue keeps its row, its decay fit is refused and counted
    out = str(tmp_path / "out")
    path = _write_config(
        tmp_path,
        experiment="spectrum",
        model={"model": "II", "energy": 1.0, "alpha1": 0.5},
        n_grid=[12],
        n_seeds=3,
        output_dir=out,
        spectrum={"max_eigenvalues": 2},
    )
    assert runner.main(["run", path]) == 0
    names = [r[6] for r in _read_rows(out)]
    assert sorted(names) == ["eigenvalue_0"] * 3 + ["eigenvalue_1"] * 3
    summary = _read_summary(out)
    assert summary["failed_tasks"] == []
    (cell,) = summary["cells"]
    assert cell["decay_fits_refused"] == 6
    assert "fraction_negative_slope" not in cell
