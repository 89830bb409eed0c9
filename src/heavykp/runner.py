"""Batch experiment runner with a small JSON-config CLI.

A run is a grid of cells (alpha, energy, n) for one experiment family, each
cell handled by an independent task with its own derived RNG stream, so
results are byte-identical no matter how many worker processes execute the
grid.  Outputs land in one directory:

    results.csv     one row per (cell, seed, observable), repr-encoded floats
    summary.json    per-cell aggregates plus experiment-level statistics
    manifest.json   config echo, code version, master seed

Exit codes: 0 success, 2 invalid configuration, 3 I/O failure, 4 numeric
saturation (the offending task is named in the diagnostic and the summary),
5 a worker process died (the pool broke; no output file is written).

Usage:

    heavykp run config.json [--workers N] [--output-dir PATH]
    heavykp validate config.json
"""
from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .estimators import chain_mixing, darling_ratios, nonlinear_normalizers, sweep_chains
from .potentials import Model, ModelConfig, generate
from .rng import RngStream, draw_block, split_ids, split_stream
# The darling cells draw through draw_block; the per-seed samplers remain
# only as test references, bound here because the benchmark tracer
# (bench/spans.py) wraps them at this module too.
from .rng import sample_bump_height, sample_gap_length  # noqa: F401
from .spectrum import BoxProblem, decay_fit, find_eigenvalues
from .stats import ks_distance, mean_ci
from .transfer import SaturationError

EXPERIMENTS = ("lyapunov", "ids", "nonlinear", "darling", "mixing", "spectrum")

CSV_HEADER = "experiment,model,alpha,energy,n,seed,observable,value"

# Variates per darling draw: the seeds of a cell are drawn in blocks of about
# this many elements, which keeps a worker's memory flat in n_seeds.
_DARLING_BLOCK_ELEMENTS = 1 << 15

# results.csv rows per write: enough to share a write's cost, few enough that
# no cell's whole text is held at once.
_CSV_CHUNK_ROWS = 1000


class ConfigError(ValueError):
    """Configuration rejected; the message is the user-facing diagnostic."""


@dataclass(frozen=True)
class SpectrumOpts:
    """Spectrum-experiment knobs; window ends default to the data-driven box."""

    lambda_min: Optional[float] = None
    lambda_max: Optional[float] = None
    max_eigenvalues: int = 1
    scale_exponent: float = 1.0


@dataclass(frozen=True)
class MixingOpts:
    initial_points: Tuple[float, ...] = (-10.0, 0.0, 10.0)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    model: ModelConfig
    alpha_grid: Tuple[float, ...]
    energy_grid: Tuple[float, ...]
    n_grid: Tuple[int, ...]
    n_seeds: int
    master_seed: int
    output_dir: str = "out"
    workers: int = 1
    spectrum: SpectrumOpts = field(default_factory=SpectrumOpts)
    mixing: MixingOpts = field(default_factory=MixingOpts)


@dataclass(frozen=True)
class TaskSpec:
    """One grid cell: everything a worker needs, picklable."""

    index: int
    experiment: str
    cell_config: ModelConfig
    alpha: float
    energy: float
    n: int
    n_seeds: int
    master_seed: int
    spectrum: SpectrumOpts
    mixing: MixingOpts


@dataclass
class TaskOutcome:
    """A cell's rows (seed, observable, value), values as Python floats, and summary."""

    index: int
    rows: List[Tuple[int, str, float]]
    cell_summary: Dict[str, object]
    error: Optional[str] = None
    saturated: bool = False


# ── Config parsing ───────────────────────────────────────────────────────────
# The dataclasses above are the schema: the fields of ExperimentConfig,
# ModelConfig, SpectrumOpts and MixingOpts are the keys a config object may
# hold, and their defaults fill the keys it leaves out or sets to null.


def _object(v, cls, what: str) -> dict:
    """v as a JSON object whose keys are fields of cls, less its nulls: a null
    value means the field's default."""
    if not isinstance(v, dict):
        raise ConfigError(f"{what} must be an object")
    unknown = set(v) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    return {key: x for key, x in v.items() if x is not None}


def _require(d: dict, key: str, what: str):
    if key not in d:
        raise ConfigError(f"missing required key {key!r} in {what}")
    return d[key]


def _number(v, label: str) -> float:
    """v as a finite float.  JSON's NaN and Infinity parse as floats, so they
    pass the type test and are refused by name here."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{label} must be a number, got {type(v).__name__}")
    try:
        x = float(v)
    except OverflowError:  # an integer literal beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{label} must be finite, got {x!r}")
    return x


def _integer(v, label: str, least: int = 1) -> int:
    """v as an int no smaller than least: 1 for positive, 0 for nonnegative."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{label} must be int, got {type(v).__name__}")
    if v < least:
        raise ConfigError(f"{label} must be a {'positive' if least else 'nonnegative'} integer")
    return v


def _entries(v, label: str, check, kind: str) -> tuple:
    """v as a nonempty JSON list of entries that pass check; kind names them."""
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{label} must be a nonempty list")
    out = []
    for x in v:
        try:
            out.append(check(x, label))
        except ConfigError:
            raise ConfigError(f"{label} entries must be {kind}, got {x!r}") from None
    return tuple(out)


def _model_from_dict(v) -> ModelConfig:
    d = _object(v, ModelConfig, "model")
    name = _require(d, "model", "model")
    try:
        model = Model(name)
    except ValueError:
        raise ConfigError(f"model must be one of I, II, III, IV, got {name!r}") from None
    _require(d, "energy", "model")
    numbers = {key: _number(x, f"model.{key}") for key, x in d.items() if key != "model"}
    try:
        return ModelConfig(model=model, **numbers)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _spectrum_from_dict(v, experiment: str, energy_grid: Tuple[float, ...]) -> SpectrumOpts:
    """SpectrumOpts whose window is an interval at every energy cell."""
    d = _object(v, SpectrumOpts, "spectrum")
    opts = SpectrumOpts(**{
        key: (_integer if key == "max_eigenvalues" else _number)(x, f"spectrum.{key}")
        for key, x in d.items()})
    lo, hi = opts.lambda_min, opts.lambda_max
    if lo is not None and hi is not None and not lo < hi:
        raise ConfigError(f"spectrum.lambda_min {lo!r} must lie below lambda_max {hi!r}")
    if experiment == "spectrum" and lo is not None and hi is None:
        for energy in energy_grid:
            if not lo < energy:
                raise ConfigError(
                    f"spectrum.lambda_min {lo!r} must lie below the cell energy "
                    f"{energy!r}, the default lambda_max")
    if not opts.scale_exponent > 0.0:
        raise ConfigError("spectrum.scale_exponent must be a positive number")
    return opts


def _mixing_from_dict(v) -> MixingOpts:
    d = _object(v, MixingOpts, "mixing")
    if "initial_points" not in d:
        return MixingOpts()
    points = _entries(d["initial_points"], "mixing.initial_points", _number, "finite numbers")
    if len(points) < 2:
        raise ConfigError("mixing.initial_points must be a list of at least two numbers")
    return MixingOpts(initial_points=points)


def config_from_dict(raw: dict, *, workers: Optional[int] = None,
                     output_dir: Optional[str] = None) -> ExperimentConfig:
    """The ExperimentConfig of a parsed JSON object; ConfigError names the first bad key.

    workers and output_dir, when given, replace the object's keys.  A null
    value means the key's default; every number must be finite.
    """
    raw = _object(raw, ExperimentConfig, "configuration")
    raw.update((key, v) for key, v in (("workers", workers), ("output_dir", output_dir))
               if v is not None)
    experiment = _require(raw, "experiment", "configuration")
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"experiment must be one of {', '.join(EXPERIMENTS)}, got {experiment!r}")
    model = _model_from_dict(_require(raw, "model", "configuration"))
    primary_alpha = model.alpha2 if model.model is Model.III else model.alpha1
    alpha_grid = (_entries(raw["alpha_grid"], "alpha_grid", _number, "finite numbers")
                  if "alpha_grid" in raw else (primary_alpha,))
    energy_grid = (_entries(raw["energy_grid"], "energy_grid", _number, "finite numbers")
                   if "energy_grid" in raw else (model.energy,))
    n_grid = _entries(_require(raw, "n_grid", "configuration"), "n_grid", _integer,
                      "positive integers")
    n_seeds = _integer(_require(raw, "n_seeds", "configuration"), "n_seeds")
    master_seed = _integer(_require(raw, "master_seed", "configuration"), "master_seed",
                           least=0)

    opts = {}
    if "output_dir" in raw:
        if not isinstance(raw["output_dir"], str) or not raw["output_dir"]:
            raise ConfigError("output_dir must be a nonempty string")
        opts["output_dir"] = raw["output_dir"]
    if "workers" in raw:
        opts["workers"] = _integer(raw["workers"], "workers")
    if "spectrum" in raw:
        opts["spectrum"] = _spectrum_from_dict(raw["spectrum"], experiment, energy_grid)
    if "mixing" in raw:
        opts["mixing"] = _mixing_from_dict(raw["mixing"])
    cfg = ExperimentConfig(experiment=experiment, model=model, alpha_grid=alpha_grid,
                           energy_grid=energy_grid, n_grid=n_grid, n_seeds=n_seeds,
                           master_seed=master_seed, **opts)
    build_tasks(cfg)  # validates every grid cell
    return cfg


def _cell_model(base: ModelConfig, alpha: float, energy: float) -> ModelConfig:
    """Rebuild the model with the cell's swept alpha and energy.

    The swept alpha fills the model's primary tail index: alpha1 for models
    I, II, IV (IV keeps alpha2 from the model block) and alpha2 for model III.
    """
    kwargs = dict(energy=energy, theta0=base.theta0)
    if base.model is Model.III:
        kwargs["alpha2"] = alpha
    else:
        kwargs["alpha1"] = alpha
        kwargs["alpha2"] = base.alpha2
    try:
        return ModelConfig(model=base.model, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"grid cell (alpha={alpha!r}, energy={energy!r}): {exc}") from None


def build_tasks(cfg: ExperimentConfig) -> List[TaskSpec]:
    """The full task grid in deterministic order (alpha outer, then energy, then n)."""
    tasks: List[TaskSpec] = []
    idx = 0
    for alpha in cfg.alpha_grid:
        for energy in cfg.energy_grid:
            cell = _cell_model(cfg.model, alpha, energy)
            for n in cfg.n_grid:
                tasks.append(
                    TaskSpec(
                        index=idx,
                        experiment=cfg.experiment,
                        cell_config=cell,
                        alpha=alpha,
                        energy=energy,
                        n=n,
                        n_seeds=cfg.n_seeds,
                        master_seed=cfg.master_seed,
                        spectrum=cfg.spectrum,
                        mixing=cfg.mixing,
                    )
                )
                idx += 1
    return tasks


# ── Per-experiment task bodies ───────────────────────────────────────────────


def _task_stream(spec: TaskSpec) -> RngStream:
    return split_stream(RngStream(spec.master_seed), spec.index)


def _run_lyapunov(spec: TaskSpec, rows, summary) -> None:
    rec = sweep_chains(spec.cell_config, spec.n, spec.n_seeds, _task_stream(spec),
                       want_log_norm=True)
    over_x = rec.log_norm / rec.x
    for seed, (log_norm, ratio) in enumerate(zip(rec.log_norm.tolist(), over_x.tolist())):
        rows.append((seed, "log_norm", log_norm))
        rows.append((seed, "log_norm_over_x", ratio))
    summary["median_log_norm_over_x"] = float(np.median(over_x))
    if spec.n_seeds > 1:
        ci = mean_ci(over_x)
        summary["mean_log_norm_over_x"] = ci.mean
        summary["ci_half_width"] = ci.half_width


def _run_ids(spec: TaskSpec, rows, summary) -> None:
    rec = sweep_chains(spec.cell_config, spec.n, spec.n_seeds, _task_stream(spec),
                       want_theta=True)
    values = rec.theta / (math.pi * rec.x)
    rows.extend([(seed, "rotation_per_unit_length", v)
                 for seed, v in enumerate(values.tolist())])
    summary["median_rotation_per_unit_length"] = float(np.median(values))


def _run_nonlinear(spec: TaskSpec, rows, summary) -> None:
    rec = sweep_chains(spec.cell_config, spec.n, spec.n_seeds, _task_stream(spec),
                       want_theta=True, want_log_norm=True)
    lya_norm, rot_norm = nonlinear_normalizers(spec.cell_config, spec.n, rec.x)
    lya = rec.log_norm / lya_norm
    ids = rec.theta / (math.pi * rot_norm)
    for seed, (lya_v, ids_v) in enumerate(zip(lya.tolist(), ids.tolist())):
        rows.append((seed, "lyapunov_scaled", lya_v))
        rows.append((seed, "ids_scaled", ids_v))
    summary["median_lyapunov_scaled"] = float(np.median(lya))
    summary["median_ids_scaled"] = float(np.median(ids))


def _run_darling(spec: TaskSpec, rows, summary) -> None:
    """Max-over-sum of the model's primary heavy-tailed block, one value per seed.

    The primary block is the first one of the chain's draws: the bump
    heights, or model III's gap lengths.
    """
    cfg = spec.cell_config
    law = cfg.gap_law() if cfg.model is Model.III else cfg.bump_law()
    base = _task_stream(spec)
    values = np.empty(spec.n_seeds)
    chunk = max(1, _DARLING_BLOCK_ELEMENTS // spec.n)
    for lo in range(0, spec.n_seeds, chunk):
        hi = min(spec.n_seeds, lo + chunk)
        (block,) = draw_block(base.seed, split_ids(base, lo, hi), spec.n, [law])
        try:
            values[lo:hi] = darling_ratios(block)
        except SaturationError as exc:  # name the seed: row 0 of the block is seed lo
            raise SaturationError(f"darling draws of seeds {lo}..{hi - 1}, {exc}") from None
    rows.extend([(seed, "max_over_sum", v) for seed, v in enumerate(values.tolist())])
    ci = mean_ci(values) if spec.n_seeds > 1 else None
    summary["mean_max_over_sum"] = float(values.mean())
    if ci is not None:
        summary["ci_half_width"] = ci.half_width


def _run_mixing(spec: TaskSpec, rows, summary) -> None:
    pts = spec.mixing.initial_points
    ks = chain_mixing(spec.cell_config, spec.n, pts, spec.n_seeds, _task_stream(spec))
    m = len(pts)
    for step, dist in enumerate(ks.tolist(), start=1):
        for i in range(m):
            for j in range(i + 1, m):
                rows.append((-1, f"ks_step{step:03d}_pair{i}_{j}", dist[i][j]))
    # Doubling ratios are meaningful only while the earlier KS value sits
    # above the quantization floor of n_seeds-sample ECDFs (a single-count
    # difference is 1/n_seeds; below 1.5 counts the chains have collapsed).
    floor = 1.5 / spec.n_seeds
    per_step_max = ks.max(axis=(1, 2))
    summary["ks_final_max"] = float(per_step_max[-1])
    ratios: Dict[str, float] = {}
    s = 5
    while 2 * s <= spec.n:
        lo = per_step_max[s - 1]
        hi = max(per_step_max[2 * s - 1], floor)
        if lo > floor:
            ratios[f"{s}_to_{2 * s}"] = float(hi / lo)
        s *= 2
    if ratios:
        summary["doubling_ratios"] = ratios
        summary["fitted_doubling_ratio"] = max(ratios.values())


def _run_spectrum(spec: TaskSpec, rows, summary) -> None:
    cfg = spec.cell_config
    opts = spec.spectrum
    base = _task_stream(spec)
    slopes: List[float] = []
    rsqs: List[float] = []
    refused = 0
    for seed in range(spec.n_seeds):
        real = generate(cfg, spec.n, split_stream(base, seed))
        problem = BoxProblem(realization=real, theta0=cfg.theta0, L_box=real.total_length)
        lam_min = opts.lambda_min
        if lam_min is None:
            lam_min = min(0.0, float(problem.values.min())) - 1.0
        lam_max = opts.lambda_max if opts.lambda_max is not None else cfg.energy
        found = find_eigenvalues(problem, lam_min, lam_max,
                                 max_count=opts.max_eigenvalues)
        for i, lam in enumerate(found):
            rows.append((seed, f"eigenvalue_{i}", float(lam)))
            try:
                slope, rsq = decay_fit(problem, lam, opts.scale_exponent)
            except ValueError:  # the box cannot support a fit, e.g. too few boundaries
                refused += 1
                continue
            slopes.append(slope)
            rsqs.append(rsq)
            rows.append((seed, f"decay_slope_{i}", float(slope)))
            rows.append((seed, f"decay_r_squared_{i}", float(rsq)))
    summary["decay_fits_refused"] = refused
    if slopes:
        arr = np.asarray(slopes)
        summary["fraction_negative_slope"] = float((arr < 0.0).mean())
        summary["median_r_squared"] = float(np.median(np.asarray(rsqs)))


_BODIES = {
    "lyapunov": _run_lyapunov,
    "ids": _run_ids,
    "nonlinear": _run_nonlinear,
    "darling": _run_darling,
    "mixing": _run_mixing,
    "spectrum": _run_spectrum,
}


def run_task(spec: TaskSpec) -> TaskOutcome:
    """Execute one grid cell; never raises (errors are carried in the outcome)."""
    rows: List[Tuple[int, str, float]] = []
    summary: Dict[str, object] = {}
    try:
        _BODIES[spec.experiment](spec, rows, summary)
    except SaturationError as exc:
        return TaskOutcome(index=spec.index, rows=[], cell_summary={},
                           error=str(exc), saturated=True)
    except Exception as exc:  # crash isolation: the grid keeps going
        return TaskOutcome(index=spec.index, rows=[], cell_summary={},
                           error=f"{type(exc).__name__}: {exc}")
    return TaskOutcome(index=spec.index, rows=rows, cell_summary=summary)


# ── Orchestration, output, CLI ───────────────────────────────────────────────


def _collect(cfg: ExperimentConfig,
             tasks: List[TaskSpec]) -> Tuple[List[TaskOutcome], Optional[str]]:
    """Every task's outcome in task order and None, or no outcomes and the
    pool's error when a worker process died.

    concurrent.futures is imported here, when a pool runs, so that importing
    the runner does not load it.
    """
    if cfg.workers == 1 or len(tasks) == 1:
        return [run_task(t) for t in tasks], None
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    outcomes: List[Optional[TaskOutcome]] = [None] * len(tasks)
    try:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            for out in pool.map(run_task, tasks):
                outcomes[out.index] = out
    except BrokenProcessPool as exc:
        return [], str(exc)
    return [o for o in outcomes if o is not None], None


def _write_csv(fh, cfg: ExperimentConfig, tasks: List[TaskSpec],
               outcomes: List[TaskOutcome]) -> None:
    """results.csv: the header, then each cell's rows in task order.

    A cell's leading columns are formatted once, and its rows are written
    _CSV_CHUNK_ROWS at a time.  Floats are written as repr(float(x)); row
    values are Python floats already.
    """
    fh.write(CSV_HEADER + "\n")
    for t, o in zip(tasks, outcomes):
        prefix = (f"{cfg.experiment},{t.cell_config.model.value},"
                  f"{float(t.alpha)!r},{float(t.energy)!r},{t.n},")
        rows = o.rows
        for lo in range(0, len(rows), _CSV_CHUNK_ROWS):
            fh.write("".join([f"{prefix}{seed},{obs},{value!r}\n"
                              for seed, obs, value in rows[lo:lo + _CSV_CHUNK_ROWS]]))


def _nonlinear_doubling(cfg: ExperimentConfig, tasks, outcomes) -> List[Dict[str, object]]:
    """KS(samples at n, samples at 4n) per (alpha, energy) where both sizes ran."""
    by_key: Dict[Tuple[float, float, int], TaskOutcome] = {}
    for t, o in zip(tasks, outcomes):
        if o.error is None:
            by_key[(t.alpha, t.energy, t.n)] = o
    entries = []
    for t in tasks:
        key_big = (t.alpha, t.energy, 4 * t.n)
        if (t.alpha, t.energy, t.n) not in by_key or key_big not in by_key:
            continue
        small = by_key[(t.alpha, t.energy, t.n)]
        big = by_key[key_big]

        def _vals(out: TaskOutcome, name: str) -> np.ndarray:
            return np.array([v for _, obs, v in out.rows if obs == name])

        entries.append({
            "alpha": t.alpha,
            "energy": t.energy,
            "n": t.n,
            "ks_lyapunov": float(ks_distance(_vals(small, "lyapunov_scaled"),
                                             _vals(big, "lyapunov_scaled"))),
            "ks_ids": float(ks_distance(_vals(small, "ids_scaled"),
                                        _vals(big, "ids_scaled"))),
        })
    return entries


def run_experiment(cfg: ExperimentConfig) -> Tuple[int, str]:
    """Run the grid and write outputs; returns (exit_code, diagnostic).

    A worker process that dies (killed, or exiting without a result) breaks
    the pool: the run then returns exit code 5 and writes no output file.
    """
    tasks = build_tasks(cfg)
    outcomes, broken = _collect(cfg, tasks)
    if broken is not None:
        return 5, f"worker process failed, no outputs written: {broken}"

    saturated = [(t, o) for t, o in zip(tasks, outcomes) if o.saturated]
    failed = [(t, o) for t, o in zip(tasks, outcomes) if o.error is not None]

    cells = []
    for t, o in zip(tasks, outcomes):
        if o.error is not None:
            continue
        cell = {"alpha": t.alpha, "energy": t.energy, "n": t.n}
        cell.update(o.cell_summary)
        cells.append(cell)

    summary: Dict[str, object] = {
        "experiment": cfg.experiment,
        "model": cfg.model.model.value,
        "master_seed": cfg.master_seed,
        "n_seeds": cfg.n_seeds,
        "cells": cells,
        "failed_tasks": [
            {"task_index": t.index, "alpha": t.alpha, "energy": t.energy,
             "n": t.n, "error": o.error}
            for t, o in failed
        ],
    }
    if cfg.experiment == "ids" and cells:
        meds = [c["median_rotation_per_unit_length"] for c in cells]
        summary["median_rotation_per_unit_length"] = float(np.median(meds))
    if cfg.experiment == "nonlinear":
        summary["ks_doubling"] = _nonlinear_doubling(cfg, tasks, outcomes)
    if cfg.experiment == "mixing" and cells:
        ratios = [c["fitted_doubling_ratio"] for c in cells if "fitted_doubling_ratio" in c]
        if ratios:
            summary["fitted_doubling_ratio"] = max(ratios)

    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
        with open(os.path.join(cfg.output_dir, "results.csv"), "w") as fh:
            _write_csv(fh, cfg, tasks, outcomes)
        with open(os.path.join(cfg.output_dir, "summary.json"), "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        manifest = {
            "config": _config_echo(cfg),
            "code_version": _code_version(),
            "master_seed": cfg.master_seed,
        }
        with open(os.path.join(cfg.output_dir, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        return 3, f"output failure: {exc}"

    if saturated:
        t, o = saturated[0]
        return 4, (
            f"saturation in task {t.index} "
            f"(alpha={t.alpha!r}, energy={t.energy!r}, n={t.n}): {o.error}"
        )
    return 0, ""


def _config_echo(cfg: ExperimentConfig) -> dict:
    """The parsed config as manifest.json records it; config_from_dict reads it back.

    Left out: workers and output_dir, so that the manifest does not depend
    on how or where the run went, the option blocks of the other
    experiments, and the model's unset alphas.
    """
    echo = asdict(cfg)
    for key in ("workers", "output_dir", *EXPERIMENTS):
        if key != cfg.experiment:
            echo.pop(key, None)
    echo["model"] = {key: v for key, v in echo["model"].items() if v is not None}
    echo["model"]["model"] = cfg.model.model.value
    return echo


def _code_version() -> str:
    from . import __version__

    return __version__


def load_config(path: str, *, workers: Optional[int] = None,
                output_dir: Optional[str] = None) -> ExperimentConfig:
    """Read and validate a JSON config file, applying CLI overrides."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON in {path}: {exc}") from None
    return config_from_dict(raw, workers=workers, output_dir=output_dir)


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse  # here, so that importing the runner does not load it

    parser = argparse.ArgumentParser(
        prog="heavykp",
        description="batch experiments on heavy-tailed chain models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the experiment grid of a config file")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_run.add_argument("--workers", type=int, default=None,
                       help="worker processes (overrides the config)")
    p_run.add_argument("--output-dir", default=None,
                       help="output directory (overrides the config)")

    p_val = sub.add_parser("validate", help="check a config file and report the grid")
    p_val.add_argument("config", help="path to a JSON experiment config")

    args = parser.parse_args(argv)

    try:
        if args.command == "validate":
            cfg = load_config(args.config)
        else:
            cfg = load_config(args.config, workers=args.workers, output_dir=args.output_dir)
    except ConfigError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read configuration: {exc}", file=sys.stderr)
        return 3

    if args.command == "validate":
        n_tasks = len(build_tasks(cfg))
        print(
            f"ok: experiment={cfg.experiment} model={cfg.model.model.value} "
            f"tasks={n_tasks} seeds={cfg.n_seeds}"
        )
        return 0

    code, diagnostic = run_experiment(cfg)
    if code != 0:
        print(diagnostic, file=sys.stderr)
    else:
        print(f"wrote {os.path.join(cfg.output_dir, 'results.csv')}")
    return code


if __name__ == "__main__":
    sys.exit(main())
