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

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .estimators import (
    IdsScale,
    LyapunovScale,
    chain_mixing,
    darling_ratios,
    estimate_ids,
    estimate_lyapunov_and_ids,
    sweep_chains,
)
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
    index: int
    rows: List[Tuple[int, str, float]]
    cell_summary: Dict[str, object]
    error: Optional[str] = None
    saturated: bool = False


# ── Config parsing ───────────────────────────────────────────────────────────


def _require(d: dict, key: str, kind, what: str):
    if key not in d:
        raise ConfigError(f"missing required key {key!r} in {what}")
    v = d[key]
    if kind is float and isinstance(v, int) and not isinstance(v, bool):
        v = float(v)
    if not isinstance(v, kind) or isinstance(v, bool):
        raise ConfigError(f"{what}.{key} must be {kind.__name__}, got {type(v).__name__}")
    return v


def _model_from_dict(d: dict) -> ModelConfig:
    if not isinstance(d, dict):
        raise ConfigError("model must be an object")
    allowed = {"model", "energy", "alpha1", "alpha2", "theta0"}
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown model keys: {sorted(unknown)}")
    name = _require(d, "model", str, "model")
    try:
        model = Model(name)
    except ValueError:
        raise ConfigError(f"model must be one of I, II, III, IV, got {name!r}") from None
    kwargs = {}
    for opt in ("alpha1", "alpha2", "theta0"):
        if opt in d:
            v = d[opt]
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise ConfigError(f"model.{opt} must be a number")
            kwargs[opt] = float(v)
    energy = _require(d, "energy", float, "model")
    try:
        return ModelConfig(model=model, energy=float(energy), **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _float_grid(d: dict, key: str, default: Tuple[float, ...]) -> Tuple[float, ...]:
    if key not in d:
        return default
    v = d[key]
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{key} must be a nonempty list")
    out = []
    for item in v:
        if not isinstance(item, (int, float)) or isinstance(item, bool):
            raise ConfigError(f"{key} entries must be numbers")
        out.append(float(item))
    return tuple(out)


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be an object")
    allowed = {
        "experiment", "model", "alpha_grid", "energy_grid", "n_grid",
        "n_seeds", "master_seed", "output_dir", "workers", "spectrum", "mixing",
    }
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")

    experiment = _require(raw, "experiment", str, "configuration")
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"experiment must be one of {', '.join(EXPERIMENTS)}, got {experiment!r}"
        )
    model = _model_from_dict(raw.get("model"))

    default_alpha = model.alpha2 if model.model is Model.III else model.alpha1
    alpha_grid = _float_grid(raw, "alpha_grid", (default_alpha,) if default_alpha else ())
    if not alpha_grid:
        raise ConfigError("alpha_grid is required when the model declares no alpha")
    energy_grid = _float_grid(raw, "energy_grid", (model.energy,))

    if "n_grid" not in raw:
        raise ConfigError("missing required key 'n_grid' in configuration")
    n_raw = raw["n_grid"]
    if not isinstance(n_raw, list) or not n_raw:
        raise ConfigError("n_grid must be a nonempty list")
    n_grid = []
    for item in n_raw:
        if not isinstance(item, int) or isinstance(item, bool) or item < 1:
            raise ConfigError("n_grid entries must be positive integers")
        n_grid.append(item)

    n_seeds = _require(raw, "n_seeds", int, "configuration")
    if n_seeds < 1:
        raise ConfigError("n_seeds must be a positive integer")
    master_seed = _require(raw, "master_seed", int, "configuration")
    if master_seed < 0:
        raise ConfigError("master_seed must be a nonnegative integer")

    output_dir = raw.get("output_dir", "out")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("output_dir must be a nonempty string")
    workers = raw.get("workers", 1)
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise ConfigError("workers must be a positive integer")

    spectrum = SpectrumOpts()
    if "spectrum" in raw:
        sd = raw["spectrum"]
        if not isinstance(sd, dict):
            raise ConfigError("spectrum must be an object")
        s_allowed = {"lambda_min", "lambda_max", "max_eigenvalues", "scale_exponent"}
        s_unknown = set(sd) - s_allowed
        if s_unknown:
            raise ConfigError(f"unknown spectrum keys: {sorted(s_unknown)}")
        lam_min = sd.get("lambda_min")
        lam_max = sd.get("lambda_max")
        for nm, v in (("lambda_min", lam_min), ("lambda_max", lam_max)):
            if v is not None and (not isinstance(v, (int, float)) or isinstance(v, bool)):
                raise ConfigError(f"spectrum.{nm} must be a number")
            # json reads NaN and Infinity as floats
            if v is not None and not math.isfinite(v):
                raise ConfigError(f"spectrum.{nm} must be finite, got {v!r}")
        if lam_min is not None and lam_max is not None and not lam_min < lam_max:
            raise ConfigError(
                f"spectrum.lambda_min {lam_min!r} must lie below lambda_max {lam_max!r}")
        if experiment == "spectrum" and lam_min is not None and lam_max is None:
            for energy in energy_grid:
                if not lam_min < energy:
                    raise ConfigError(
                        f"spectrum.lambda_min {lam_min!r} must lie below the cell energy "
                        f"{energy!r}, the default lambda_max")
        max_eig = sd.get("max_eigenvalues", 1)
        if not isinstance(max_eig, int) or isinstance(max_eig, bool) or max_eig < 1:
            raise ConfigError("spectrum.max_eigenvalues must be a positive integer")
        scale_exp = sd.get("scale_exponent", 1.0)
        if not isinstance(scale_exp, (int, float)) or isinstance(scale_exp, bool) or scale_exp <= 0:
            raise ConfigError("spectrum.scale_exponent must be a positive number")
        spectrum = SpectrumOpts(
            lambda_min=None if lam_min is None else float(lam_min),
            lambda_max=None if lam_max is None else float(lam_max),
            max_eigenvalues=max_eig,
            scale_exponent=float(scale_exp),
        )

    mixing = MixingOpts()
    if "mixing" in raw:
        md = raw["mixing"]
        if not isinstance(md, dict):
            raise ConfigError("mixing must be an object")
        m_unknown = set(md) - {"initial_points"}
        if m_unknown:
            raise ConfigError(f"unknown mixing keys: {sorted(m_unknown)}")
        pts = md.get("initial_points", list(MixingOpts().initial_points))
        if not isinstance(pts, list) or len(pts) < 2:
            raise ConfigError("mixing.initial_points must be a list of at least two numbers")
        for p in pts:
            if not isinstance(p, (int, float)) or isinstance(p, bool):
                raise ConfigError("mixing.initial_points entries must be numbers")
        mixing = MixingOpts(initial_points=tuple(float(p) for p in pts))

    cfg = ExperimentConfig(
        experiment=experiment,
        model=model,
        alpha_grid=alpha_grid,
        energy_grid=energy_grid,
        n_grid=tuple(n_grid),
        n_seeds=n_seeds,
        master_seed=master_seed,
        output_dir=output_dir,
        workers=workers,
        spectrum=spectrum,
        mixing=mixing,
    )
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
    res = sweep_chains(spec.cell_config, spec.n, spec.n_seeds, _task_stream(spec),
                       want_log_norm=True)
    rec = res.final()
    over_x = rec.log_norm / rec.x
    for seed in range(spec.n_seeds):
        rows.append((seed, "log_norm", float(rec.log_norm[seed])))
        rows.append((seed, "log_norm_over_x", float(over_x[seed])))
    summary["median_log_norm_over_x"] = float(np.median(over_x))
    if spec.n_seeds > 1:
        ci = mean_ci(over_x)
        summary["mean_log_norm_over_x"] = ci.mean
        summary["ci_half_width"] = ci.half_width


def _run_ids(spec: TaskSpec, rows, summary) -> None:
    est = estimate_ids(spec.cell_config, spec.n, spec.n_seeds, _task_stream(spec), IdsScale.LINEAR)
    for seed in range(spec.n_seeds):
        rows.append((seed, "rotation_per_unit_length", float(est.values[seed])))
    summary["median_rotation_per_unit_length"] = float(np.median(est.values))


def _run_nonlinear(spec: TaskSpec, rows, summary) -> None:
    lya, ids = estimate_lyapunov_and_ids(spec.cell_config, spec.n, spec.n_seeds,
                                         _task_stream(spec), LyapunovScale.NONLINEAR_ALPHA,
                                         IdsScale.NONLINEAR_ALPHA)
    for seed in range(spec.n_seeds):
        rows.append((seed, "lyapunov_scaled", float(lya.values[seed])))
        rows.append((seed, "ids_scaled", float(ids.values[seed])))
    summary["median_lyapunov_scaled"] = float(np.median(lya.values))
    summary["median_ids_scaled"] = float(np.median(ids.values))


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
        values[lo:hi] = darling_ratios(block)
    for seed in range(spec.n_seeds):
        rows.append((seed, "max_over_sum", float(values[seed])))
    ci = mean_ci(values) if spec.n_seeds > 1 else None
    summary["mean_max_over_sum"] = float(values.mean())
    if ci is not None:
        summary["ci_half_width"] = ci.half_width


def _run_mixing(spec: TaskSpec, rows, summary) -> None:
    pts = spec.mixing.initial_points
    ks = chain_mixing(spec.cell_config, spec.n, pts, spec.n_seeds, _task_stream(spec))
    m = len(pts)
    for step in range(spec.n):
        for i in range(m):
            for j in range(i + 1, m):
                rows.append((-1, f"ks_step{step + 1:03d}_pair{i}_{j}", float(ks[step, i, j])))
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
            except ValueError:
                continue
            slopes.append(slope)
            rsqs.append(rsq)
            rows.append((seed, f"decay_slope_{i}", float(slope)))
            rows.append((seed, f"decay_r_squared_{i}", float(rsq)))
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


def _csv_cell(x: float) -> str:
    return repr(float(x))


def _collect(cfg: ExperimentConfig, tasks: List[TaskSpec]) -> List[TaskOutcome]:
    if cfg.workers == 1 or len(tasks) == 1:
        return [run_task(t) for t in tasks]
    outcomes: List[Optional[TaskOutcome]] = [None] * len(tasks)
    with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
        for out in pool.map(run_task, tasks):
            outcomes[out.index] = out
    return [o for o in outcomes if o is not None]


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
    try:
        outcomes = _collect(cfg, tasks)
    except BrokenProcessPool as exc:
        return 5, f"worker process failed, no outputs written: {exc}"

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
        csv_path = os.path.join(cfg.output_dir, "results.csv")
        with open(csv_path, "w") as fh:
            fh.write(CSV_HEADER + "\n")
            for t, o in zip(tasks, outcomes):
                for seed, obs, value in o.rows:
                    fh.write(
                        f"{cfg.experiment},{t.cell_config.model.value},"
                        f"{_csv_cell(t.alpha)},{_csv_cell(t.energy)},{t.n},"
                        f"{seed},{obs},{_csv_cell(value)}\n"
                    )
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
    m = cfg.model
    model_d: Dict[str, object] = {"model": m.model.value, "energy": m.energy, "theta0": m.theta0}
    if m.alpha1 is not None:
        model_d["alpha1"] = m.alpha1
    if m.alpha2 is not None:
        model_d["alpha2"] = m.alpha2
    echo: Dict[str, object] = {
        "experiment": cfg.experiment,
        "model": model_d,
        "alpha_grid": list(cfg.alpha_grid),
        "energy_grid": list(cfg.energy_grid),
        "n_grid": list(cfg.n_grid),
        "n_seeds": cfg.n_seeds,
        "master_seed": cfg.master_seed,
    }
    if cfg.experiment == "spectrum":
        echo["spectrum"] = {
            "lambda_min": cfg.spectrum.lambda_min,
            "lambda_max": cfg.spectrum.lambda_max,
            "max_eigenvalues": cfg.spectrum.max_eigenvalues,
            "scale_exponent": cfg.spectrum.scale_exponent,
        }
    if cfg.experiment == "mixing":
        echo["mixing"] = {"initial_points": list(cfg.mixing.initial_points)}
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
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be an object")
    if workers is not None:
        raw = dict(raw, workers=workers)
    if output_dir is not None:
        raw = dict(raw, output_dir=output_dir)
    return config_from_dict(raw)


def main(argv: Optional[Sequence[str]] = None) -> int:
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
