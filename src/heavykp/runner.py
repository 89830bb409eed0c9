"""Batch experiment runner with a small JSON-config CLI.

A run is a grid of cells (alpha, energy, n) for one experiment family, each
cell drawing from its own derived RNG stream and each seed of a cell from
its own child of that stream.  Work goes out in blocks of at most
BLOCK_SEEDS (1024) seeds: a lyapunov, ids, nonlinear or darling cell is cut
at the multiples of 1024, and a mixing or spectrum cell is one block.  At
--workers N the parent process is one of the N: it runs every N-th block
itself and forks N - 1 children (POSIX fork; fewer when the grid has fewer
blocks), each of which runs its own fixed share of the rest and hands its
blocks back through a pipe (_collect); a grid of one block forks nothing.
A block's values do not depend on how the cell is cut, so results are
byte-identical for any --workers, and equal to a sweep of the whole cell in
one call.  Outputs land in one directory:

    results.csv     one row per (cell, seed, observable), repr-encoded floats
    summary.json    per-cell aggregates plus experiment-level statistics
    manifest.json   config echo, code version, master seed

A block's rows are formatted once, by the process that measured it
(run_task), so the children share that work.  The parent joins each
cell's blocks in seed order and builds the cell's summary from their
columns (_cell_outcome); results.csv is the header, then the blocks' texts
in task and seed order.  The three files are written as one set,
manifest.json last, so a manifest.json marks a complete set from one run
(_write_outputs).

Exit codes: 0 success, 2 invalid configuration, 3 I/O failure, 4 numeric
saturation (the offending task is named in the diagnostic and the summary;
in a cell of several blocks, the lowest failed block's error), 5 a child
process could not be started or exited without handing back its blocks (it
was killed, exited nonzero or wrote an unreadable result; no output file is
written), 130 or 143 the run was interrupted by SIGINT or SIGTERM (128 +
the signal number).
On an interrupt the run stops its own share of the blocks and kills and
reaps the child processes at once; an interrupt during the grid
writes nothing, and one during the final writes leaves no manifest.json or
a complete set, as a failed write does.  Children ignore SIGINT, so a
terminal's Ctrl-C reaches the parent alone.  A hard crash of the parent in
its own share of the blocks ends the run with no output written either.

Usage:

    heavykp run config.json [--workers N] [--output-dir PATH]
    heavykp validate config.json
"""
from __future__ import annotations

import json
import math
import os
import pickle
import sys
from dataclasses import asdict, dataclass, field, fields
from typing import BinaryIO, Dict, List, Optional, Sequence, Tuple

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

# Seeds per unit of work: a lyapunov, ids, nonlinear or darling cell is cut
# into blocks at the multiples of this, whatever the worker count or host,
# so that a large cell is shared among the workers and every seed's values
# come from the same block on every run.
BLOCK_SEEDS = 1024

# Variates per darling draw: the seeds of a cell are drawn in blocks of about
# this many elements, which keeps a worker's memory flat in n_seeds.
_DARLING_BLOCK_ELEMENTS = 1 << 15


class ConfigError(ValueError):
    """Configuration rejected; the message is the user-facing diagnostic."""


class Interrupted(BaseException):
    """SIGINT or SIGTERM arrived during a run; args[0] is the signal number.
    Not an Exception, so that _attempt does not take it for a failed cell."""


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
    """One grid cell: everything a worker needs.  The children of _collect
    receive their specs by fork; only BlockOutcomes are pickled."""

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
class BlockOutcome:
    """A block's columns (see _BODIES) and its rows' text, or the error that stopped it."""

    columns: Optional[Dict[str, object]]
    text: str = ""
    error: Optional[str] = None
    saturated: bool = False


@dataclass
class TaskOutcome:
    """A cell's joined columns, summary and blocks' texts in seed order, or, for
    a failed cell, no columns, no texts and the error that stopped it."""

    columns: Optional[Dict[str, object]]
    cell_summary: Dict[str, object]
    texts: List[str] = field(default_factory=list)
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


def _spectrum_from_dict(v, experiment: str, model: Model,
                        energy_grid: Tuple[float, ...]) -> SpectrumOpts:
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
    if (experiment == "spectrum" and lo is None and hi is not None
            and model in (Model.I, Model.III) and not -1.0 < hi):
        # every potential of these models is nonnegative, so _spectrum_block's
        # default lambda_min is exactly -1
        raise ConfigError(f"spectrum.lambda_max {hi!r} must lie above -1.0, the default "
                          f"lambda_min of model {model.value}")
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
    alpha_grid = (_entries(raw["alpha_grid"], "alpha_grid", _number, "finite numbers")
                  if "alpha_grid" in raw
                  else (model.alpha2 if _sweeps_gaps(model.model) else model.alpha1,))
    energy_grid = (_entries(raw["energy_grid"], "energy_grid", _number, "finite numbers")
                   if "energy_grid" in raw else (model.energy,))
    n_grid = _entries(_require(raw, "n_grid", "configuration"), "n_grid", _integer,
                      "positive integers")
    for key, grid in (("alpha_grid", alpha_grid), ("energy_grid", energy_grid),
                      ("n_grid", n_grid)):
        seen = set()  # a cell is looked up by its (alpha, energy, n)
        for x in grid:
            if x in seen:
                raise ConfigError(f"{key} values must be distinct, got {x!r} twice")
            seen.add(x)
    n_seeds = _integer(_require(raw, "n_seeds", "configuration"), "n_seeds")
    master_seed = _integer(_require(raw, "master_seed", "configuration"), "master_seed",
                           least=0)
    if master_seed >= 2 ** 64:  # the streams take it modulo 2^64
        raise ConfigError(f"master_seed must be below 2^64, got {master_seed}")

    opts = {}
    if "output_dir" in raw:
        if not isinstance(raw["output_dir"], str) or not raw["output_dir"]:
            raise ConfigError("output_dir must be a nonempty string")
        opts["output_dir"] = raw["output_dir"]
    if "workers" in raw:
        opts["workers"] = _integer(raw["workers"], "workers")
    if "spectrum" in raw:
        opts["spectrum"] = _spectrum_from_dict(raw["spectrum"], experiment, model.model,
                                                energy_grid)
    if "mixing" in raw:
        opts["mixing"] = _mixing_from_dict(raw["mixing"])
    if experiment == "mixing":  # refused here, or every cell would fail in chain_mixing
        if model.model is not Model.I:
            raise ConfigError(f"model must be I for mixing (the phase chain is a Model I "
                              f"construction), got {model.model.value!r}")
        if n_seeds < 2:
            raise ConfigError(f"n_seeds must be at least 2 for mixing, got {n_seeds}")
    cfg = ExperimentConfig(experiment=experiment, model=model, alpha_grid=alpha_grid,
                           energy_grid=energy_grid, n_grid=n_grid, n_seeds=n_seeds,
                           master_seed=master_seed, **opts)
    build_tasks(cfg)  # validates every grid cell
    return cfg


def _sweeps_gaps(model: Model) -> bool:
    """Whether an alpha grid sweeps alpha2 (model III's gap lengths) rather than
    alpha1 (the bump heights of the other models): the index of the model's
    primary heavy-tailed block, the first of its draws."""
    return model is Model.III


def _cell_model(base: ModelConfig, alpha: float, energy: float) -> ModelConfig:
    """Rebuild the model with the cell's swept alpha and energy.

    The swept alpha fills the index _sweeps_gaps names; model IV keeps alpha2
    from the model block.
    """
    kwargs = dict(energy=energy, theta0=base.theta0)
    if _sweeps_gaps(base.model):
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
    for alpha in cfg.alpha_grid:
        for energy in cfg.energy_grid:
            cell = _cell_model(cfg.model, alpha, energy)
            for n in cfg.n_grid:
                tasks.append(TaskSpec(
                    index=len(tasks), experiment=cfg.experiment, cell_config=cell, alpha=alpha,
                    energy=energy, n=n, n_seeds=cfg.n_seeds, master_seed=cfg.master_seed,
                    spectrum=cfg.spectrum, mixing=cfg.mixing))
    return tasks


# ── Per-experiment task bodies ───────────────────────────────────────────────
# Each experiment has three bodies.  The first measures seeds lo..hi-1 of a
# cell and returns their columns, arrays or lists over those seeds (a mixing
# cell, one block, returns its KS distances), and the second formats them as
# the block's results.csv text: run_task runs both on a block (_blocks).  The
# third builds a cell's summary from its blocks' columns joined in seed order.


def _task_stream(spec: TaskSpec) -> RngStream:
    return split_stream(RngStream(spec.master_seed), spec.index)


def _row_prefix(spec: TaskSpec) -> str:
    """The cell's leading columns; every float of a row is written as repr(float(x))."""
    return (f"{spec.experiment},{spec.cell_config.model.value},"
            f"{float(spec.alpha)!r},{float(spec.energy)!r},{spec.n},")


# experiment -> its (column, observable) pairs: a lyapunov, ids, nonlinear or
# darling block writes one row per pair for each seed, in this order
_OBSERVABLES = {
    "lyapunov": (("log_norm", "log_norm"), ("over_x", "log_norm_over_x")),
    "ids": (("rotation", "rotation_per_unit_length"),),
    "nonlinear": (("lyapunov", "lyapunov_scaled"), ("ids", "ids_scaled")),
    "darling": (("max_over_sum", "max_over_sum"),),
}


def _seed_rows(spec: TaskSpec, cols, lo: int) -> str:
    """The block's rows by _OBSERVABLES, its seeds numbered from lo."""
    pairs = _OBSERVABLES[spec.experiment]
    prefix = _row_prefix(spec)
    lines = [""] * (len(pairs) * len(cols[pairs[0][0]]))
    for i, (name, obs) in enumerate(pairs):
        lines[i::len(pairs)] = [f"{prefix}{seed},{obs},{v!r}\n"
                                for seed, v in enumerate(cols[name].tolist(), lo)]
    return "".join(lines)


def _medians(spec: TaskSpec, cols, summary) -> None:
    """The ids and nonlinear summary: median_<observable> of every column."""
    for name, obs in _OBSERVABLES[spec.experiment]:
        summary[f"median_{obs}"] = float(np.median(cols[name]))


def _sweep_block(spec: TaskSpec, lo: int, hi: int) -> dict:
    """The lyapunov, ids or nonlinear columns of seeds lo..hi-1, from one sweep."""
    experiment = spec.experiment
    rec = sweep_chains(spec.cell_config, spec.n, hi - lo, _task_stream(spec), first_seed=lo,
                       want_theta=experiment != "lyapunov", want_log_norm=experiment != "ids")
    if experiment == "lyapunov":
        return {"log_norm": rec.log_norm, "over_x": rec.log_norm / rec.x}
    if experiment == "ids":
        return {"rotation": rec.theta / (math.pi * rec.x)}
    lya_norm, rot_norm = nonlinear_normalizers(spec.cell_config, spec.n, rec.x)
    return {"lyapunov": rec.log_norm / lya_norm, "ids": rec.theta / (math.pi * rot_norm)}


def _lyapunov_summary(spec: TaskSpec, cols, summary) -> None:
    over_x = cols["over_x"]
    summary["median_log_norm_over_x"] = float(np.median(over_x))
    if spec.n_seeds > 1:
        ci = mean_ci(over_x)
        summary["mean_log_norm_over_x"], summary["ci_half_width"] = ci.mean, ci.half_width


def _darling_block(spec: TaskSpec, lo: int, hi: int) -> dict:
    """Max-over-sum of the model's primary heavy-tailed block, one value per seed."""
    cfg = spec.cell_config
    heights, gaps = (None, cfg.alpha2) if _sweeps_gaps(cfg.model) else (cfg.alpha1, None)
    base = _task_stream(spec)
    values = np.empty(hi - lo)
    chunk = max(1, _DARLING_BLOCK_ELEMENTS // spec.n)
    for a in range(lo, hi, chunk):
        b = min(hi, a + chunk)
        (draws,) = draw_block(base.seed, split_ids(base, a, b), spec.n,
                              heights=heights, gaps=gaps)
        try:
            values[a - lo:b - lo] = darling_ratios(draws)
        except SaturationError as exc:  # name the seed: row 0 of the draws is seed a
            raise SaturationError(f"darling draws of seeds {a}..{b - 1}, {exc}") from None
    return {"max_over_sum": values}


def _darling_summary(spec: TaskSpec, cols, summary) -> None:
    values = cols["max_over_sum"]
    summary["mean_max_over_sum"] = float(values.mean())
    if spec.n_seeds > 1:
        summary["ci_half_width"] = mean_ci(values).half_width


def _mixing_block(spec: TaskSpec, lo: int, hi: int) -> dict:
    """The KS distances of every seed: a mixing cell is one block."""
    return {"ks": chain_mixing(spec.cell_config, spec.n, spec.mixing.initial_points,
                               spec.n_seeds, _task_stream(spec))}


def _mixing_rows(spec: TaskSpec, cols, lo: int) -> str:
    """One seed -1 row per step and pair of starting points."""
    prefix = _row_prefix(spec)
    points = range(len(spec.mixing.initial_points))
    pairs = [(i, j) for i in points for j in points if i < j]
    return "".join([f"{prefix}-1,ks_step{step:03d}_pair{i}_{j},{dist[i][j]!r}\n"
                    for step, dist in enumerate(cols["ks"].tolist(), start=1) for i, j in pairs])


def _mixing_summary(spec: TaskSpec, cols, summary) -> None:
    # Doubling ratios are meaningful only while the earlier KS value sits
    # above the quantization floor of n_seeds-sample ECDFs (a single-count
    # difference is 1/n_seeds; below 1.5 counts the chains have collapsed).
    floor = 1.5 / spec.n_seeds
    per_step_max = cols["ks"].max(axis=(1, 2))
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


def _spectrum_block(spec: TaskSpec, lo: int, hi: int) -> dict:
    """Per seed, the located eigenvalues and their decay fits (None where refused)."""
    cfg = spec.cell_config
    opts = spec.spectrum
    base = _task_stream(spec)
    cols: Dict[str, list] = {"eigenvalues": [], "fits": []}
    for seed in range(lo, hi):
        real = generate(cfg, spec.n, split_stream(base, seed))
        problem = BoxProblem(realization=real, theta0=cfg.theta0, L_box=real.total_length)
        lam_min = (opts.lambda_min if opts.lambda_min is not None
                   else min(0.0, float(problem.values.min())) - 1.0)
        lam_max = opts.lambda_max if opts.lambda_max is not None else cfg.energy
        found = [float(lam) for lam in find_eigenvalues(problem, lam_min, lam_max,
                                                         max_count=opts.max_eigenvalues)]
        fits = []
        for lam in found:
            try:
                slope, rsq = decay_fit(problem, lam, opts.scale_exponent)
            except ValueError:  # the box cannot support a fit, e.g. too few boundaries
                fits.append(None)
                continue
            fits.append((float(slope), float(rsq)))
        cols["eigenvalues"].append(found)
        cols["fits"].append(fits)
    return cols


def _spectrum_rows(spec: TaskSpec, cols, lo: int) -> str:
    """Per seed from lo, each eigenvalue's row, then its decay fit's two unless refused."""
    prefix = _row_prefix(spec)
    lines = []
    for seed, (found, fits) in enumerate(zip(cols["eigenvalues"], cols["fits"]), lo):
        for i, (lam, fit) in enumerate(zip(found, fits)):
            lines.append(f"{prefix}{seed},eigenvalue_{i},{lam!r}\n")
            if fit is not None:
                lines.append(f"{prefix}{seed},decay_slope_{i},{fit[0]!r}\n")
                lines.append(f"{prefix}{seed},decay_r_squared_{i},{fit[1]!r}\n")
    return "".join(lines)


def _spectrum_summary(spec: TaskSpec, cols, summary) -> None:
    fits = [fit for seed_fits in cols["fits"] for fit in seed_fits]
    done = [fit for fit in fits if fit is not None]
    summary["decay_fits_refused"] = len(fits) - len(done)
    if done:
        slopes, rsqs = np.asarray(done).T
        summary["fraction_negative_slope"] = float((slopes < 0.0).mean())
        summary["median_r_squared"] = float(np.median(rsqs))


# experiment -> (columns of a block, the block's rows, summary of a cell's columns)
_BODIES = {
    "lyapunov": (_sweep_block, _seed_rows, _lyapunov_summary),
    "ids": (_sweep_block, _seed_rows, _medians),
    "nonlinear": (_sweep_block, _seed_rows, _medians),
    "darling": (_darling_block, _seed_rows, _darling_summary),
    "mixing": (_mixing_block, _mixing_rows, _mixing_summary),
    "spectrum": (_spectrum_block, _spectrum_rows, _spectrum_summary),
}


def _blocks(spec: TaskSpec) -> List[Tuple[int, int]]:
    """The cell's seed blocks (lo, hi), in seed order: cut at the multiples of
    BLOCK_SEEDS, or one block for a mixing or spectrum cell."""
    if spec.experiment in ("mixing", "spectrum"):
        return [(0, spec.n_seeds)]
    return [(lo, min(spec.n_seeds, lo + BLOCK_SEEDS))
            for lo in range(0, spec.n_seeds, BLOCK_SEEDS)]


def _attempt(body, *args) -> Tuple[object, Optional[str], bool]:
    """(body(*args), None, False), or (None, error, saturated) when it raises:
    crash isolation, so that the rest of the grid keeps going."""
    try:
        return body(*args), None, False
    except SaturationError as exc:
        return None, str(exc), True
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}", False


def run_task(spec: TaskSpec, lo: int, hi: int) -> BlockOutcome:
    """Measure seeds lo..hi-1 of one grid cell and format their results.csv
    rows; never raises (errors are carried in the outcome)."""
    block, rows, _ = _BODIES[spec.experiment]
    columns, error, saturated = _attempt(block, spec, lo, hi)
    if error is None:
        text, error, saturated = _attempt(rows, spec, columns, lo)
    if error is not None:
        return BlockOutcome(None, error=error, saturated=saturated)
    return BlockOutcome(columns, text)


def _cell_outcome(spec: TaskSpec, parts: List[BlockOutcome]) -> TaskOutcome:
    """A cell's joined columns, its summary and its blocks' texts, from the
    blocks' outcomes in seed order; the rows were formatted in the blocks.
    The lowest failed block's error fails the cell, which keeps no text."""
    for part in parts:
        if part.error is not None:
            return TaskOutcome(None, {}, error=part.error, saturated=part.saturated)
    cols = parts[0].columns if len(parts) == 1 else {
        key: np.concatenate([part.columns[key] for part in parts]) for key in parts[0].columns}
    summary: Dict[str, object] = {}
    _, error, saturated = _attempt(_BODIES[spec.experiment][2], spec, cols, summary)
    if error is not None:
        return TaskOutcome(None, {}, error=error, saturated=saturated)
    return TaskOutcome(cols, summary, [part.text for part in parts])


# ── Orchestration, output, CLI ───────────────────────────────────────────────


def _collect(workers: int,
             units: List[Tuple[TaskSpec, int, int]]) -> Tuple[List[BlockOutcome], Optional[str]]:
    """Every unit's outcome in unit order and None, or no outcomes and the
    first failed child's error when a worker process did not hand back its
    units.

    The work is split statically among n = min(N, len(units)) processes at
    --workers N: the parent runs units 0, n, 2n, ... itself and forks n - 1
    children, child w running units w, w + n, w + 2n, ...  At n = 1 (one
    worker or one unit) nothing forks and the parent runs every unit.  Each
    child sends its outcomes back pickled through its own pipe.  Once its
    share is done, the parent reads each pipe to EOF and reaps its child; a
    child that exits nonzero, is killed, or sends a result that does not
    unpickle fails the run, and so does a pipe or fork that fails (the
    children forked before it are killed and reaped).

    An exception in the parent (an Interrupted, a KeyboardInterrupt or a
    crash in its own share) kills and reaps the children before it
    propagates, so that none outlives the run or is left a zombie.
    """
    import signal

    n = min(workers, len(units))
    outcomes: List[Optional[BlockOutcome]] = [None] * len(units)
    children: Dict[int, BinaryIO] = {}  # pid -> the read end of its pipe, until reaped
    failures: List[str] = []
    try:
        for w in range(1, n):
            # A child must not run the parent's handlers before it has set
            # its own, and the parent must not stop between a fork and
            # recording the child, so SIGINT and SIGTERM wait while each
            # child is forked.
            held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT, signal.SIGTERM})
            try:
                read_end, write_end = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(read_end)
                    os.close(write_end)
                    raise
                if pid == 0:
                    os.close(read_end)
                    for pipe in children.values():
                        pipe.close()
                    _run_child(units[w::n], write_end)
                os.close(write_end)
                children[pid] = open(read_end, "rb")
            except OSError as exc:  # no pipe or no process (EMFILE, EAGAIN)
                return [], f"could not start a worker process: {exc}"
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, held)
        outcomes[::n] = [run_task(*unit) for unit in units[::n]]
        for w, (pid, pipe) in enumerate(list(children.items()), 1):
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if code > 0:
                failures.append(f"worker process {pid} exited with status {code}")
            elif code < 0:
                failures.append(f"worker process {pid} was killed by signal {-code}")
            else:
                try:
                    outcomes[w::n] = pickle.loads(data)
                except Exception as exc:  # unpickling raises more than UnpicklingError
                    failures.append(f"worker process {pid} handed back an unreadable "
                                    f"result: {exc!r}")
    finally:  # kill and reap the children an exception or a failed start left
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if failures:
        return [], failures[0]
    return outcomes, None


def _run_child(units: List[Tuple[TaskSpec, int, int]], write_end: int) -> None:
    """The body of a forked child of _collect: run the units and write their
    outcomes, pickled, to write_end.  It leaves by os._exit, with status 0
    only once the whole result is written, so that it never returns into
    the caller's stack, flushes the parent's buffers or runs its exit
    handlers."""
    code = 1
    try:
        _child_signals()
        outcomes = [run_task(*unit) for unit in units]
        with open(write_end, "wb") as fh:
            pickle.dump(outcomes, fh, protocol=pickle.HIGHEST_PROTOCOL)
        code = 0
    except BaseException:
        sys.excepthook(*sys.exc_info())
    finally:
        os._exit(code)


def _child_signals() -> None:
    """A forked child ignores SIGINT, which a terminal sends the whole process
    group, and dies on SIGTERM, whatever handlers and signal mask it
    inherited."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT, signal.SIGTERM})


def _nonlinear_doubling(tasks, outcomes) -> List[Dict[str, object]]:
    """KS(samples at n, samples at 4n) per (alpha, energy) where both sizes
    ran, read from the cells' lyapunov and ids columns."""
    cols = {(t.alpha, t.energy, t.n): o.columns for t, o in zip(tasks, outcomes)
            if o.error is None}
    entries = []
    for t in tasks:
        small = cols.get((t.alpha, t.energy, t.n))
        big = cols.get((t.alpha, t.energy, 4 * t.n))
        if small is None or big is None:
            continue
        entries.append({
            "alpha": t.alpha,
            "energy": t.energy,
            "n": t.n,
            "ks_lyapunov": ks_distance(small["lyapunov"], big["lyapunov"]),
            "ks_ids": ks_distance(small["ids"], big["ids"]),
        })
    return entries


def run_experiment(cfg: ExperimentConfig) -> Tuple[int, str]:
    """Run the grid and write outputs; returns (exit_code, diagnostic).

    The grid's cells are cut into blocks (_blocks) and run by _collect; each
    block comes back with its rows' text, and each cell's summary is built
    from its blocks' joined columns (_cell_outcome).  A child process that
    does not hand back its blocks (killed, exiting nonzero, or writing an
    unreadable result) makes the run return exit code 5 and write no output
    file.  The three files are written as one set (_write_outputs); a failed
    write returns exit code 3.
    """
    tasks = build_tasks(cfg)
    units = [(t, lo, hi) for t in tasks for lo, hi in _blocks(t)]
    parts, broken = _collect(cfg.workers, units)
    if broken is not None:
        return 5, f"worker process failed, no outputs written: {broken}"
    by_cell: List[List[BlockOutcome]] = [[] for _ in tasks]
    for (t, _, _), part in zip(units, parts):
        by_cell[t.index].append(part)
    outcomes = [_cell_outcome(t, cell_parts) for t, cell_parts in zip(tasks, by_cell)]

    saturated = [(t, o) for t, o in zip(tasks, outcomes) if o.saturated]
    cells = [{"alpha": t.alpha, "energy": t.energy, "n": t.n, **o.cell_summary}
             for t, o in zip(tasks, outcomes) if o.error is None]

    summary: Dict[str, object] = {
        "experiment": cfg.experiment,
        "model": cfg.model.model.value,
        "master_seed": cfg.master_seed,
        "n_seeds": cfg.n_seeds,
        "cells": cells,
        "failed_tasks": [
            {"task_index": t.index, "alpha": t.alpha, "energy": t.energy,
             "n": t.n, "error": o.error}
            for t, o in zip(tasks, outcomes) if o.error is not None
        ],
    }
    if cfg.experiment == "ids" and cells:
        meds = [c["median_rotation_per_unit_length"] for c in cells]
        summary["median_rotation_per_unit_length"] = float(np.median(meds))
    if cfg.experiment == "nonlinear":
        summary["ks_doubling"] = _nonlinear_doubling(tasks, outcomes)
    if cfg.experiment == "mixing" and cells:
        ratios = [c["fitted_doubling_ratio"] for c in cells if "fitted_doubling_ratio" in c]
        if ratios:
            summary["fitted_doubling_ratio"] = max(ratios)

    manifest = {"config": _config_echo(cfg), "code_version": _code_version(),
                "master_seed": cfg.master_seed}
    failure = _write_outputs(cfg.output_dir, (
        ("results.csv", lambda fh: fh.writelines([CSV_HEADER + "\n",
                                                  *(t for o in outcomes for t in o.texts)])),
        ("summary.json", lambda fh: _write_json(fh, summary)),
        ("manifest.json", lambda fh: _write_json(fh, manifest)),
    ))
    if failure:
        return 3, failure

    if saturated:
        t, o = saturated[0]
        return 4, (
            f"saturation in task {t.index} "
            f"(alpha={t.alpha!r}, energy={t.energy!r}, n={t.n}): {o.error}"
        )
    return 0, ""


def _write_json(fh, obj) -> None:
    json.dump(obj, fh, indent=2, sort_keys=True)
    fh.write("\n")


def _write_outputs(output_dir: str, writers) -> str:
    """Write the (file name, writer) pairs as one set; returns "" or the failure.

    Each file is written to a temporary in output_dir and renamed into place
    only once all of them are written; the old manifest.json is removed
    before the first rename and the new one renamed last.  So a manifest.json
    next to the other two means all three come from one run: a failed write
    leaves the earlier set as it was, and a failed rename leaves no
    manifest.json.  No temporary outlives the call; an OSError comes back as
    the failure, naming the step and the file.
    """
    step = "creating the output directory"
    temps = []
    try:
        os.makedirs(output_dir, exist_ok=True)
        for name, write in writers:
            step = f"writing {name}"
            temps.append(os.path.join(output_dir, f".{name}.{os.getpid()}.tmp"))
            with open(temps[-1], "w") as fh:
                write(fh)
        step = "replacing the earlier outputs"
        manifest = os.path.join(output_dir, "manifest.json")
        if os.path.lexists(manifest):
            os.remove(manifest)
        for (name, _), temp in zip(writers, temps):
            os.replace(temp, os.path.join(output_dir, name))
    except OSError as exc:
        return f"output failure: {step}: {exc}"
    finally:
        for temp in temps:
            if os.path.lexists(temp):
                os.remove(temp)
    return ""


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
        # a ValueError is a JSONDecodeError or a UnicodeDecodeError; a
        # RecursionError comes from nesting deeper than the parser's stack
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"malformed JSON in {path}: {exc}") from None
    return config_from_dict(raw, workers=workers, output_dir=output_dir)


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse  # these two here, so that importing the runner does not load them
    import signal

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

    def interrupted(signum, frame):
        # the first SIGINT or SIGTERM stops the run; later ones are ignored
        # while it winds down
        for other in (signal.SIGINT, signal.SIGTERM):
            signal.signal(other, signal.SIG_IGN)
        raise Interrupted(signum)

    handlers = {}
    try:
        for signum in (signal.SIGINT, signal.SIGTERM):
            handlers[signum] = signal.signal(signum, interrupted)
        code, diagnostic = run_experiment(cfg)
    except Interrupted as exc:
        signum = exc.args[0]
        print(f"interrupted by {signal.Signals(signum).name}", file=sys.stderr)
        return 128 + signum
    finally:
        for sig, handler in handlers.items():
            signal.signal(sig, handler)
    if code != 0:
        print(diagnostic, file=sys.stderr)
    else:
        print(f"wrote {os.path.join(cfg.output_dir, 'results.csv')}")
    return code


if __name__ == "__main__":
    sys.exit(main())
