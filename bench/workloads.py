"""The benchmark's workloads: which experiment configs each one runs.

Every workload is a list of named `heavykp run` configs plus the worker count
they run at.  Sizes come in two flavours: ``full`` is what the benchmark
measures, ``toy`` is a seconds-long shrink of the same shapes for the fast
test.  Master seeds are derived from the benchmark's ``--seed`` argument and
the config name, so one seed always yields the same inputs and two configs
never share a stream.

This module imports nothing from heavykp: the orchestrator uses it to write
config files before any timed interpreter has started.
"""
from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

SIZES = ("full", "toy")

# (seeds, bumps) per shape and size.  See README.md for why each shape exists.
_DIMS = {
    "full": {
        "sweep_seeds": 256, "sweep_n": 1000, "sweep_nonlinear_n": 256,
        "wide_seeds": 2000, "wide_lyapunov_n": 64, "wide_darling_n": 256,
        "wide_mixing_steps": 40, "wide_ids_n": 128,
        "spectrum_seeds": 3, "spectrum_n": 1000,
    },
    "toy": {
        "sweep_seeds": 16, "sweep_n": 64, "sweep_nonlinear_n": 16,
        "wide_seeds": 64, "wide_lyapunov_n": 16, "wide_darling_n": 32,
        "wide_mixing_steps": 10, "wide_ids_n": 32,
        "spectrum_seeds": 1, "spectrum_n": 60,
    },
}

WORKERS = {"sweep": 1, "wide": 2, "spectrum": 1}

WORKLOADS = tuple(WORKERS)


def master_seed(workload: str, name: str, seed: int) -> int:
    """A 31-bit master seed that depends only on (workload, config name, seed)."""
    digest = hashlib.sha256(f"{workload}/{name}/{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def _shapes(workload: str, d: Dict[str, int]) -> List[Tuple[str, dict]]:
    if workload == "sweep":
        s, n, nl = d["sweep_seeds"], d["sweep_n"], d["sweep_nonlinear_n"]
        return [
            ("lyapunov_I", {"experiment": "lyapunov",
                            "model": {"model": "I", "energy": 1.0, "alpha1": 0.5},
                            "alpha_grid": [0.3, 0.7], "n_grid": [n], "n_seeds": s}),
            ("ids_III", {"experiment": "ids",
                         "model": {"model": "III", "energy": 1.0, "alpha2": 0.6},
                         "n_grid": [n], "n_seeds": s}),
            # n and 4n in one grid, so the runner's doubling KS runs
            ("nonlinear_II", {"experiment": "nonlinear",
                              "model": {"model": "II", "energy": 1.0, "alpha1": 0.5},
                              "n_grid": [nl, 4 * nl], "n_seeds": s}),
            ("nonlinear_IV", {"experiment": "nonlinear",
                              "model": {"model": "IV", "energy": 1.0, "alpha1": 0.5,
                                        "alpha2": 0.6},
                              "n_grid": [nl, 4 * nl], "n_seeds": s}),
        ]
    if workload == "wide":
        s = d["wide_seeds"]
        return [
            ("lyapunov_I_grid", {"experiment": "lyapunov",
                                 "model": {"model": "I", "energy": 1.0, "alpha1": 0.5},
                                 "alpha_grid": [0.3, 0.45, 0.6, 0.75],
                                 "n_grid": [d["wide_lyapunov_n"]], "n_seeds": s}),
            ("darling_IV", {"experiment": "darling",
                            "model": {"model": "IV", "energy": 1.0, "alpha1": 0.5,
                                      "alpha2": 0.6},
                            "alpha_grid": [0.4, 0.7],
                            "n_grid": [d["wide_darling_n"]], "n_seeds": s}),
            ("mixing_I", {"experiment": "mixing",
                          "model": {"model": "I", "energy": 1.0, "alpha1": 0.5},
                          "n_grid": [d["wide_mixing_steps"]], "n_seeds": s}),
            # alpha1 = 0.02 squares Frechet variates past float range for a
            # share of seeds; the resulting NaN rows are counted, not hidden
            ("ids_II_small_alpha", {"experiment": "ids",
                                    "model": {"model": "II", "energy": 1.0, "alpha1": 0.02},
                                    "n_grid": [d["wide_ids_n"]], "n_seeds": s}),
        ]
    if workload == "spectrum":
        s, n = d["spectrum_seeds"], d["spectrum_n"]
        return [
            # energy 0 puts the window below the wells' rim: bound states only
            ("spectrum_II_wells", {"experiment": "spectrum",
                                   "model": {"model": "II", "energy": 0.0, "alpha1": 0.5},
                                   "n_grid": [n], "n_seeds": s,
                                   "spectrum": {"max_eigenvalues": 2}}),
            ("spectrum_I_window", {"experiment": "spectrum",
                                   "model": {"model": "I", "energy": 1.0, "alpha1": 0.5},
                                   "n_grid": [n], "n_seeds": s,
                                   "spectrum": {"lambda_min": 0.25, "lambda_max": 1.0,
                                                "max_eigenvalues": 2,
                                                "scale_exponent": 2.0}}),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def configs(workload: str, size: str, seed: int) -> List[Tuple[str, dict]]:
    """Named raw configs of a workload; output_dir and workers are set by the caller."""
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    out = []
    for name, raw in _shapes(workload, _DIMS[size]):
        out.append((name, dict(raw, master_seed=master_seed(workload, name, seed))))
    return out


def _alpha_energy_pairs(raw: dict) -> int:
    return len(raw.get("alpha_grid", [None])) * len(raw.get("energy_grid", [None]))


def n_cells(raw: dict) -> int:
    """Grid cells of a config: alpha x energy x n, as the runner builds them."""
    return _alpha_energy_pairs(raw) * len(raw["n_grid"])


def lane_steps(raw: dict) -> int:
    """Seeds x bumps over the config's cells: the chain work the user asked for."""
    return _alpha_energy_pairs(raw) * sum(raw["n_grid"]) * raw["n_seeds"]


def size_facts(workload: str, size: str) -> Dict[str, object]:
    """The dimensions a workload ran at, for the run's facts record."""
    prefix = workload + "_"
    return {k[len(prefix):]: v for k, v in _DIMS[size].items() if k.startswith(prefix)}
