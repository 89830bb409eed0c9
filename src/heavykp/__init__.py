"""Simulation tools for one-dimensional chains with heavy-tailed randomness.

Piecewise-constant random potentials (dense or sparse bumps, signed or not,
with Frechet-tailed heights and gaps) are propagated exactly through transfer
matrices and the Prufer phase flow; on top of that sit estimators for
Lyapunov exponents on linear and heavy-tail scales, rotation numbers and the
integrated density of states, stable-limit diagnostics, phase-chain mixing,
and a finite-box spectral solver.  The ``heavykp`` CLI batches all of it over
parameter grids with reproducible, seed-splittable randomness.
"""

__version__ = "0.1.0"

from .estimators import (
    chain_mixing,
    chain_trace,
    darling_ratio,
    nonlinear_normalizers,
    sweep_chains,
)
from .potentials import (
    Model,
    ModelConfig,
    Realization,
    generate,
    realization_from_csv,
)
from .prufer import boundary_theta
from .rng import (
    RngStream,
    sample_stable_oracle,
    split_stream,
)
from .spectrum import (
    BoxProblem,
    EigenvalueSearchError,
    boundary_phase,
    count_below,
    decay_fit,
    find_eigenvalues,
)
from .stats import LinearFit, MeanCi, ks_distance, linear_fit, mean_ci
from .transfer import EnergyFrame, SaturationError, det_defect

__all__ = [
    "__version__",
    # rng
    "RngStream", "split_stream",
    "sample_stable_oracle",
    # transfer
    "EnergyFrame", "SaturationError", "det_defect",
    # potentials
    "Model", "ModelConfig", "Realization",
    "generate", "realization_from_csv",
    # prufer
    "boundary_theta",
    # estimators
    "sweep_chains", "nonlinear_normalizers",
    "chain_trace", "darling_ratio", "chain_mixing",
    # spectrum
    "BoxProblem", "boundary_phase",
    "count_below", "find_eigenvalues", "decay_fit", "EigenvalueSearchError",
    # stats
    "LinearFit", "MeanCi", "ks_distance", "linear_fit", "mean_ci",
]
