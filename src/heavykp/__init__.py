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
    darling_ratio,
    ids_trace,
    lyapunov_trace,
    nonlinear_normalizers,
    sweep_chains,
)
from .potentials import (
    Model,
    ModelConfig,
    Piece,
    PieceKind,
    Realization,
    generate,
    realization_from_csv,
)
from .prufer import TraceRecord, boundary_theta
from .rng import (
    RngStream,
    TailKind,
    TailLaw,
    frechet_cdf,
    frechet_from_uniform,
    frechet_tail,
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
    phase_trace,
)
from .stats import Ecdf, LinearFit, MeanCi, ks_distance, linear_fit, mean_ci
from .transfer import EnergyFrame, SaturationError, det_defect

__all__ = [
    "__version__",
    # rng
    "RngStream", "TailKind", "TailLaw", "split_stream",
    "sample_stable_oracle", "frechet_from_uniform", "frechet_tail", "frechet_cdf",
    # transfer
    "EnergyFrame", "SaturationError", "det_defect",
    # potentials
    "Model", "ModelConfig", "Piece", "PieceKind", "Realization",
    "generate", "realization_from_csv",
    # prufer
    "TraceRecord", "boundary_theta",
    # estimators
    "sweep_chains", "nonlinear_normalizers",
    "lyapunov_trace", "ids_trace", "darling_ratio", "chain_mixing",
    # spectrum
    "BoxProblem", "boundary_phase", "phase_trace",
    "count_below", "find_eigenvalues", "decay_fit", "EigenvalueSearchError",
    # stats
    "Ecdf", "LinearFit", "MeanCi", "ks_distance", "linear_fit", "mean_ci",
]
