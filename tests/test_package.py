"""The package root's public surface: exactly these names, each resolving,
the fields and parameters of the chain and sweep types, and the README's
quick start running as written."""
import dataclasses
import inspect
import re
from pathlib import Path

import heavykp
from heavykp.estimators import SweepRecord

PUBLIC = {
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
    "chain_trace", "darling_ratio", "chain_mixing",
    # spectrum
    "BoxProblem", "boundary_phase", "phase_trace",
    "count_below", "find_eigenvalues", "decay_fit", "EigenvalueSearchError",
    # stats
    "Ecdf", "LinearFit", "MeanCi", "ks_distance", "linear_fit", "mean_ci",
}


def test_all_is_pinned_and_every_name_resolves():
    assert len(heavykp.__all__) == len(PUBLIC) == 39
    assert set(heavykp.__all__) == PUBLIC
    namespace = {}
    exec("from heavykp import *", namespace)
    for name in heavykp.__all__:
        assert getattr(heavykp, name) is namespace[name]


def test_flow_and_sampler_internals_live_in_their_modules():
    from heavykp import prufer, rng

    for module, names in ((prufer, ("PruferState", "advance_interval", "phase_fold")),
                          (rng, ("sample_frechet", "sample_bump_height",
                                 "sample_gap_length"))):
        for name in names:
            assert not hasattr(heavykp, name)
            assert callable(getattr(module, name))


def test_chain_and_sweep_surfaces_are_pinned():
    # a Realization is its piece columns and their boundaries; a sweep
    # returns each seed's state after the last bump, and the heavy-tail
    # scales are one function of the config, n and x
    def field_names(cls):
        return [f.name for f in dataclasses.fields(cls)]

    def parameters(fn):
        return list(inspect.signature(fn).parameters)

    assert field_names(heavykp.Realization) == ["values", "lengths", "is_bump", "boundaries"]
    assert field_names(SweepRecord) == ["x", "theta", "log_norm"]
    assert parameters(heavykp.sweep_chains) == [
        "config", "n_bumps", "n_seeds", "stream", "first_seed", "want_theta", "want_log_norm",
    ]
    assert parameters(heavykp.nonlinear_normalizers) == ["config", "n_bumps", "x"]
    assert parameters(heavykp.chain_trace) == ["config", "n_bumps", "stream"]


def test_readme_quick_start_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    exec(compile(block, "README.md quick start", "exec"), {})
