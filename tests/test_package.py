"""The package root's public surface: exactly these names, each resolving."""
import heavykp

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
    "LyapunovScale", "IdsScale", "LyapunovEstimate", "IdsEstimate",
    "estimate_lyapunov", "estimate_ids", "lyapunov_trace", "ids_trace",
    "nonlinear_samples", "model3_joint_samples", "darling_ratio",
    "chain_mixing", "sweep_chains",
    # spectrum
    "BoxProblem", "boundary_phase", "phase_trace",
    "count_below", "find_eigenvalues", "decay_fit", "EigenvalueSearchError",
    # stats
    "Ecdf", "LinearFit", "MeanCi", "ks_distance", "linear_fit", "mean_ci",
}


def test_all_is_pinned_and_every_name_resolves():
    assert len(heavykp.__all__) == len(PUBLIC) == 47
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
