"""Monte Carlo estimators for the chain limit objects.

Everything here reduces to one sweep over sampled chains, sweep_chains.  It
walks many independent chains at once, segment by segment, the way
prufer.walk_chain walks one chain: piece matrices in bulk, a lean loop over
the bumps that pushes unit vectors (numpy across seeds), and the results
read off the stored vectors.  Its lanes give

    theta       the unwound Prufer phase of the boundary-condition vector;
    log norm    log||M|| of the transfer-matrix product, from its columns
                M e1 and M e2.

The sweep draws each block of seeds at once through potentials._draw_blocks,
the one statement of the canonical draw order and of the map from draws to
bump potentials and gap lengths, and walks its pieces as they come;
potentials.generate lays out the same pieces, so the single-chain traces
(lyapunov_trace, ids_trace, both prufer.walk_chain on generate's chain) see
the same chains, which is what the oracle tests pin down.  chain_mixing walks
its starting points as lanes of the same lane walk.

Estimated objects:

    Lyapunov exponents   log norm per unit length (linear scale), per bump,
                         or per heavy-tail normalizer (nonlinear scale);
    rotation numbers     unwound phase over pi times a length normalizer,
                         whose limit is the integrated density of states;
    stable-limit samples per-seed nonlinear-scale values for distributional
                         comparison against one-sided stable laws;
    Darling ratios       max-term share of heavy-tailed sums;
    chain mixing         per-step KS distances between phase chains started
                         at different initial points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .potentials import Model, ModelConfig, _draw_blocks, generate
from .prufer import (
    _dead_direction,
    _running_sums,
    _unwind_boundaries,
    boundary_theta,
    walk_chain,
)
from .rng import RngStream, split_ids
from .stats import ks_distance
from .transfer import LOG_SCALE_CEILING, SaturationError, _piece_entries_batch
# Nothing here calls these samplers, the matrix-product folds or phase_fold.
# The names stay bound only because the benchmark tracer (bench/spans.py)
# wraps them at this module by attribute; the tests use the folds as
# references from their own modules.
from .prufer import phase_fold  # noqa: F401
from .rng import sample_bump_height, sample_gap_length  # noqa: F401
from .transfer import push_piece, push_rotation  # noqa: F401

_PI = math.pi


class LyapunovScale(Enum):
    LINEAR_X = "linear_x"          # divide by chain length x
    LINEAR_N = "linear_n"          # divide by bump count n
    NONLINEAR_ALPHA = "nonlinear_alpha"  # heavy-tail normalizer, see normalizer_desc


class IdsScale(Enum):
    LINEAR = "linear"              # theta / (pi x)
    NONLINEAR_ALPHA = "nonlinear_alpha"  # theta / (pi n**(1/alpha))


@dataclass(frozen=True)
class LyapunovEstimate:
    scale: LyapunovScale
    values: np.ndarray            # one value per seed, final checkpoint
    normalizer_desc: str
    n_bumps: int


@dataclass(frozen=True)
class IdsEstimate:
    scale: IdsScale
    values: np.ndarray
    normalizer_desc: str
    n_bumps: int


# ── Vectorized chain sweep ───────────────────────────────────────────────────


@dataclass
class SweepRecord:
    """Per-checkpoint arrays over seeds (None where not requested)."""

    n_bumps: int
    x: np.ndarray
    theta: Optional[np.ndarray]
    log_norm: Optional[np.ndarray]


@dataclass
class SweepResult:
    records: Dict[int, SweepRecord]
    aux_sqrt_sum: Optional[np.ndarray]

    def final(self) -> SweepRecord:
        return self.records[max(self.records)]


def _chunk_sizes(n_seeds: int, n_bumps: int) -> List[Tuple[int, int]]:
    chunk = max(64, (1 << 23) // max(n_bumps, 1))
    out = []
    lo = 0
    while lo < n_seeds:
        hi = min(n_seeds, lo + chunk)
        out.append((lo, hi))
        lo = hi
    return out


# Element budget of one walk segment, bumps x seeds.  The bulk stages (piece
# matrices, winding) work on arrays of about this size and the lane buffers
# on a small multiple of it, so a sweep's memory stays flat in n_bumps, while
# the numpy calls of a segment still share their fixed cost over thousands of
# elements.
_SEGMENT_ELEMENTS = 3072

# Norm band of the fast step: inside it sqrt(x*x + y*y) neither overflows
# nor loses digits to underflow.  A lane whose step norm falls outside is
# redone on its own with hypot, and a norm that is then exactly 0 marks a
# dead-direction lane.
_NORM_BAND = (1e-150, 1e150)


def _columns(block, j0: int, j1: int):
    """Bumps j0..j1-1 of a (seeds, bumps) block from _draw_blocks as (bumps, seeds).

    A block without a bump axis (model III's scalar bump value, or the gaps
    None of a model without them) is the same for every bump and passes as
    it is.
    """
    if np.ndim(block) == 0:
        return block
    return np.ascontiguousarray(block[:, j0:j1].T)


def _step_matrices(mats, values, gaps, lam: float, k: float):
    """Fill mats (bumps, 2, 2, 1, seeds) with a segment's step matrices.

    Without gaps a step is the bump's piece matrix.  With gaps it is the bump
    matrix times the matrix of the gap before it, and the gap's own entries
    (diagonal, upper, lower, prescale) come back for recovering the vector
    between the two.  values broadcasts against the steps, so model III's
    scalar bump gets one matrix for the whole segment.  Returns the steps'
    log prescales and the gap entries (None without gaps).
    """
    bc, bb, be, pre = _piece_entries_batch(values, 1.0, lam, k)
    entries = (bc, bb, be, bc)
    gap = None
    if gaps is not None:
        gap = gc, gb, ge, gpre = _piece_entries_batch(0.0, gaps, lam, k)
        entries = (bc * gc + bb * ge, bc * gb + bb * gc, be * gc + bc * ge, be * gb + bc * gc)
        pre = gpre + pre
    for m, (i, j) in zip(entries, ((0, 0), (0, 1), (1, 0), (1, 1))):
        mats[:, i, j, 0] = m
    return pre, gap


class _LaneWalk:
    """The lanes of one seed block and their buffers, reused from segment to segment.

    vecs holds (steps + 1, 2, lanes, seeds) unit vectors (psi, psi'/k) with
    the entering ones in row 0, norms (steps, lanes, seeds) the norm of every
    step and mats (steps, 2, 2, 1, seeds) the step matrices.
    """

    def __init__(self, starts, n_steps: int, n_seeds: int):
        n_lanes = len(starts)
        self.vecs = np.empty((n_steps + 1, 2, n_lanes, n_seeds))
        self.norms = np.empty((n_steps, n_lanes, n_seeds))
        self.mats = np.empty((n_steps, 2, 2, 1, n_seeds))
        self._prod = np.empty((2, 2, n_lanes, n_seeds))
        for lane, (p, q) in enumerate(starts):
            self.vecs[0, 0, lane] = p
            self.vecs[0, 1, lane] = q

    def walk(self, n_steps: int, values, gaps, lam: float, k: float):
        """Walk the lanes through a segment of n_steps bumps.

        Returns the steps' log prescales, the gap entries and the log gains
        of dead-direction steps by (step, lane, seed).  Steps run on the fast
        norm.  At the first step where a lane's norm left _NORM_BAND, each
        such lane is redone alone as in walk_chain, with hypot, and the walk
        resumes after that step; every lane's values therefore depend on that
        lane alone.  A lane whose norm is then exactly 0 sits on the
        contracting direction of a factored bump and takes the scalar flow's
        dead-direction arithmetic, after its gap if there is one.  NaN norms
        (lanes fed an infinite height) pass.
        """
        mats = self.mats[:n_steps]
        vecs = self.vecs[:n_steps + 1]
        norms = self.norms[:n_steps]
        pre, gap = _step_matrices(mats, values, gaps, lam, k)
        lo, hi = _NORM_BAND
        dead: Dict[tuple, float] = {}
        first = 0
        while first < n_steps:
            self._push(mats, vecs, norms, first)
            rest = norms[first:]
            out_of_band = (rest <= lo) | (rest >= hi)
            hits = np.flatnonzero(out_of_band.any(axis=(1, 2)))
            if hits.size == 0:
                break
            j = first + int(hits[0])
            for lane, seed in np.argwhere(out_of_band[j - first]):
                (m00, m01), (m10, m11) = mats[j, :, :, 0, seed].tolist()
                p, q = vecs[j, :, lane, seed].tolist()
                x = m00 * p + m01 * q
                y = m10 * p + m11 * q
                size = math.hypot(x, y)
                if size == 0.0:
                    # a zero-copy view of the bumps, model III's scalar one too
                    bumps = np.broadcast_to(values, pre.shape)
                    x, y, dead[(j, int(lane), int(seed))] = _dead_step(gap, bumps, j, seed,
                                                                        p, q, lam, k)
                    size = math.hypot(x, y)
                vecs[j + 1, :, lane, seed] = (x / size, y / size)
                norms[j, lane, seed] = size
            first = j + 1
        return pre, gap, dead

    def _push(self, mats, vecs, norms, first: int) -> None:
        """Push every lane through the steps from first on: the lean loop."""
        prod = self._prod
        sq = prod[0]  # free again once a step's products are summed
        prod0, prod1, sq0, sq1 = prod[:, 0], prod[:, 1], sq[0], sq[1]
        with np.errstate(invalid="ignore", over="ignore", under="ignore"):
            for mat, vec, nxt, nrm in zip(mats[first:], vecs[first:-1], vecs[first + 1:],
                                          norms[first:]):
                np.multiply(mat, vec, out=prod)
                np.add(prod0, prod1, out=nxt)
                np.multiply(nxt, nxt, out=sq)
                np.add(sq0, sq1, out=nrm)
                np.sqrt(nrm, out=nrm)
                np.divide(nxt, nrm, out=nxt)

    def carry(self, n_steps: int) -> None:
        """Make the vectors after step n_steps the next segment's start."""
        self.vecs[0] = self.vecs[n_steps]


def _dead_step(gap, values, j: int, seed: int, p: float, q: float, lam: float, k: float):
    """(psi, psi'/k, log gain) of step j for a vector its bump annihilates.

    values holds the bump potentials by (step, seed).
    """
    gain = 0.0
    if gap is not None:
        gc, gb, ge, gpre = (float(g[j, seed]) for g in gap)
        p, q = gc * p + gb * q, ge * p + gc * q
        size = math.hypot(p, q)
        p, q = p / size, q / size
        if lam <= 0.0:  # a gap at lam > 0 is a rotation and gains 0
            gain = gpre + math.log(size)
    x, y, dead_gain = _dead_direction(p, q, float(values[j, seed]), 1.0, lam, k)
    return x, y, gain + dead_gain


def _unwind_segment(vecs, gap, values, lengths, lam: float, k: float, start):
    """Unwound theta at the start and after every bump of a segment (theta lane 0).

    The vector after each gap is recovered from the vector before it, so the
    winding rule sees every piece boundary; it is scaled to a largest
    component of 1, which keeps the conjugate angles clear of overflow.
    lengths holds the gap and bump lengths interleaved (None without gaps).
    """
    p = vecs[:, 0, 0]
    q = vecs[:, 1, 0]
    if gap is None:
        return _unwind_boundaries(np.ascontiguousarray(p), np.ascontiguousarray(q), values,
                                  np.ones_like(values), lam, k, start)
    nj = lengths.shape[0] // 2
    gc, gb, ge, _ = gap
    gp = gc * p[:-1] + gb * q[:-1]
    gq = ge * p[:-1] + gc * q[:-1]
    size = np.maximum(np.abs(gp), np.abs(gq))
    psi = np.empty((2 * nj + 1,) + p.shape[1:])
    psik = np.empty_like(psi)
    psi[0::2] = p
    psi[1::2] = gp / size
    psik[0::2] = q
    psik[1::2] = gq / size
    piece_v = np.zeros((2 * nj,) + p.shape[1:])
    piece_v[1::2] = values
    return _unwind_boundaries(psi, psik, piece_v, lengths, lam, k, start)[0::2]


def _checkpoints(checkpoint_bumps: Sequence[int], n_bumps: int) -> List[int]:
    """The distinct checkpoint bump counts in order, n_bumps always among them."""
    cps = sorted(set(int(c) for c in checkpoint_bumps) | {n_bumps})
    if cps[0] < 1 or cps[-1] > n_bumps:
        raise ValueError("checkpoint bump counts must lie in [1, n_bumps]")
    return cps


def sweep_chains(
    config: ModelConfig,
    n_bumps: int,
    n_seeds: int,
    stream: RngStream,
    *,
    want_theta: bool = False,
    want_log_norm: bool = False,
    want_aux_sqrt: bool = False,
    checkpoint_bumps: Sequence[int] = (),
) -> SweepResult:
    """Advance n_seeds independent chains for n_bumps bumps.

    Seed i draws from split_stream(stream, i) through
    ``potentials._draw_blocks``, a block of seeds at a time, so scalar and
    vectorized runs see identical chains.  checkpoint_bumps are bump counts
    at which per-seed snapshots are stored; the final bump count is always
    included.  want_aux_sqrt accumulates the per-seed rotation benchmark
    sum: sqrt(lam + X) for model II, sqrt(X - lam) over hyperbolic bumps for
    model I.

    The chains are walked as in prufer.walk_chain, across seeds and one
    segment of bumps at a time.  The lanes are unit vectors (psi, psi'/k):
    the boundary-condition vector of every seed for theta, and the two
    columns M e1, M e2 of every seed's transfer-matrix product for the log
    norm.  Per segment:

    1. the piece matrices of all its bumps and seeds come from one
       _piece_entries_batch call, and those of its gaps from another; each
       gap is multiplied into the bump after it, so that one step covers
       one bump;
    2. a loop over the bumps pushes every lane through its step matrix, in
       numpy across lanes, renormalizing into preallocated buffers;
    3. theta is unwound from the stored boundary vectors by walk_chain's
       winding rule, and log|M e_i| adds up the prescales and the logs of the
       norms; log||M|| (Frobenius) is log sqrt(|M e1|**2 + |M e2|**2).

    Positions, log norms and sums are added in piece order and theta carries
    whole turns across segments, so no value depends on the segment length,
    and each lane depends on its own seed only.  A log-norm lane that leaves
    float range raises SaturationError; a theta lane fed an infinite bump
    height turns NaN.  Gap models accept any energy: at lam <= 0 gaps are
    ordinary hyperbolic or degenerate pieces.
    """
    if n_bumps < 1 or n_seeds < 1:
        raise ValueError("n_bumps and n_seeds must be positive")
    model = config.model
    if want_aux_sqrt and model not in (Model.I, Model.II):
        raise ValueError("aux sqrt sums are defined for models I and II")
    frame = config.frame()
    lam = frame.lam
    k = frame.k_norm
    cps = _checkpoints(checkpoint_bumps, n_bumps)
    theta_start = boundary_theta(config.theta0, frame)

    records: Dict[int, SweepRecord] = {
        nb: SweepRecord(
            n_bumps=nb,
            x=np.empty(n_seeds),
            theta=np.empty(n_seeds) if want_theta else None,
            log_norm=np.empty(n_seeds) if want_log_norm else None,
        )
        for nb in cps
    }
    aux = np.zeros(n_seeds) if want_aux_sqrt else None

    # lanes: the theta vector, then the columns e1 and e2
    starts = ([(math.sin(theta_start), math.cos(theta_start))] if want_theta else []) \
        + ([(1.0, 0.0), (0.0, 1.0)] if want_log_norm else [])
    n_lanes = len(starts)
    first_col = 1 if want_theta else 0

    for lo, hi in _chunk_sizes(n_seeds, n_bumps):
        value_blk, gap_blk = _draw_blocks(config, stream.seed, split_ids(stream, lo, hi),
                                          n_bumps)
        s = hi - lo
        seg = max(1, _SEGMENT_ELEMENTS // s)
        lanes = _LaneWalk(starts, seg, s)
        theta = theta_start
        logs = np.zeros((2, s))
        pos = np.zeros(s)
        aux_blk = np.zeros(s)

        for j0 in range(0, n_bumps, seg):
            j1 = min(n_bumps, j0 + seg)
            nj = j1 - j0
            values = _columns(value_blk, j0, j1)
            gaps = _columns(gap_blk, j0, j1)

            lengths = None
            if gaps is not None:
                lengths = np.ones((2 * nj, s))  # the gap and bump pieces in order
                lengths[0::2] = gaps
                pos_run = _running_sums(pos, lengths)[0::2]
            else:
                pos_run = pos + np.arange(nj + 1.0)[:, None]
            pos = pos_run[-1]
            if want_aux_sqrt:
                if model is Model.II:
                    terms = np.sqrt(lam - values)
                else:
                    exc = values - lam
                    terms = np.sqrt(np.where(exc > 0.0, exc, 0.0))
                aux_blk = _running_sums(aux_blk, terms)[-1]

            if n_lanes:
                pre, gap, dead = lanes.walk(nj, values, gaps, lam, k)
            if want_theta:
                thetas = _unwind_segment(lanes.vecs[:nj + 1], gap, values, lengths, lam, k, theta)
                theta = thetas[-1]
            if want_log_norm:
                gains = pre[:, None, :] + np.log(lanes.norms[:nj, first_col:])
                for (j, lane, seed), gain in dead.items():
                    if lane >= first_col:
                        gains[j, lane - first_col, seed] = gain
                if not np.all(np.isfinite(gains)):
                    raise SaturationError("chain sweep product left representable range")
                log_run = _running_sums(logs, gains)
                if log_run.max() > LOG_SCALE_CEILING:
                    raise SaturationError("accumulated log scale exceeds representable range")
                logs = log_run[-1]

            for nb in cps:
                if j0 < nb <= j1:
                    r = nb - j0
                    rec = records[nb]
                    rec.x[lo:hi] = pos_run[r]
                    if want_theta:
                        rec.theta[lo:hi] = thetas[r]
                    if want_log_norm:
                        rec.log_norm[lo:hi] = 0.5 * np.logaddexp(2.0 * log_run[r, 0],
                                                                 2.0 * log_run[r, 1])
            lanes.carry(nj)
        if want_aux_sqrt:
            aux[lo:hi] = aux_blk

    return SweepResult(records=records, aux_sqrt_sum=aux)


# ── Single-seed traces ───────────────────────────────────────────────────────


def _traced_chain(config: ModelConfig, n_bumps: int, checkpoint_bumps: Sequence[int],
                  stream: RngStream):
    """generate's chain and the piece indices that end each checkpoint bump.

    The last bump is always a checkpoint.
    """
    cps = _checkpoints(checkpoint_bumps, n_bumps)
    real = generate(config, n_bumps, stream)
    return real, np.flatnonzero(real.is_bump)[np.array(cps) - 1]


def lyapunov_trace(
    config: ModelConfig,
    n_bumps: int,
    checkpoint_bumps: Sequence[int],
    stream: RngStream,
) -> List[Tuple[float, float]]:
    """One chain's (x, log norm of the product up to x) at bump-count checkpoints.

    Checkpoints are bump counts, which makes them piece boundaries by
    construction (coordinate x_n equals n for models I/II and the bump right
    edge for III/IV).  The columns M e1 and M e2 are walked with walk_chain
    from theta = pi/2 and 0, and log||M|| (Frobenius) is
    log sqrt(|M e1|**2 + |M e2|**2), as in sweep_chains.
    """
    real, ends = _traced_chain(config, n_bumps, checkpoint_bumps, stream)
    frame = config.frame()
    _, log_e1 = walk_chain(real.values, real.lengths, frame, 0.5 * _PI)
    _, log_e2 = walk_chain(real.values, real.lengths, frame, 0.0)
    log_norms = 0.5 * np.logaddexp(2.0 * log_e1[ends + 1], 2.0 * log_e2[ends + 1])
    return list(zip(real.boundaries[ends].tolist(), log_norms.tolist()))


def ids_trace(
    config: ModelConfig,
    n_bumps: int,
    checkpoint_bumps: Sequence[int],
    stream: RngStream,
) -> List[Tuple[float, float]]:
    """One chain's (x, theta(x)/pi) at bump-count checkpoints, by walk_chain."""
    real, ends = _traced_chain(config, n_bumps, checkpoint_bumps, stream)
    frame = config.frame()
    thetas, _ = walk_chain(real.values, real.lengths, frame,
                           boundary_theta(config.theta0, frame))
    return list(zip(real.boundaries[ends].tolist(), (thetas[ends + 1] / _PI).tolist()))


# ── Aggregated estimates ─────────────────────────────────────────────────────


def _nonlinear_normalizer(config: ModelConfig, n_bumps: int, x: np.ndarray,
                          which: str) -> Tuple[np.ndarray, str]:
    model = config.model
    if model in (Model.I, Model.II):
        a = config.alpha1
        return np.full_like(x, float(n_bumps) ** (1.0 / a)), f"n**(1/alpha1), alpha1={a}"
    if model is Model.III:
        a = config.alpha2
        if which == "lyapunov":
            return x ** a, f"L_n**alpha2, alpha2={a}"
        return np.full_like(x, float(n_bumps) ** (1.0 / a)), f"n**(1/alpha2), alpha2={a}"
    # model IV: bumps drive the log norm, gaps drive the rotation
    if which == "lyapunov":
        a = config.alpha1
        return np.full_like(x, float(n_bumps) ** (1.0 / a)), f"n**(1/alpha1), alpha1={a}"
    a = config.alpha2
    return np.full_like(x, float(n_bumps) ** (1.0 / a)), f"n**(1/alpha2), alpha2={a}"


def estimate_lyapunov(
    config: ModelConfig,
    n_bumps: int,
    n_seeds: int,
    stream: RngStream,
    scale: LyapunovScale = LyapunovScale.LINEAR_X,
) -> LyapunovEstimate:
    """Per-seed scaled log norms ln||M([0, x_n])|| / normalizer."""
    res = sweep_chains(config, n_bumps, n_seeds, stream, want_log_norm=True)
    return _lyapunov_estimate(config, n_bumps, res.final(), scale)


def _lyapunov_estimate(config: ModelConfig, n_bumps: int, rec: SweepRecord,
                       scale: LyapunovScale) -> LyapunovEstimate:
    if scale is LyapunovScale.LINEAR_X:
        values = rec.log_norm / rec.x
        desc = "chain length x_n"
    elif scale is LyapunovScale.LINEAR_N:
        values = rec.log_norm / float(n_bumps)
        desc = "bump count n"
    else:
        norm, desc = _nonlinear_normalizer(config, n_bumps, rec.x, "lyapunov")
        values = rec.log_norm / norm
    return LyapunovEstimate(scale=scale, values=values, normalizer_desc=desc, n_bumps=n_bumps)


def estimate_ids(
    config: ModelConfig,
    n_bumps: int,
    n_seeds: int,
    stream: RngStream,
    scale: IdsScale = IdsScale.LINEAR,
) -> IdsEstimate:
    """Per-seed rotation numbers theta(x_n) / (pi * normalizer)."""
    res = sweep_chains(config, n_bumps, n_seeds, stream, want_theta=True)
    return _ids_estimate(config, n_bumps, res.final(), scale)


def _ids_estimate(config: ModelConfig, n_bumps: int, rec: SweepRecord,
                  scale: IdsScale) -> IdsEstimate:
    if scale is IdsScale.LINEAR:
        values = rec.theta / (_PI * rec.x)
        desc = "pi * chain length x_n"
    else:
        norm, desc = _nonlinear_normalizer(config, n_bumps, rec.x, "ids")
        values = rec.theta / (_PI * norm)
        desc = "pi * " + desc
    return IdsEstimate(scale=scale, values=values, normalizer_desc=desc, n_bumps=n_bumps)


def estimate_lyapunov_and_ids(
    config: ModelConfig,
    n_bumps: int,
    n_seeds: int,
    stream: RngStream,
    lyapunov_scale: LyapunovScale = LyapunovScale.LINEAR_X,
    ids_scale: IdsScale = IdsScale.LINEAR,
) -> Tuple[LyapunovEstimate, IdsEstimate]:
    """estimate_lyapunov and estimate_ids on the same chains from one sweep.

    Every lane of a sweep depends on its own seed and lane only, so both
    estimates equal the separate calls bit for bit.
    """
    res = sweep_chains(config, n_bumps, n_seeds, stream, want_theta=True, want_log_norm=True)
    rec = res.final()
    return (_lyapunov_estimate(config, n_bumps, rec, lyapunov_scale),
            _ids_estimate(config, n_bumps, rec, ids_scale))


def nonlinear_samples(
    config: ModelConfig,
    n_bumps: int,
    n_seeds: int,
    which: str,
    stream: RngStream,
) -> np.ndarray:
    """Per-seed nonlinear-scale samples for stable-law comparison.

    which = "lyapunov": ln||M|| over n**(1/alpha) (models I/II/IV) or over
    L_n**alpha (model III).  which = "ids": theta over pi n**(1/alpha).
    """
    if which not in ("lyapunov", "ids"):
        raise ValueError('which must be "lyapunov" or "ids"')
    if n_seeds < 2:
        raise ValueError("n_seeds must be at least 2")
    if which == "lyapunov":
        est = estimate_lyapunov(config, n_bumps, n_seeds, stream, LyapunovScale.NONLINEAR_ALPHA)
    else:
        est = estimate_ids(config, n_bumps, n_seeds, stream, IdsScale.NONLINEAR_ALPHA)
    return est.values


def model3_joint_samples(
    config: ModelConfig,
    n_bumps: int,
    n_seeds: int,
    stream: RngStream,
) -> Tuple[np.ndarray, np.ndarray]:
    """Joint per-seed law of (ln||M||/n, L_n/n**(1/alpha)) for sparse-bump chains.

    The two coordinates share one normalization identity with the
    L_n**alpha-scaled samples: dividing the first by the alpha-power of the
    second recovers ln||M||/L_n**alpha times n**(...) bookkeeping; tests
    check that relation on the sample level.
    """
    if config.model is not Model.III:
        raise ValueError("joint samples are a Model III diagnostic")
    res = sweep_chains(config, n_bumps, n_seeds, stream, want_log_norm=True)
    rec = res.final()
    a = config.alpha2
    return rec.log_norm / float(n_bumps), rec.x / float(n_bumps) ** (1.0 / a)


def darling_ratio(values) -> float:
    """max / sum of a positive sample: the maximal term's share."""
    return float(darling_ratios(np.asarray(values, dtype=float).reshape(1, -1))[0])


def darling_ratios(samples: np.ndarray) -> np.ndarray:
    """darling_ratio of each row of a (samples, n) array, the same bits as row by row."""
    if samples.shape[1] == 0:
        raise ValueError("values must be nonempty")
    if not np.all(samples > 0.0):
        raise ValueError("values must be positive")
    return samples.max(axis=1) / samples.sum(axis=1)


def _tangent_phase(t: float) -> float:
    """The phase in [0, pi) with tangent t: math.atan lifted by pi when negative."""
    theta = math.atan(t)
    return theta + _PI if theta < 0.0 else theta


def chain_mixing(
    config: ModelConfig,
    n_steps: int,
    initial_points: Sequence[float],
    n_seeds: int,
    stream: RngStream,
) -> np.ndarray:
    """Per-step KS distances between phase chains started at different points.

    Returns an array of shape (n_steps, m, m): entry [s, i, j] is the KS
    distance at step s+1 between the seed-empirical laws of theta mod pi for
    initial tangents i and j.  All initial points are driven by the same
    per-seed bump sequence (one coupling per seed), so the distances measure
    contraction of the chain itself; each marginal law is untouched by the
    coupling.

    The m starts are lanes of one walk over all seeds, as in sweep_chains,
    so each seed's bump matrices are built once.  theta mod pi is read off
    each lane's unit vector (psi, psi'/k) with its sign made canonical: the
    vector is negated where psi < 0, and pi maps to 0, so antiparallel lanes,
    which are the same phase, give the same float.
    """
    if config.model is not Model.I:
        raise ValueError("the phase chain is a Model I construction")
    if len(initial_points) < 2:
        raise ValueError("need at least two initial points")
    if n_steps < 1 or n_seeds < 2:
        raise ValueError("n_steps and n_seeds must be positive (n_seeds >= 2)")
    frame = config.frame()
    m = len(initial_points)
    starts = [(math.sin(t), math.cos(t)) for t in map(_tangent_phase, initial_points)]

    values, _ = _draw_blocks(config, stream.seed, split_ids(stream, 0, n_seeds), n_steps)

    seg = max(1, _SEGMENT_ELEMENTS // n_seeds)
    lanes = _LaneWalk(starts, seg, n_seeds)
    out = np.zeros((n_steps, m, m))
    for j0 in range(0, n_steps, seg):
        nj = min(n_steps, j0 + seg) - j0
        lanes.walk(nj, _columns(values, j0, j0 + nj), None, frame.lam, frame.k_norm)
        psi, psik = lanes.vecs[1:nj + 1, 0], lanes.vecs[1:nj + 1, 1]
        phases = np.arctan2(np.abs(psi), np.where(psi < 0.0, -psik, psik))
        phases[phases == _PI] = 0.0
        for step, rows in enumerate(phases, start=j0):
            for i in range(m):
                for j in range(i + 1, m):
                    out[step, i, j] = out[step, j, i] = ks_distance(rows[i], rows[j])
        lanes.carry(nj)
    return out
