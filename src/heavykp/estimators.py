"""Monte Carlo estimators for the chain limit objects.

Everything here reduces to one sweep over sampled chains, sweep_chains.  It
walks many independent chains at once, segment by segment, the way
prufer.walk_chain walks one chain: piece matrices and the products of each
gap with its bump in bulk, a lean loop over the bumps that pushes vectors
scaled to a largest component of 1 (numpy across seeds), and the results
read off the stored vectors, with the vector between a gap and its bump
recovered from the one before.
It returns each seed's state after the last bump, a SweepRecord:

    x           the chain length x_n;
    theta       the unwound Prufer phase of the boundary-condition vector
                v0 = (sin theta_s, cos theta_s), read off M v0;
    log norm    log||M|| (Frobenius) of the transfer-matrix product, from
                M v0 and M v0' with v0' = (cos theta_s, -sin theta_s):
                v0 and v0' are an orthonormal basis, so
                ||M||**2 = |M v0|**2 + |M v0'|**2.

A record with both walks two lanes, M v0 serving theta and the log norm at
once.

The sweep draws each block of seeds at once through potentials._draw_blocks,
the one statement of the map from draws to bump potentials and gap lengths
(drawn in rng.draw_block's order), and walks its pieces as they come;
potentials.generate lays out the same pieces.  chain_trace walks generate's
chain with prufer.walk_chain from v0 and from v0' and records the same three
values after every bump, so its last entries retrace a sweep seed, which is
what the oracle tests pin down.  chain_mixing walks its starting points as
lanes of the same lane walk.

The paper's objects are ratios of a record's lanes:

    Lyapunov exponents   log norm over x or n (linear scale), or over the
                         heavy-tail normalizer of nonlinear_normalizers;
    rotation numbers     theta over pi x, whose limit is the integrated
                         density of states, or over pi times the heavy-tail
                         normalizer;
    Darling ratios       max-term share of heavy-tailed sums;
    chain mixing         per-step KS distances between phase chains started
                         at different initial points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .potentials import Model, ModelConfig, _draw_blocks, generate
from .prufer import _piece_turns, _rotation_turns, _step_pieces, boundary_theta, walk_chain
from .rng import RngStream, split_ids
from .stats import _ks_distances
from .transfer import SaturationError, _piece_entries_batch, _product_entries
# Nothing here calls these samplers, the matrix-product folds, phase_fold or
# ks_distance (chain_mixing takes its KS distances in bulk, from
# stats._ks_distances, the kernel ks_distance calls).
# The names stay bound only because the benchmark tracer (bench/spans.py)
# wraps them at this module by attribute; the tests use the folds as
# references from their own modules.
from .prufer import phase_fold  # noqa: F401
from .rng import sample_bump_height, sample_gap_length  # noqa: F401
from .stats import ks_distance  # noqa: F401
from .transfer import push_piece, push_rotation  # noqa: F401

_PI = math.pi
_TWO_PI = 2.0 * math.pi


# ── Vectorized chain sweep ───────────────────────────────────────────────────


@dataclass
class SweepRecord:
    """x, theta, log norm: over seeds (None where not requested) or one chain's bumps."""

    x: np.ndarray
    theta: Optional[np.ndarray]
    log_norm: Optional[np.ndarray]


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
# the numpy calls of a segment share their fixed cost over thousands of
# elements: a 256-seed block walks 32-bump segments.  Larger budgets were
# no faster and only raised the peak memory.  A segment covers at least
# _MIN_SEGMENT bumps, however many seeds it holds (blocks of more than 2048
# seeds): a segment's bulk stages cost some hundred numpy calls whatever its
# length, and a 1-bump segment would pay them for every bump.
_SEGMENT_ELEMENTS = 8192
_MIN_SEGMENT = 4


def _segment_length(n_seeds: int) -> int:
    """Bumps per walk segment for a block of n_seeds seeds."""
    return max(_MIN_SEGMENT, _SEGMENT_ELEMENTS // n_seeds)


def _columns(block, j0: int, j1: int):
    """Bumps j0..j1-1 of a (seeds, bumps) block from _draw_blocks as (bumps, seeds).

    A block without a bump axis (model III's scalar bump value, or the gaps
    None of a model without them) is the same for every bump and passes as
    it is.
    """
    if np.ndim(block) == 0:
        return block
    return np.ascontiguousarray(block[:, j0:j1].T)


def _step_matrices(mats, bump, gaps, lam: float, k: float):
    """Fill mats (bumps, 2, 2, 1, seeds) with a segment's step matrices.

    bump holds the entries (diagonal, upper, lower, log prescale) of the
    segment's bump matrices from _piece_entries_batch; they broadcast
    against the steps, so model III's one unit bump serves every step.
    Without gaps a step is the bump's piece matrix.  With gaps it is the bump
    matrix times the matrix of the gap before it, and the gap's own entries
    come back for recovering the vector between the two.  Returns the steps'
    log prescales and the gap entries (None without gaps).
    """
    bc, bb, be, pre = bump
    entries = (bc, bb, be, bc)
    gap = None
    if gaps is not None:
        gap = gc, gb, ge, gpre = _piece_entries_batch(0.0, gaps, lam, k)
        entries = _product_entries((gc, gb, ge), (bc, bb, be))
        pre = gpre + pre
    for m, (i, j) in zip(entries, ((0, 0), (0, 1), (1, 0), (1, 1))):
        mats[:, i, j, 0] = m
    return pre, gap


class _LaneWalk:
    """The lanes of one seed block and their buffers, reused from segment to segment.

    A lane is one start vector pushed through every seed's chain: in
    sweep_chains M v0, then M v0' when the log norm is wanted, in
    chain_mixing one lane per initial point.  vecs holds (steps + 1, 2,
    lanes, seeds) vectors (psi, psi'/k) with the entering ones in row 0, each
    step's scaled to a largest component of 1, scales (steps, lanes, seeds)
    the factor every step divided by, and mats (steps, 2, 2, 1, seeds) the
    step matrices.  value_blk is the block's bump potentials from
    _draw_blocks; when it is model III's scalar unit bump, its matrix entries
    are built here once for the walk.
    """

    def __init__(self, starts, n_steps: int, n_seeds: int, value_blk, lam: float, k: float):
        n_lanes = len(starts)
        self.lam = lam
        self.k = k
        self._unit = (_piece_entries_batch(value_blk, 1.0, lam, k)
                      if np.ndim(value_blk) == 0 else None)
        self.vecs = np.empty((n_steps + 1, 2, n_lanes, n_seeds))
        self.scales = np.empty((n_steps, n_lanes, n_seeds))
        self.mats = np.empty((n_steps, 2, 2, 1, n_seeds))
        self._prod = np.empty((2, 2, n_lanes, n_seeds))
        for lane, (p, q) in enumerate(starts):
            self.vecs[0, 0, lane] = p
            self.vecs[0, 1, lane] = q

    def walk(self, n_steps: int, values, gaps):
        """Walk the lanes through a segment of n_steps bumps.

        Returns the steps' log prescales, the gap entries and the log gains
        of fallback steps by (step, lane, seed).  Each step divides its
        vector by the larger component, max(|psi|, |psi'/k|), which unlike
        sqrt(psi**2 + (psi'/k)**2) neither overflows nor underflows.  A step
        that maps a lane's vector to exactly 0, or whose gap alone does (at
        lam < 0 a long gap is rank one), is walked by prufer._step_pieces,
        where the piece that annihilates the vector takes the dead direction.
        The walk resumes after it, so every lane's values depend on that lane
        alone.  NaN scales (lanes fed an infinite height) pass.
        """
        lam, k = self.lam, self.k
        mats = self.mats[:n_steps]
        vecs = self.vecs[:n_steps + 1]
        scales = self.scales[:n_steps]
        bump = self._unit if self._unit is not None else _piece_entries_batch(values, 1.0, lam, k)
        pre, gap = _step_matrices(mats, bump, gaps, lam, k)
        dead: Dict[tuple, float] = {}
        first = 0
        while first < n_steps:
            self._push(mats, vecs, scales, first)
            zero = scales[first:] == 0.0
            if gaps is not None and lam < 0.0:
                gc, gb, ge = (g[first:, None] for g in gap[:3])
                p, q = vecs[first:-1, 0], vecs[first:-1, 1]
                zero |= (gc * p + gb * q == 0.0) & (ge * p + gc * q == 0.0)
            hits = np.flatnonzero(zero.any(axis=(1, 2)))
            if hits.size == 0:
                break
            j = first + int(hits[0])
            # a zero-copy view of the bumps, model III's scalar one too
            bumps = np.broadcast_to(values, pre.shape)
            for lane, seed in np.argwhere(zero[j - first]).tolist():
                pieces = [(bumps[j, seed], 1.0)]
                if gaps is not None:
                    pieces.insert(0, (0.0, gaps[j, seed]))
                p, q = vecs[j, :, lane, seed].tolist()
                x, y, dead[(j, lane, seed)] = _step_pieces(pieces, p, q, lam, k)
                vecs[j + 1, :, lane, seed] = x, y  # a unit vector, scale 1
                scales[j, lane, seed] = 1.0
            first = j + 1
        return pre, gap, dead

    def _push(self, mats, vecs, scales, first: int) -> None:
        """Push every lane through the steps from first on: the lean loop."""
        prod = self._prod
        size = prod[0]  # free again once a step's products are summed
        prod0, prod1, size0, size1 = prod[:, 0], prod[:, 1], size[0], size[1]
        with np.errstate(invalid="ignore", over="ignore"):
            for mat, vec, nxt, scale in zip(mats[first:], vecs[first:-1], vecs[first + 1:],
                                            scales[first:]):
                np.multiply(mat, vec, out=prod)
                np.add(prod0, prod1, out=nxt)
                np.absolute(nxt, out=size)
                np.maximum(size0, size1, out=scale)
                np.divide(nxt, scale, out=nxt)

    def carry(self, n_steps: int) -> None:
        """Make the vectors after step n_steps the next segment's start."""
        self.vecs[0] = self.vecs[n_steps]


def _unwind_segment(vecs, gap, values, gaps, lam: float, k: float):
    """Angles after a segment's bumps and whole turns of its pieces, on the theta lane (lane 0).

    Returns (angles, turns): angles[j] (bumps, seeds) is the angle
    arctan2(psi, psi'/k) of the vector after bump j, and turns (pieces,
    seeds) the whole turns of 2 pi across each piece, in piece order: one row
    per bump, or, with gaps, each gap's row before its bump's.  theta after
    bump j is angles[j] plus 2 pi times the turns of the pieces up to it,
    from the entering vector's angle.  With gaps, the vector after each gap
    is recovered from the vector before it, so the winding rule sees every
    piece boundary; it is scaled to a largest component of 1, which keeps
    the conjugate angles clear of overflow, and one that is exactly 0 (a
    long gap at lam < 0) comes from prufer._step_pieces, as in the lane
    walk.  The gaps and the bumps are then unwound as two runs of boundary
    pairs; at lam > 0 a gap is an exact rotation, whose turns
    _rotation_turns reads off the two boundary angles alone.
    """
    p = np.ascontiguousarray(vecs[:, 0, 0])
    q = np.ascontiguousarray(vecs[:, 1, 0])
    angle = np.arctan2(p, q)
    enter = (p[:-1], q[:-1], angle[:-1])
    leave = (p[1:], q[1:], angle[1:])
    if gap is None:
        return leave[2], _piece_turns(enter, leave, values, 1.0, lam, k)
    gc, gb, ge, _ = gap
    gp = gc * enter[0] + gb * enter[1]
    gq = ge * enter[0] + gc * enter[1]
    size = np.maximum(np.abs(gp), np.abs(gq))
    for j, s in np.argwhere(size == 0.0).tolist():  # (step, seed)
        gp[j, s], gq[j, s], _ = _step_pieces([(0.0, gaps[j, s])], p[j, s], q[j, s], lam, k)
        size[j, s] = 1.0
    gp /= size
    gq /= size
    mid = (gp, gq, np.arctan2(gp, gq))
    turns = np.empty((2 * len(gp),) + gp.shape[1:])
    if lam > 0.0:  # every gap an exact rotation
        turns[0::2] = _rotation_turns(enter[2], mid[2], gaps, lam)
    else:
        turns[0::2] = _piece_turns(enter, mid, 0.0, gaps, lam, k)
    turns[1::2] = _piece_turns(mid, leave, values, 1.0, lam, k)
    return leave[2], turns


def sweep_chains(
    config: ModelConfig,
    n_bumps: int,
    n_seeds: int,
    stream: RngStream,
    *,
    first_seed: int = 0,
    want_theta: bool = False,
    want_log_norm: bool = False,
) -> SweepRecord:
    """Advance n_seeds independent chains for n_bumps bumps; each seed's state after the last.

    Entry i of the record is seed first_seed + i, which draws from
    split_stream(stream, first_seed + i) through ``potentials._draw_blocks``,
    a block of seeds at a time, so scalar and vectorized runs see identical
    chains, and the seeds of one stream can be swept in separate calls.

    The chains are walked as in prufer.walk_chain, across seeds and one
    segment of bumps at a time.  The lanes are vectors (psi, psi'/k): M v0,
    the image of the boundary-condition vector v0 = (sin theta_s,
    cos theta_s) under every seed's transfer-matrix product, whose angle is
    theta, and, for the log norm, M v0' with v0' = (cos theta_s,
    -sin theta_s) as well.  v0 and v0' are an orthonormal basis, so
    ||M||**2 (Frobenius) = |M v0|**2 + |M v0'|**2, and a record with both
    theta and the log norm walks two lanes.  Per segment:

    1. the piece matrices of all its bumps and seeds come from one
       _piece_entries_batch call (model III's unit bump from one call per
       seed block), and those of its gaps from another; each gap is
       multiplied into the bump after it, so that one step covers one bump;
    2. a loop over the bumps pushes every lane through its step matrix, in
       numpy across lanes, into preallocated buffers, and divides each
       step's vector by its larger component;
    3. the whole turns of every piece are counted from the stored boundary
       vectors of M v0 by walk_chain's winding rule (_unwind_segment) and
       added to a running sum, one piece at a time; log|M v| of each log
       lane adds up the prescales and the logs of the steps' scales.

    At the end theta is the last vector's angle plus 2 pi times the sum of
    the turns, as walk_chain forms it; log|M v| adds the log length of its
    last vector once, and log||M|| is log sqrt(|M v0'|**2 + |M v0|**2).
    At theta_s = 0, v0 and v0' are e2 and e1, the columns of M.  Each
    segment is unwound from its entering vector's angle, which is theta_s in
    [0, pi] for the first and the angle the segment before left for the
    rest.  A segment holds _segment_length(seeds in the block) bumps.
    Positions, log norms and turns are added in piece order, so no value
    depends on the segment length or on how the seeds are split into calls,
    at any size of theta (model II at alpha1 = 0.02 winds to 1e77 and more
    in 128 bumps).  Each lane depends on its own seed only.  A log-norm lane
    that leaves float range raises SaturationError; a theta lane fed an
    infinite bump height turns NaN.  Gap models accept any energy: at
    lam <= 0 gaps are ordinary hyperbolic or degenerate pieces.
    """
    if n_bumps < 1 or n_seeds < 1:
        raise ValueError("n_bumps and n_seeds must be positive")
    frame = config.frame()
    lam = frame.lam
    k = frame.k_norm
    theta_start = boundary_theta(config.theta0, frame)
    rec = SweepRecord(x=np.empty(n_seeds),
                      theta=np.empty(n_seeds) if want_theta else None,
                      log_norm=np.empty(n_seeds) if want_log_norm else None)

    # lanes: M v0 for theta and the log norm, M v0' for the log norm
    sin_s, cos_s = math.sin(theta_start), math.cos(theta_start)
    starts = ([(sin_s, cos_s)] if want_theta or want_log_norm else []) \
        + ([(cos_s, -sin_s)] if want_log_norm else [])
    n_lanes = len(starts)

    for lo, hi in _chunk_sizes(n_seeds, n_bumps):
        value_blk, gap_blk = _draw_blocks(
            config, stream.seed, split_ids(stream, first_seed + lo, first_seed + hi), n_bumps)
        s = hi - lo
        seg = _segment_length(s)
        lanes = _LaneWalk(starts, seg, s, value_blk, lam, k)
        whole = np.full(s, -0.0)  # whole turns so far; -0.0 adds as nothing
        logs = np.zeros((2, s))
        pos = np.zeros(s)

        for j0 in range(0, n_bumps, seg):
            j1 = min(n_bumps, j0 + seg)
            nj = j1 - j0
            values = _columns(value_blk, j0, j1)
            gaps = _columns(gap_blk, j0, j1)

            if gaps is not None:
                # (pos, gap, 1, gap, 1, ...) summed in order: cumsum adds
                # along a row one term at a time, where sum would pair them
                steps = np.empty((s, 2 * nj + 1))
                steps[:, 0] = pos
                steps[:, 1::2] = gap_blk[:, j0:j1]
                steps[:, 2::2] = 1.0
                pos = np.cumsum(steps, axis=1)[:, -1]
            else:
                pos = pos + nj

            if n_lanes:
                pre, gap, dead = lanes.walk(nj, values, gaps)
            if want_theta:
                angles, turns = _unwind_segment(lanes.vecs[:nj + 1], gap, values, gaps, lam, k)
                # an axis-0 reduce adds the rows in order, as a loop would,
                # while a row holds two seeds or more; it would sum one
                # seed's column pairwise, which accumulate does not
                turns[0] += whole
                whole = (np.add.reduce(turns, axis=0) if s > 1
                         else np.add.accumulate(turns, axis=0)[-1])
            if want_log_norm:
                gains = pre[:, None, :] + np.log(lanes.scales[:nj])
                for (j, lane, seed), gain in dead.items():
                    gains[j, lane, seed] = gain
                # an axis-0 reduce adds the rows in order, as a loop would
                gains[0] += logs
                logs = np.add.reduce(gains, axis=0)
                # a non-finite gain leaves its lane's sum non-finite
                if not np.all(np.isfinite(logs)):
                    raise SaturationError("chain sweep product left representable range")
            lanes.carry(nj)

        rec.x[lo:hi] = pos
        if want_theta:
            rec.theta[lo:hi] = angles[-1] + _TWO_PI * whole
        if want_log_norm:
            psi, psik = lanes.vecs[0]  # the last vectors, carried
            logs += np.log(np.hypot(psi, psik))
            rec.log_norm[lo:hi] = 0.5 * np.logaddexp(2.0 * logs[1], 2.0 * logs[0])

    return rec


# ── Single-chain trace ───────────────────────────────────────────────────────


def chain_trace(config: ModelConfig, n_bumps: int, stream: RngStream) -> SweepRecord:
    """One chain's x, theta and log norm after every bump, arrays over the bumps.

    The chain is generate's on stream, the one sweep_chains walks for a seed
    drawing from stream, so the last entries are that seed's record.  It is
    walked with walk_chain twice, as the sweep walks its lanes: from the
    boundary-condition vector v0 at phase theta_s, for theta and log|M v0|,
    and from v0' at phase theta_s + pi/2 for log|M v0'|.
    """
    real = generate(config, n_bumps, stream)
    frame = config.frame()
    theta_start = boundary_theta(config.theta0, frame)
    thetas, log_v0 = walk_chain(real.values, real.lengths, frame, theta_start)
    _, log_v1 = walk_chain(real.values, real.lengths, frame, theta_start + 0.5 * _PI)
    ends = np.flatnonzero(real.is_bump)
    log_norm = 0.5 * np.logaddexp(2.0 * log_v1[ends + 1], 2.0 * log_v0[ends + 1])
    return SweepRecord(x=real.boundaries[ends], theta=thetas[ends + 1], log_norm=log_norm)


# ── Heavy-tail scales ────────────────────────────────────────────────────────


def nonlinear_normalizers(config: ModelConfig, n_bumps: int,
                          x: np.ndarray) -> Tuple[Union[float, np.ndarray], float]:
    """The heavy-tail normalizers (lyapunov, rotation) of chains of n_bumps bumps.

    A sweep record's log norm over lyapunov and its theta over pi times
    rotation are the per-seed values whose laws the paper's stable limits
    describe.  The log norm is driven by the bump heights, n**(1/alpha1) on
    models I, II and IV, except on model III, whose unit bumps leave it to
    the chain length: x**alpha2 (L_n**alpha2), an array like x.  The
    rotation is driven by the bump heights on models I and II and by the gap
    lengths on models III and IV: n**(1/alpha1) or n**(1/alpha2).
    """
    n = float(n_bumps)
    if config.model is Model.III:
        lyapunov = x ** config.alpha2
    else:
        lyapunov = n ** (1.0 / config.alpha1)
    tail = config.alpha1 if config.model in (Model.I, Model.II) else config.alpha2
    return lyapunov, n ** (1.0 / tail)


def darling_ratio(values) -> float:
    """max / sum of a positive sample: the maximal term's share."""
    return float(darling_ratios(np.asarray(values, dtype=float).reshape(1, -1))[0])


def darling_ratios(samples: np.ndarray) -> np.ndarray:
    """darling_ratio of each row of a (samples, n) array, the same bits as row by row.

    A row that holds an infinite variate (a heavy-tailed draw past float
    range) would give inf/inf: it raises SaturationError naming the draw.
    """
    if samples.shape[1] == 0:
        raise ValueError("values must be nonempty")
    if not np.all(samples > 0.0):
        raise ValueError("values must be positive")
    top = samples.max(axis=1)
    overflowed = np.flatnonzero(np.isinf(top))
    if overflowed.size:
        row = int(overflowed[0])
        raise SaturationError(f"row {row}: variate {int(np.argmax(samples[row]))} of "
                              f"{samples.shape[1]} overflowed to inf, so max/sum is inf/inf")
    return top / samples.sum(axis=1)


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
    each lane's vector (psi, psi'/k) with its sign made canonical: the
    vector is negated where psi < 0, and pi maps to 0, so antiparallel lanes,
    which are the same phase, give the same float.  Each walk segment's
    steps go to stats._ks_distances as rows of m lanes laid end to end, so
    every entry is the float ks_distance gives for its two lanes, and a
    lane's NaN phase (a height that overflowed) is refused as ks_distance
    refuses it.
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

    seg = _segment_length(n_seeds)
    lanes = _LaneWalk(starts, seg, n_seeds, values, frame.lam, frame.k_norm)
    out = np.zeros((n_steps, m, m))
    for j0 in range(0, n_steps, seg):
        nj = min(n_steps, j0 + seg) - j0
        lanes.walk(nj, _columns(values, j0, j0 + nj), None)
        psi, psik = lanes.vecs[1:nj + 1, 0], lanes.vecs[1:nj + 1, 1]
        phases = np.arctan2(np.abs(psi), np.where(psi < 0.0, -psik, psik))
        phases[phases == _PI] = 0.0
        out[j0:j0 + nj] = _ks_distances(phases.reshape(nj, m * n_seeds), (n_seeds,) * m)
        lanes.carry(nj)
    return out
