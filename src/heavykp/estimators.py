"""Monte Carlo estimators for the chain limit objects.

Everything here reduces to one sweep over sampled chains, sweep_chains.  It
walks many independent chains at once, segment by segment, the way
prufer.walk_chain walks one chain: piece matrices and the products of each
gap with its bump in bulk, a lean loop over the bumps that pushes unit
vectors (numpy across seeds), and the results read off the stored vectors,
with the vector between a gap and its bump recovered from the one before.
It returns each seed's state after the last bump, a SweepRecord:

    x           the chain length x_n;
    theta       the unwound Prufer phase of the boundary-condition vector;
    log norm    log||M|| of the transfer-matrix product, from its columns
                M e1 and M e2.

The sweep draws each block of seeds at once through potentials._draw_blocks,
the one statement of the canonical draw order and of the map from draws to
bump potentials and gap lengths, and walks its pieces as they come;
potentials.generate lays out the same pieces.  chain_trace walks generate's
chain with prufer.walk_chain and records the same three values after every
bump, so its last entries retrace a sweep seed, which is what the oracle
tests pin down.  chain_mixing walks its starting points as lanes of the same
lane walk.

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
from .prufer import (
    _dead_direction,
    _piece_turns,
    boundary_theta,
    walk_chain,
)
from .rng import RngStream, split_ids
from .transfer import SaturationError, _piece_entries_batch, _product_entries
# Nothing here calls these samplers, the matrix-product folds, phase_fold or
# ks_distance (chain_mixing computes its KS distances in bulk, _lane_ks).
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


# Norm band of the fast step: inside it sqrt(x*x + y*y) neither overflows
# nor loses digits to underflow.  A lane whose step norm falls outside is
# redone on its own with hypot, and a norm that is then exactly 0 marks a
# dead-direction lane.
_NORM_BAND = (1e-150, 1e150)


def _in_band(norms) -> bool:
    """Whether every norm that is not NaN lies inside _NORM_BAND.

    fmin and fmax skip NaN as the band masks do, so the masks need to be
    built only where this fails (all-NaN norms fail it too, and the masks
    then find no lane).
    """
    lo, hi = _NORM_BAND
    return np.fmin.reduce(norms, axis=None) > lo and np.fmax.reduce(norms, axis=None) < hi


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

    vecs holds (steps + 1, 2, lanes, seeds) unit vectors (psi, psi'/k) with
    the entering ones in row 0, norms (steps, lanes, seeds) the norm of every
    step and mats (steps, 2, 2, 1, seeds) the step matrices.  value_blk is
    the block's bump potentials from _draw_blocks; when it is model III's
    scalar unit bump, its matrix entries are built here once for the walk.
    """

    def __init__(self, starts, n_steps: int, n_seeds: int, value_blk, lam: float, k: float):
        n_lanes = len(starts)
        self.lam = lam
        self.k = k
        self._unit = (_piece_entries_batch(value_blk, 1.0, lam, k)
                      if np.ndim(value_blk) == 0 else None)
        self.vecs = np.empty((n_steps + 1, 2, n_lanes, n_seeds))
        self.norms = np.empty((n_steps, n_lanes, n_seeds))
        self.mats = np.empty((n_steps, 2, 2, 1, n_seeds))
        self._prod = np.empty((2, 2, n_lanes, n_seeds))
        for lane, (p, q) in enumerate(starts):
            self.vecs[0, 0, lane] = p
            self.vecs[0, 1, lane] = q

    def walk(self, n_steps: int, values, gaps):
        """Walk the lanes through a segment of n_steps bumps.

        Returns the steps' log prescales, the gap entries and the log gains
        of dead-direction steps by (step, lane, seed).  Steps run on the fast
        norm.  At the first step where a lane's norm left _NORM_BAND, each
        such lane is redone alone with hypot, and the walk resumes after
        that step; every lane's values therefore depend on that
        lane alone.  A lane whose norm is then exactly 0 sits on the
        contracting direction of a factored bump and takes phase_fold's
        dead-direction arithmetic, after its gap if there is one.  NaN norms
        (lanes fed an infinite height) pass.
        """
        lam, k = self.lam, self.k
        mats = self.mats[:n_steps]
        vecs = self.vecs[:n_steps + 1]
        norms = self.norms[:n_steps]
        bump = self._unit if self._unit is not None else _piece_entries_batch(values, 1.0, lam, k)
        pre, gap = _step_matrices(mats, bump, gaps, lam, k)
        lo, hi = _NORM_BAND
        dead: Dict[tuple, float] = {}
        first = 0
        while first < n_steps:
            self._push(mats, vecs, norms, first)
            rest = norms[first:]
            if _in_band(rest):
                break
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


def _unwind_segment(vecs, gap, values, gaps, lam: float, k: float, start=None):
    """Angles after a segment's bumps and whole turns of its pieces, on the theta lane (lane 0).

    Returns (angles, turns): angles[j] (bumps, seeds) is the angle
    arctan2(psi, psi'/k) of the vector after bump j, and turns (pieces,
    seeds) the whole turns of 2 pi across each piece, in piece order: one row
    per bump, or, with gaps, each gap's row before its bump's.  theta after
    bump j is angles[j] plus 2 pi times the turns of the pieces up to it.
    start, if given, is theta at the segment's start and stands in for the
    entering vector's angle, so its own whole turns land in turns[0].  With
    gaps, the vector after each gap is recovered from the vector before it,
    so the winding rule sees every piece boundary; it is scaled to a largest
    component of 1, which keeps the conjugate angles clear of overflow.  The
    gaps and the bumps are then unwound as two runs of boundary pairs.
    """
    p = np.ascontiguousarray(vecs[:, 0, 0])
    q = np.ascontiguousarray(vecs[:, 1, 0])
    angle = np.arctan2(p, q)
    enter = (p[:-1], q[:-1], angle[:-1])
    leave = (p[1:], q[1:], angle[1:])
    if gap is None:
        return leave[2], _piece_turns(enter, leave, values, 1.0, lam, k, start)
    gc, gb, ge, _ = gap
    gp = gc * enter[0] + gb * enter[1]
    gq = ge * enter[0] + gc * enter[1]
    size = np.maximum(np.abs(gp), np.abs(gq))
    gp /= size
    gq /= size
    mid = (gp, gq, np.arctan2(gp, gq))
    turns = np.empty((2 * len(gp),) + gp.shape[1:])
    turns[0::2] = _piece_turns(enter, mid, 0.0, gaps, lam, k, start)
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
    segment of bumps at a time.  The lanes are unit vectors (psi, psi'/k):
    the boundary-condition vector of every seed for theta, and the two
    columns M e1, M e2 of every seed's transfer-matrix product for the log
    norm.  Per segment:

    1. the piece matrices of all its bumps and seeds come from one
       _piece_entries_batch call (model III's unit bump from one call per
       seed block), and those of its gaps from another; each gap is
       multiplied into the bump after it, so that one step covers one bump;
    2. a loop over the bumps pushes every lane through its step matrix, in
       numpy across lanes, renormalizing into preallocated buffers;
    3. the whole turns of every piece are counted from the stored boundary
       vectors by walk_chain's winding rule (_unwind_segment) and added to
       a running sum, one piece at a time; log|M e_i| adds up the prescales
       and the logs of the norms.

    At the end theta is the last vector's angle plus 2 pi times the sum of
    the turns, as walk_chain forms it, and log||M|| (Frobenius) is
    log sqrt(|M e1|**2 + |M e2|**2).  Only the first segment starts from the
    boundary phase; each later one starts from its entering vector's own
    angle, which is the angle the segment before left.  A segment holds
    _segment_length(seeds in the block) bumps.  Positions, log norms and
    turns are added in piece order, so no value depends on the segment
    length or on how the seeds are split into calls, at any size of theta
    (model II at alpha1 = 0.02 winds to 1e77 and more in 128 bumps).  Each
    lane depends on its own seed only.  A log-norm lane that leaves float
    range raises SaturationError; a theta lane fed an infinite bump height
    turns NaN.  Gap models accept any energy: at lam <= 0 gaps are ordinary
    hyperbolic or degenerate pieces.
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

    # lanes: the theta vector, then the columns e1 and e2
    starts = ([(math.sin(theta_start), math.cos(theta_start))] if want_theta else []) \
        + ([(1.0, 0.0), (0.0, 1.0)] if want_log_norm else [])
    n_lanes = len(starts)
    first_col = 1 if want_theta else 0

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
                angles, turns = _unwind_segment(lanes.vecs[:nj + 1], gap, values, gaps, lam, k,
                                                theta_start if j0 == 0 else None)
                # an axis-0 reduce adds the rows in order, as a loop would,
                # while a row holds two seeds or more; it would sum one
                # seed's column pairwise, which accumulate does not
                turns[0] += whole
                whole = (np.add.reduce(turns, axis=0) if s > 1
                         else np.add.accumulate(turns, axis=0)[-1])
            if want_log_norm:
                gains = pre[:, None, :] + np.log(lanes.norms[:nj, first_col:])
                for (j, lane, seed), gain in dead.items():
                    if lane >= first_col:
                        gains[j, lane - first_col, seed] = gain
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
            rec.log_norm[lo:hi] = 0.5 * np.logaddexp(2.0 * logs[0], 2.0 * logs[1])

    return rec


# ── Single-chain trace ───────────────────────────────────────────────────────


def chain_trace(config: ModelConfig, n_bumps: int, stream: RngStream) -> SweepRecord:
    """One chain's x, theta and log norm after every bump, arrays over the bumps.

    The chain is generate's on stream, the one sweep_chains walks for a seed
    drawing from stream, so the last entries are that seed's record.  It is
    walked with walk_chain from the boundary-condition vector for theta, and
    from theta = pi/2 and 0 for the columns M e1 and M e2 of the log norm.
    """
    real = generate(config, n_bumps, stream)
    frame = config.frame()
    thetas, _ = walk_chain(real.values, real.lengths, frame,
                           boundary_theta(config.theta0, frame))
    (_, log_e1), (_, log_e2) = (walk_chain(real.values, real.lengths, frame, t)
                                for t in (0.5 * _PI, 0.0))
    ends = np.flatnonzero(real.is_bump)
    log_norm = 0.5 * np.logaddexp(2.0 * log_e1[ends + 1], 2.0 * log_e2[ends + 1])
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


def _lane_ks(phases) -> np.ndarray:
    """KS distances between the lanes of phases (steps, lanes, seeds), every step at once.

    Entry [s, i, j] is the float ks_distance gives for lanes i and j at step
    s.  The lanes of a step are merged in one sort; the count of lane i's
    samples at or below a value is the running count of lane i read at the
    last element of the value's run of equal values, as searchsorted(side
    = "right") counts it.  The sup of |F_i - F_j| over the values of any
    lanes is the sup over those of lanes i and j: between their jumps the
    difference is constant.  The refusal is Ecdf.from_samples' own (arctan2
    gives no inf, and sorting puts NaN last).
    """
    n_steps, m, s = phases.shape
    merged = phases.reshape(n_steps, m * s)
    order = np.argsort(merged, axis=1)
    ordered = np.take_along_axis(merged, order, axis=1)
    if np.isnan(ordered[:, -1]).any():
        raise ValueError("samples must be finite")
    run_end = np.empty(ordered.shape, dtype=bool)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=run_end[:, :-1])
    run_end[:, -1] = True
    lane = order // s
    # each lane's ECDF at every merged value, as Ecdf.evaluate divides its counts
    cdf = [np.cumsum(lane == i, axis=1) / s for i in range(m)]
    out = np.zeros((n_steps, m, m))
    for i in range(m):
        for j in range(i + 1, m):
            gap = np.abs(cdf[i] - cdf[j])
            gap[~run_end] = 0.0
            out[:, i, j] = out[:, j, i] = gap.max(axis=1)
    return out


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

    seg = _segment_length(n_seeds)
    lanes = _LaneWalk(starts, seg, n_seeds, values, frame.lam, frame.k_norm)
    out = np.zeros((n_steps, m, m))
    for j0 in range(0, n_steps, seg):
        nj = min(n_steps, j0 + seg) - j0
        lanes.walk(nj, _columns(values, j0, j0 + nj), None)
        psi, psik = lanes.vecs[1:nj + 1, 0], lanes.vecs[1:nj + 1, 1]
        phases = np.arctan2(np.abs(psi), np.where(psi < 0.0, -psik, psik))
        phases[phases == _PI] = 0.0
        out[j0:j0 + nj] = _lane_ks(phases)
        lanes.carry(nj)
    return out
