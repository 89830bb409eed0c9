"""walk_chain against the single-piece reference walk.

walk_chain pushes its unit vector through two pieces per Python step and
recovers the boundary between them in numpy.  _reference_walk is the walk it
replaced: one piece per step, renormalizing after each.  They agree to
rounding, theta within 1e-13 max(1, |theta|) and log r within
1e-12 max(1, |log r|), on every model and on both sides of lam = 0.

A pair whose product norm is 0 or not finite, or one of whose pieces
annihilates the vector it is handed (a factored bump's dead direction), is
walked one piece at a time instead, by prufer._step_pieces, the fallback the
sweeps share.  The pair loop either stops before such a pair, or walks past
it and the bulk recovery finds the dead step, which it also hands to
_step_pieces; the tests below check which of the two ran.
"""
import math

import numpy as np
import pytest

from heavykp import prufer
from heavykp.potentials import Model, ModelConfig, generate
from heavykp.prufer import _dead_direction, _unwind_boundaries, boundary_theta, walk_chain
from heavykp.rng import RngStream, split_stream
from heavykp.transfer import A_FACTORED, EnergyFrame, SaturationError, _piece_entries_batch

THETA_TOL = 1e-13
LOG_R_TOL = 1e-12

# Annihilated by a bump of this height and length 400 at lam = 1: the
# boundary vector of theta0 = 2.35, and the vector that a gap of length 0.5
# turns theta = 1.85 into.  Both were found by scanning the height ulp by ulp.
_DEAD_HEIGHT = 1.975525874775178


def _reference_walk(values, lengths, frame: EnergyFrame, theta: float):
    """(thetas, log_rs) of one chain, stepping one piece at a time."""
    lam = frame.lam
    k = frame.k_norm
    values = np.asarray(values, dtype=float)
    lengths = np.asarray(lengths, dtype=float)
    diag, upper, lower, pre = _piece_entries_batch(values, lengths, lam, k)
    p = math.sin(theta)
    q = math.cos(theta)
    psi, psik, norms, dead = [p], [q], [], {}
    for c, b, e in zip(diag.tolist(), upper.tolist(), lower.tolist()):
        x = c * p + b * q
        y = e * p + c * q
        nrm = math.hypot(x, y)
        if nrm == 0.0:
            j = len(norms)
            x, y, dead[j] = _dead_direction(p, q, float(values[j]), float(lengths[j]), lam, k)
            nrm = math.hypot(x, y)
        p = x / nrm
        q = y / nrm
        psi.append(p)
        psik.append(q)
        norms.append(nrm)
    norm_arr = np.array(norms)
    if not np.all(np.isfinite(norm_arr)):
        raise SaturationError("chain walk left representable range")
    gains = pre + np.log(norm_arr)
    if lam > 0.0:
        gains[values == 0.0] = 0.0
    for j, gain in dead.items():
        gains[j] = gain
    thetas = _unwind_boundaries(np.array(psi), np.array(psik), values, lengths, lam, k, theta)
    return thetas, np.concatenate(([0.0], np.cumsum(gains)))


@pytest.fixture
def events(monkeypatch):
    """Record ("stop", j) where the pair loop stopped before pair j, ("step",
    values) for every call of the fallback step, with the values of its pieces
    (two for a pair, one for a dead piece of the bulk recovery), and ("dead",
    height) for every dead-direction step."""
    seen = []
    push, step, dead = prufer._push_pairs, prufer._step_pieces, prufer._dead_direction

    def spy_push(pairs, start, ends):
        done = push(pairs, start, ends)
        if done < len(pairs[0]):
            seen.append(("stop", done))
        return done

    def spy_step(pieces, p, q, lam, k):
        seen.append(("step", tuple(value for value, _ in pieces)))
        return step(pieces, p, q, lam, k)

    def spy_dead(p, q, value, length, lam, k):
        seen.append(("dead", value))
        return dead(p, q, value, length, lam, k)

    monkeypatch.setattr(prufer, "_push_pairs", spy_push)
    monkeypatch.setattr(prufer, "_step_pieces", spy_step)
    monkeypatch.setattr(prufer, "_dead_direction", spy_dead)
    return seen


def _assert_matches_reference(values, lengths, frame, theta):
    got_t, got_r = walk_chain(values, lengths, frame, theta)
    want_t, want_r = _reference_walk(values, lengths, frame, theta)
    assert got_t.shape == got_r.shape == (len(values) + 1,)
    assert np.all(np.abs(got_t - want_t) <= THETA_TOL * np.maximum(1.0, np.abs(want_t)))
    assert np.all(np.abs(got_r - want_r) <= LOG_R_TOL * np.maximum(1.0, np.abs(want_r)))


_MODELS = {
    "I": ModelConfig(model=Model.I, energy=1.0, alpha1=0.5),
    "II": ModelConfig(model=Model.II, energy=1.0, alpha1=0.5),
    "III": ModelConfig(model=Model.III, energy=1.0, alpha2=0.6),
    "IV": ModelConfig(model=Model.IV, energy=1.0, alpha1=0.5, alpha2=0.6),
}


@pytest.mark.parametrize("lam", [2.0, 0.3, -0.7, -4.0])
@pytest.mark.parametrize("name", list(_MODELS))
def test_walk_matches_reference(name, lam, events):
    # the pieces of generated chains, every model at lam on both sides of 0;
    # dropping the last piece makes the count odd
    frame = EnergyFrame(lam)
    for i in range(4):
        real = generate(_MODELS[name], 150 + i, split_stream(RngStream(4242), i))
        for n in (real.values.size, real.values.size - 1, 1, 2, 3):
            for theta in (0.0, 1.1, boundary_theta(2.9, frame)):
                _assert_matches_reference(real.values[:n], real.lengths[:n], frame, theta)
    assert events == []  # every pair took the pair loop


def test_dead_direction_in_first_piece(events):
    # the bump annihilates the boundary vector: the loop walks past pair 0
    # (bump, gap) and the bulk recovery finds the dead first step
    frame = EnergyFrame(1.0)
    theta = boundary_theta(2.35, frame)
    values, lengths = [_DEAD_HEIGHT, 0.0, 3.0], [400.0, 0.5, 1.0]
    _assert_matches_reference(values, lengths, frame, theta)
    assert ("step", (_DEAD_HEIGHT, 0.0)) in events and ("dead", _DEAD_HEIGHT) in events
    assert not any(kind == "stop" for kind, _ in events)
    # alone, the bump is an odd last piece: a single step of the bulk recovery
    events.clear()
    _assert_matches_reference(values[:1], lengths[:1], frame, theta)
    assert events == [("step", (_DEAD_HEIGHT,)), ("dead", _DEAD_HEIGHT)]


def test_dead_direction_in_second_piece(events):
    frame = EnergyFrame(1.0)
    # the gap turns theta = 1.85 onto the bump's dead direction; the pair
    # product leaves a vector of rounding size, which the loop walks on, and
    # the bulk recovery finds the dead second step
    values, lengths = [0.0, _DEAD_HEIGHT, 0.0, 3.0], [0.5, 400.0, 0.5, 1.0]
    _assert_matches_reference(values, lengths, frame, 1.85)
    assert ("step", (0.0, _DEAD_HEIGHT)) in events and ("dead", _DEAD_HEIGHT) in events
    assert not any(kind == "stop" for kind, _ in events)
    # a gap of length 1e-20 leaves the boundary vector as it is, and the pair
    # product annihilates it exactly: the loop stops before the pair
    events.clear()
    lengths[0] = 1e-20
    _assert_matches_reference(values, lengths, frame, boundary_theta(2.35, frame))
    assert events[:2] == [("stop", 0), ("step", (0.0, _DEAD_HEIGHT))]
    assert ("dead", _DEAD_HEIGHT) in events
    walked = walk_chain(values, lengths, frame, boundary_theta(2.35, frame))
    assert walked[1][2] < -390.0  # the dead branch contracts by about a ~ 395


@pytest.mark.parametrize("lam", [1e-100, -1e-100])
def test_overflowing_pair(lam, events):
    # two barriers (a = 299) in one pair at k = 1e-50: every entry of a
    # barrier matrix is bounded once exp(a) sits in the prescale, so their
    # product stays in float range and the pair walks as a pair
    frame = EnergyFrame(lam)
    height = (A_FACTORED - 1.0) ** 2
    values = [height, height, 0.0, 2.0, height, height, 0.0]
    for theta in (0.3, 2.0):
        _assert_matches_reference(values, np.ones(7), frame, theta)
    # and at k = 1e-150 one such barrier of length 1e-30 walks finite
    tiny = EnergyFrame(math.copysign(1e-300, lam))
    _assert_matches_reference([0.0, height * 1e60, 0.0], [0.5, 1e-30, 0.5], tiny, 0.3)
    assert events == []
    # a barrier of height 1e300 before a resonant piece (V = lam) of length
    # 1e200: both matrices are finite, and their product passes float range
    values = [1e300, lam, 0.0, 2.0, 1e300, lam, 0.0]
    lengths = [1.0, 1e200, 1.0, 1.0, 1.0, 1e200, 1.0]
    for theta in (0.3, 2.0):
        events.clear()
        with np.errstate(over="ignore", invalid="ignore"):
            _assert_matches_reference(values, lengths, frame, theta)
        pair = ("step", (1e300, lam))
        assert events == [("stop", 0), pair, ("stop", 2), pair]
    # at k = 2.2e-162 the lower entry of that barrier passes float range:
    # both walks raise
    frame = EnergyFrame(math.copysign(5e-324, lam))
    values, lengths = [0.0, 1e300, 0.0], [0.5, 1.0, 0.5]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SaturationError, match="chain walk left representable range"):
            _reference_walk(values, lengths, frame, 0.3)
        with pytest.raises(SaturationError, match="chain walk left representable range"):
            walk_chain(values, lengths, frame, 0.3)
