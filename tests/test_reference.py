"""The shared oracles of reference.py, each checked against a closed form."""
import math

import mpmath as mp
import numpy as np
import pytest

from reference import box_pieces, dense_zero_count, mp_piece, rk4_polar_flow


def test_box_ending_on_a_boundary_cuts_nothing():
    values = [0.0, 3.5, 0.0, -2.0, 0.0]
    lengths = [0.7, 0.1, 1.3, 0.2, 0.45]
    right = 0.0
    for j, length in enumerate(lengths):
        right += length
        assert box_pieces(values, lengths, right) == list(zip(values, lengths))[:j + 1]
    # a box ending inside the third piece cuts it to L_box minus its left edge
    assert box_pieces(values, lengths, 1.0) == [(0.0, 0.7), (3.5, 0.1), (0.0, 1.0 - (0.7 + 0.1))]


@pytest.mark.parametrize("lam", [0.3, 2.0, 40.0])
def test_dense_count_on_a_free_box_counts_the_zeros_of_sin(lam):
    # V = 0 throughout: psi = sin(k x) with phase k x at every boundary, and
    # its zeros on (0, L] are the m pi / k <= L, m >= 1
    lengths = [0.7, 1.3, 0.45, 2.1, 0.9]
    edges = np.concatenate(([0.0], np.cumsum(lengths)))
    k = math.sqrt(lam)
    count = dense_zero_count([(0.0, length) for length in lengths], (k * edges).tolist(), lam, k)
    assert count == math.floor(k * edges[-1] / math.pi)


@pytest.mark.parametrize("lam,length", [(0.5, 1.7), (4.0, 2.5)])
def test_rk4_flow_through_a_free_piece_is_a_rotation(lam, length):
    # V = 0 at lam > 0: theta' = k and (log r)' = 0
    theta0 = np.array([0.0, 0.3, 1.9, 2.8])
    k = math.sqrt(lam)
    theta, log_r = rk4_polar_flow(theta0, 0.0, length, lam, k, 256)
    assert np.max(np.abs(theta - (theta0 + k * length))) <= 1e-10
    assert np.max(np.abs(log_r)) <= 1e-10


@pytest.mark.parametrize("value,length,lam", [(-3.0, 1.3, 2.0), (11.0, 0.8, 2.0),
                                              (1.0, 1.5, -2.0), (2.0, 1.1, 2.0)],
                         ids=["oscillatory", "hyperbolic", "hyperbolic-below-0", "degenerate"])
@pytest.mark.parametrize("dps", [30, 80])
def test_mp_piece_is_unimodular(value, length, lam, dps):
    with mp.workdps(dps):
        m = mp_piece(value, length, lam, math.sqrt(abs(lam)))
        assert abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] - 1) <= mp.mpf(10) ** (5 - dps)
