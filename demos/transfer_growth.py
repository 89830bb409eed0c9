"""Transfer matrices without overflow.

The propagator of one piecewise-constant piece is an SL(2,R) matrix; a chain
is the product of thousands of them, whose norm grows exponentially.  The
library never stores that product: it walks the solution vectors (the
columns M e1 and M e2) through the pieces, keeps them at unit length and
carries the growth in a log radius, so products of arbitrarily heavy pieces
never overflow.

Run:  python3 demos/transfer_growth.py
"""
import math

import numpy as np

from heavykp.estimators import chain_trace
from heavykp.potentials import Model, ModelConfig
from heavykp.prufer import walk_chain
from heavykp.rng import RngStream
from heavykp.transfer import EnergyFrame, det_defect

frame = EnergyFrame(2.0)


def product(values, lengths):
    """(log ||M||, M / ||M||) of a chain's product, from its two walked columns."""
    cols = [walk_chain(np.array(values), np.array(lengths), frame, theta)
            for theta in (0.5 * math.pi, 0.0)]  # e1 = (1, 0) and e2 = (0, 1)
    log_norm = 0.5 * np.logaddexp(2.0 * cols[0][1][-1], 2.0 * cols[1][1][-1])
    unit = np.array([[math.exp(log_r[-1] - log_norm) * f(theta[-1]) for theta, log_r in cols]
                     for f in (math.sin, math.cos)])
    return log_norm, unit


# a single well-behaved piece: quarter rotation of the free flow
log_norm, unit = product([0.0], [math.pi / (2.0 * frame.k_norm)])
print("free quarter rotation, stored entries:")
print((math.exp(log_norm) * unit).round(12))

# a catastrophically heavy bump: e^(b l) ~ 10^434 would overflow a float,
# the walk keeps unit vectors and carries the growth in the log radius
log_norm, unit = product([2.0 + 1e6], [1.0])
print(f"\nbump V = 2 + 1e6, length 1: log_scale = {log_norm:.1f} "
      f"(norm ~ 10^{log_norm / math.log(10):.0f})")
print(f"stored entry magnitudes stay tame: {np.abs(unit).max():.3f}")

# determinants are exactly 1 in formula; det_defect measures the float defect
worst = 0.0
for v in (1.9999999999, 2.0, 3.0, 500.0, 1e8):
    worst = max(worst, det_defect(v, 1.7, frame))
print(f"\nworst |det - 1| across benign and heavy pieces: {worst:.2e}")

# a thousand-piece random product: growth accumulates in the log
cfg = ModelConfig(model=Model.I, energy=2.0, alpha1=0.5)
log_norm = chain_trace(cfg, 1000, RngStream(21)).log_norm[-1]
print(f"\n1000-bump product: ln||M|| = {log_norm:.1f} "
      f"(||M|| ~ 10^{log_norm / math.log(10):.0f}, no overflow)")
