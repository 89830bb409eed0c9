"""Transfer matrices without overflow.

The propagator of one piecewise-constant piece is an SL(2,R) matrix; a chain
is the product of thousands of them, whose norm grows exponentially.  The
library keeps every stored entry O(1) and carries the growth in a log scale,
so products of arbitrarily heavy pieces never overflow.

Run:  python3 demos/transfer_growth.py
"""
import math

import numpy as np

from heavykp.potentials import Model, ModelConfig, generate
from heavykp.rng import RngStream
from heavykp.transfer import (
    EnergyFrame,
    accumulate,
    det_defect,
    identity_mat,
    log_norm,
    transfer_matrix,
)

frame = EnergyFrame.from_lambda(2.0)

# a single well-behaved piece: quarter rotation of the free flow
free = transfer_matrix(0.0, math.pi / (2.0 * frame.k_norm), frame)
print("free quarter rotation, stored entries:")
print(np.array([[free.m.a, free.m.b], [free.m.c, free.m.d]]).round(12))

# a catastrophically heavy bump: e^(b l) ~ 10^434 would overflow a float,
# the factored form stores O(1) entries and log_scale = 1000
heavy = transfer_matrix(2.0 + 1e6, 1.0, frame)
print(f"\nbump V = 2 + 1e6, length 1: log_scale = {heavy.log_scale:.1f} "
      f"(norm ~ 10^{heavy.log_scale / math.log(10):.0f})")
print(f"stored entry magnitudes stay tame: "
      f"{max(abs(heavy.m.a), abs(heavy.m.b), abs(heavy.m.c), abs(heavy.m.d)):.3f}")

# determinants are exactly 1 in formula; det_defect measures the float defect
worst = 0.0
for v in (1.9999999999, 2.0, 3.0, 500.0, 1e8):
    worst = max(worst, det_defect(v, 1.7, frame))
print(f"\nworst |det - 1| across benign and heavy pieces: {worst:.2e}")

# a thousand-piece random product: growth accumulates in the log
cfg = ModelConfig(model=Model.I, energy=2.0, alpha1=0.5)
r = generate(cfg, 1000, RngStream(21))
acc = identity_mat()
for value, length in zip(r.values.tolist(), r.lengths.tolist()):
    acc = accumulate(acc, transfer_matrix(value, length, frame))
print(f"\n1000-bump product: ln||M|| = {log_norm(acc):.1f} "
      f"(||M|| ~ 10^{log_norm(acc) / math.log(10):.0f}, no overflow)")
