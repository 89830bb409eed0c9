"""Phase flow with exact winding.

The solution of -psi'' + V psi = lambda psi is tracked in polar form
(psi, psi'/k) = r (sin theta, cos theta).  The phase advance through each
piece is closed-form, monotone bookkeeping included, so theta(x)/pi counts
solution zeros exactly, piece by piece, with no integration error.

Run:  python3 demos/rotation_winding.py
"""
import math

import numpy as np

from heavykp.estimators import sweep_chains
from heavykp.potentials import Model, ModelConfig, generate
from heavykp.prufer import walk_chain
from heavykp.rng import RngStream, split_stream
from heavykp.transfer import EnergyFrame

# walk_chain carries (theta, ln r) across a chain of constant pieces, given
# as value and length columns, and returns both at every piece boundary.

# free flow: theta advances at exactly k per unit length
frame = EnergyFrame(4.0)
thetas, _ = walk_chain([0.0] * 5, [5.0] * 5, frame, 0.0)
print(f"free flow at k = 2, five gaps of length 5: theta(0, 5, ..., 25) = "
      f"{', '.join(f'{t:.6f}' for t in thetas)} (= 2 x)")
print(f"  zeros so far: {math.floor(thetas[-1] / math.pi)}")

# a hyperbolic piece pushes the phase toward a fixed point and grows r
thetas, log_rs = walk_chain([120.0], [2.0], frame, 0.3)
print(f"deep bump (V = 120, l = 2): theta -> {thetas[-1]:.4f} (pinned below pi), "
      f"ln r = {log_rs[-1]:.1f} (~ sqrt(V - lambda) * l = {math.sqrt(116) * 2:.1f})")

# For Model II every piece is oscillatory and the total rotation is pinned
# to the sum of the local frequencies: theta(n) = sum sqrt(lam + X_j) + O(n).
cfg = ModelConfig(model=Model.II, energy=1.0, alpha1=0.5)
stream = RngStream(31)
rec = sweep_chains(cfg, 500, 200, stream, want_theta=True)
# seed i's chain is generate's chain on split_stream(stream, i)
sqrt_sums = [np.sqrt(cfg.energy - generate(cfg, 500, split_stream(stream, i)).values).sum()
             for i in range(200)]
dev = np.abs(rec.theta - sqrt_sums)
print(f"\nModel II, 500 wells, 200 chains:")
print(f"  theta(n) vs sum sqrt(lam + X): worst |difference| = {dev.max():.1f}")
print(f"  the bound pi (n + 1) = {math.pi * 501:.1f} is never approached")

# the rotation number theta/(pi x) estimates the integrated density of states
cfg3 = ModelConfig(model=Model.III, energy=1.0, alpha2=0.5)
rec = sweep_chains(cfg3, 2000, 200, RngStream(32), want_theta=True)
ids = np.median(rec.theta / (math.pi * rec.x))
print(f"\nModel III rotation number per unit length: {ids:.5f} "
      f"(free value k/pi = {1 / math.pi:.5f})")
