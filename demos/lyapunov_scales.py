"""Lyapunov exponents on linear and nonlinear scales.

With heavy-tailed bumps the growth of ln||M([0, x])|| need not be linear in
x.  A sweep's log norms take both normalizations:

    linear      ln||M|| / x          (the classical exponent)
    nonlinear   ln||M|| / n^(1/alpha)  or  / L_n^alpha, model-dependent

Model I grows super-linearly (the linear exponent diverges), Model III has a
zero linear exponent but a positive nonlinear one.  A few hundred chains per
model make both effects visible.

Run:  python3 demos/lyapunov_scales.py
"""
import numpy as np

from heavykp.estimators import nonlinear_normalizers, sweep_chains
from heavykp.potentials import Model, ModelConfig
from heavykp.rng import RngStream

SEEDS = 200

# Model I: the linear-scale value keeps climbing with n (no finite limit)
cfg1 = ModelConfig(model=Model.I, energy=1.0, alpha1=0.5)
recs = {n: sweep_chains(cfg1, n, SEEDS, RngStream(41), want_log_norm=True)
        for n in (100, 400, 1600, 6400)}
print("Model I, linear scale ln||M||/n by chain length:")
for n, rec in recs.items():
    print(f"  n = {n:5d}: median {np.median(rec.log_norm / float(n)):9.2f}")

# same chains on the nonlinear scale: stable across n
print("\nModel I, nonlinear scale (normalizer n^2):")
for n, rec in recs.items():
    lyapunov, _ = nonlinear_normalizers(cfg1, n, rec.x)
    print(f"  n = {n:5d}: median {np.median(rec.log_norm / lyapunov):9.4f}")

# Model II has an honest positive linear exponent
cfg2 = ModelConfig(model=Model.II, energy=1.0, alpha1=0.5)
rec = sweep_chains(cfg2, 2000, SEEDS, RngStream(42), want_log_norm=True)
print(f"\nModel II linear exponent at n = 2000: "
      f"median {np.median(rec.log_norm / rec.x):.4f} (finite and positive)")

# Model III dichotomy: per-length rate vanishes, per-bump rate does not.
# Its chains draw one array per seed, so the shorter chains are the first
# bumps of the longer ones.
cfg3 = ModelConfig(model=Model.III, energy=1.0, alpha2=0.5)
print("\nModel III: ln||M||/L shrinks with n while ln||M||/n holds steady")
print(f"  {'n':>6} {'ln||M||/L':>12} {'ln||M||/n':>12}")
for n in (100, 400, 1600, 6400):
    rec = sweep_chains(cfg3, n, SEEDS, RngStream(43), want_log_norm=True)
    per_len = np.median(rec.log_norm / rec.x)
    per_bump = np.median(rec.log_norm / n)
    print(f"  {n:6d} {per_len:12.2e} {per_bump:12.5f}")
