"""Heavy-tailed sums, their stable limit, and the share of the maximum.

For tail index alpha < 1, normalized block sums converge to a one-sided
alpha-stable law.  Convergence is checked the way the test suite does it:
compare the empirical law at block size n against 4n (doubling) and against
an exact stable sampler with the scale fitted on medians.  The same draws
illustrate the max-over-sum phenomenon: one term carries a macroscopic
share of the whole sum, at every block size.

Run:  python3 demos/stable_doubling.py
"""
import numpy as np

from heavykp.estimators import darling_ratio
from heavykp.rng import RngStream, sample_gap_length, sample_stable_oracle
from heavykp.stats import ks_distance, mean_ci

ALPHA = 0.5
REPS = 4000
gen = RngStream(55).generator()


def scaled_sums(n):
    block = sample_gap_length(ALPHA, gen, size=REPS * n).reshape(REPS, n)
    return block.sum(axis=1) / float(n) ** (1.0 / ALPHA), block


print(f"Frechet({ALPHA}) block sums over n^(1/{ALPHA}), {REPS} replicas:")
prev = None
blocks = {}
for n in (64, 256, 1024):
    s, blocks[n] = scaled_sums(n)
    line = f"  n = {n:4d}: median {np.median(s):7.2f}"
    if prev is not None:
        line += f",  KS vs previous size {ks_distance(prev, s):.4f}"
    print(line)
    prev = s

# the limit law itself, scale-fitted on medians
oracle = sample_stable_oracle(ALPHA, RngStream(56).generator(), size=REPS)
scale = np.median(prev) / np.median(oracle)
print(f"\nKS against the stable oracle (median-fitted scale {scale:.2f}): "
      f"{ks_distance(prev, scale * oracle):.4f}")

# Darling: the largest term's share of the sum does not vanish with n
print("\nmax-over-sum share by block size:")
for n in (64, 256, 1024):
    ratios = np.array([darling_ratio(row) for row in blocks[n]])
    ci = mean_ci(ratios)
    print(f"  n = {n:4d}: mean {ci.mean:.4f} +- {ci.half_width:.4f}")
print("(for light tails this would decay like log(n)/n; here it plateaus)")
