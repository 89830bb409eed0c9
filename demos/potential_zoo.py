"""A tour of the four chain potentials.

Each model assembles a piecewise-constant potential from heavy-tailed draws:

    I   : adjacent unit-length bumps of height X_n (squares of Frechet draws)
    II  : the same geometry flipped to wells, V = -X_n
    III : unit bumps separated by Frechet-distributed flat gaps
    IV  : signed bumps (coin-flip sign) separated by gaps

Run:  python3 demos/potential_zoo.py
"""
import io

import numpy as np

from heavykp.potentials import Model, ModelConfig, generate, realization_from_csv
from heavykp.rng import RngStream, split_stream

stream = RngStream(7)

configs = {
    "I": ModelConfig(model=Model.I, energy=1.0, alpha1=0.5),
    "II": ModelConfig(model=Model.II, energy=1.0, alpha1=0.5),
    "III": ModelConfig(model=Model.III, energy=1.0, alpha2=0.6),
    "IV": ModelConfig(model=Model.IV, energy=1.0, alpha1=0.5, alpha2=0.6),
}

for i, (name, cfg) in enumerate(configs.items()):
    r = generate(cfg, 8, split_stream(stream, i))
    vals = ", ".join(f"{v:.3g}" for v in r.values[r.is_bump][:4])
    print(f"Model {name:>3}: {r.values.size:2d} pieces, total length "
          f"{r.total_length:9.3f}, first bump values [{vals}, ...]")

# heavy tails in action: the largest of a few hundred draws dwarfs the rest
r = generate(configs["I"], 400, RngStream(8))
h = r.values  # every Model I piece is a bump, of potential X_n
print(f"\n400 Model I heights: median {np.median(h):.2f}, "
      f"mean {h.mean():.1f}, max {h.max():.3g}")
print(f"the single largest bump carries {h.max() / h.sum():.0%} of the total mass")

# gaps stretch the chain far beyond its bump count
r3 = generate(configs["III"], 400, RngStream(9))
print(f"\n400 Model III bumps occupy x in [0, {r3.total_length:.0f}] "
      f"(gaps sum to {r3.lengths[~r3.is_bump].sum():.0f})")

# realizations round-trip through CSV bit-exactly
buf = io.StringIO()
r4 = generate(configs["IV"], 12, RngStream(10))
r4.to_csv(buf)
buf.seek(0)
back = realization_from_csv(configs["IV"], buf)
same = np.array_equal(r4.values, back.values) and np.array_equal(r4.lengths, back.lengths)
print(f"\nModel IV CSV round trip bit-exact: {same}")
print(f"signs of the first 12 bumps: {['-' if v < 0 else '+' for v in r4.values[r4.is_bump]]}")
