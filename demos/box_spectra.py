"""Eigenvalues by phase counting, eigenfunction decay by reversed sweeps.

theta_lambda(L)/pi counts the eigenvalues of the Dirichlet box [0, L] below
lambda (Sturm oscillation), and it is strictly increasing in lambda, so
every eigenvalue is the target of a bracketed root search.  At an
eigenvalue, sweeping the flow backwards from the far end records ln r at
each piece boundary; a straight line fit gives the decay rate of the
eigenfunction.

Run:  python3 demos/box_spectra.py
"""
import io
import math

import numpy as np

from heavykp.potentials import Model, ModelConfig, generate, realization_from_csv
from heavykp.rng import RngStream, split_stream
from heavykp.spectrum import BoxProblem, count_below, decay_fit, find_eigenvalues

# sanity on the free box: eigenvalues are (m pi / L)^2 exactly
cfg_any = ModelConfig(model=Model.III, energy=1.0, alpha2=0.5)
rows = "index,kind,value,length\n0,gap,0.0,2.0\n"
free = realization_from_csv(cfg_any, io.StringIO(rows))
prob = BoxProblem(realization=free, theta0=0.0, L_box=2.0)
eigs = find_eigenvalues(prob, 1.0, 100.0)
print("free box, L = 2:")
for m, lam in enumerate(eigs, start=1):
    exact = (m * math.pi / 2.0) ** 2
    print(f"  m = {m}: lambda = {lam:.10f}   (m pi/L)^2 = {exact:.10f}")

# deep wells: the ground state sits far below zero and decays exponentially
cfg2 = ModelConfig(model=Model.II, energy=1.0, alpha1=0.5)
print("\nModel II ground states (box of 200 wells):")
parent = RngStream(71)
for i in range(4):
    r = generate(cfg2, 200, split_stream(parent, i))
    p = BoxProblem(realization=r, theta0=0.0, L_box=r.total_length)
    bottom = float(r.values.min()) - 1.0
    lam0 = find_eigenvalues(p, bottom, 0.0, max_count=1)[0]
    slope, r2 = decay_fit(p, lam0)
    print(f"  seed {i}: lambda_0 = {lam0:10.1f}, "
          f"ln r slope = {slope:8.1f} per unit (r^2 = {r2:.4f})")

# counting never misses: the count jumps by exactly one across an eigenvalue
lam = eigs[2]
d = 1e-8 * max(1.0, abs(lam))
print(f"\ncount_below straddling the free m = 3 eigenvalue: "
      f"{count_below(prob, lam - d)} -> {count_below(prob, lam + d)}")
