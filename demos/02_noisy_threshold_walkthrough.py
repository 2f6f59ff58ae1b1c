"""
Inside the noisy-threshold loop
===============================

The quantile estimator is one run of AboveThreshold: a noisy copy of the
target rank plays the threshold, each candidate asks "how many points sit
below me?" plus fresh noise, and the first crossing wins. With Gumbel noise
on both sides the run's outcome, a halt index or no halt, has a closed-form
law (gumbel_outcome_log_pmf), which we check here by simulation.
"""

import numpy as np

from uqe import NoiseKind, RandomSource, SvtConfig, gumbel_outcome_log_pmf
from uqe.sparse_vector import simulate_halt_indices

# six fixed counting-style queries climbing toward a threshold of 4.0
values = np.array([0.0, 1.0, 2.5, 3.2, 4.5, 6.0])
threshold = 4.0
eps = 1.0

# entry 0 is the chance of no halt, entry k that of a halt at query k:
# the labels the simulator returns
pmf = np.exp(gumbel_outcome_log_pmf(values, threshold, eps))

cfg = SvtConfig(eps1=eps, eps2=eps, noise=NoiseKind.GUMBEL, threshold=threshold)
sim = simulate_halt_indices(values, cfg, RandomSource(7), trials=200_000)
freq = np.bincount(sim, minlength=values.size + 1) / sim.size

print(f"{'halt at':>8} {'closed form':>12} {'simulated':>12}")
for k in range(values.size + 1):
    print(f"{k or 'none':>8} {pmf[k]:>12.4f} {freq[k]:>12.4f}")

# the same loop with Laplace or exponential noise has no closed form, but
# the monotonic-query privacy bound eps1 + eps2 applies to all three
for noise in (NoiseKind.LAPLACE, NoiseKind.EXPONENTIAL):
    cfg = SvtConfig(eps1=0.5, eps2=0.5, noise=noise, threshold=threshold)
    sim = simulate_halt_indices(values, cfg, RandomSource(8), trials=50_000)
    common = np.bincount(sim).argmax()
    print(f"\n{noise.value}: most common halt index over 50k runs = {common} "
          f"(noiseless crossing is at 5)")
