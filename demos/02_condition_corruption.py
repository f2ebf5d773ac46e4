"""The time-dependent corruption applied to the conditioning frame.

The corruption level beta_s is drawn from a logit-normal over (0, beta_m)
whose location mu(t) = 2 t^a - 1 slides from "almost clean" at t = 0 to
"almost fully corrupted" at t = 1.  This script prints quantiles of the
level distribution over t, compares against the constant-level baseline,
and shows the corrupted condition drifting away from the clean frame.
"""

import numpy as np
from scipy.special import logit
from scipy.stats import kstest

from toydiffusion.timenoise import (
    TimeNoiseParams,
    constant_beta,
    corrupt,
    mu_of_t,
    sample_beta,
)

params = TimeNoiseParams(beta_m=2.0, a=5.0)
rng = np.random.default_rng(1)

print(f"beta_m = {params.beta_m}, a = {params.a} (larger a -> corruption "
      "arrives later)")
print("\n    t       mu(t)    q10     q50     q90    constant-baseline")
for t in (0.05, 0.25, 0.5, 0.75, 0.95):
    draws = sample_beta(params, t, rng, size=50_000)
    q10, q50, q90 = np.quantile(draws, [0.1, 0.5, 0.9])
    print(f"  {t:4.2f}   {mu_of_t(params, t):7.3f}  {q10:5.3f}   {q50:5.3f}"
          f"   {q90:5.3f}        {constant_beta(params, t):5.3f}")

# the draws really are logit-normal: transform back and test against N(mu, 1)
t = 0.6
draws = sample_beta(params, t, rng, size=100_000)
stat = kstest(logit(draws / params.beta_m), "norm",
              args=(mu_of_t(params, t), 1.0)).statistic
print(f"\nKS(logit(beta/beta_m) vs N(mu({t}), 1)) = {stat:.4f} at 1e5 draws")

# effect on an actual conditioning frame (additive variant):
# y = y0 + beta_s eps, with a fresh level per call
y0 = np.array([2.0, -1.0, 0.5, 0.0])
print("\nRMS distance of corrupted condition from clean frame (5000 draws):")
for t in (0.05, 0.5, 0.95):
    sq, levels = 0.0, []
    for _ in range(5000):
        level = sample_beta(params, t, rng)
        y = corrupt(y0, level, rng, params.variant)
        sq += np.mean((y - y0) ** 2)
        levels.append(level)
    print(f"  t = {t:4.2f}: rms {np.sqrt(sq / 5000):5.3f}, "
          f"mean level {np.mean(levels):5.3f} (ceiling {params.beta_m:.1f})")
print("\nearly in the reverse chain (t near 1) the model trains against a")
print("condition that is mostly noise, so it cannot learn to copy it there")
