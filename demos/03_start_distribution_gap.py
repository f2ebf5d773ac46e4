"""Why starting the reverse chain early needs a fitted initial Gaussian.

Reverse sampling starts from N(0, I) at t = 1.  Starting earlier, at
t = M < 1, saves steps but the true time-M marginal is no longer standard
normal, and the mismatch (a KL divergence) grows fast as M decreases.
An isotropic Gaussian with the data-matched mean and average variance
closes most of that gap, and a brute-force grid confirms it is the best
isotropic choice.
"""

import numpy as np

import toydiffusion as td
from toydiffusion.analytic_init import (
    exact_moments,
    gaussian_kl,
    optimal_init,
    standard_init,
    verify_optimality,
)
from toydiffusion.world import marginal_moments_at

world = td.GaussianWorld()
schedule = td.NoiseSchedule.vp()
moments = exact_moments(world)

print("KL( true time-M marginal || chain init ), VP schedule\n")
print("    M      standard N(0,I)    fitted isotropic")
for m_start in (1.0, 0.96, 0.92, 0.88, 0.84, 0.8):
    # the marginal is an (N, d) mean with the N x N factor C of C (x) I_d
    q = marginal_moments_at(world, schedule, m_start)
    kl_std = gaussian_kl(q, standard_init(schedule, m_start, world.flat_dim))
    kl_fit = gaussian_kl(q, optimal_init(moments, schedule, m_start))
    print(f"  {m_start:4.2f}      {kl_std:12.6f}      {kl_fit:12.6f}")

# the fitted parameters in closed form: mu_p = alpha_M E[X0],
# sigma_p^2 = alpha_M^2 avg-var + sigma_M^2 (the mean is matched exactly,
# so no mean term enters the variance)
m_start = 0.9
init = optimal_init(moments, schedule, m_start)
print(f"\nfitted init at M = {m_start}: sigma_p^2 = {init.sigma_p2:.6f}, "
      f"mean norm {np.linalg.norm(init.mu_p):.4f}")

# brute force: perturb the variance (x0.5 .. x2) and shift the mean; every
# grid cell must have strictly larger KL than the candidate
report = verify_optimality(marginal_moments_at(world, schedule, m_start), init)
print(f"9x9 perturbation grid: passed = {report['passed']}, "
      f"worst margin {report['margin']:.3e}, "
      f"stationarity-formula gap {report['sigma_formula_gap']:.1e}")

# the same moments can come from data instead of the closed form
videos = td.sample_videos(world, 50_000, np.random.default_rng(3))
est = td.estimate_moments(videos.reshape(len(videos), -1))
est_init = optimal_init(est, schedule, m_start)
print(f"\nfrom 5e4 sampled videos instead: sigma_p^2 = {est_init.sigma_p2:.6f} "
      f"(closed form {init.sigma_p2:.6f})")
