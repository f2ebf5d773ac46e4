"""Tour of the toy video world and the two noise schedules.

Samples random-walk videos, checks their motion statistics against the
closed form, conditions on a first frame, and prints how much signal
survives forward diffusion at a few times under VP and VE schedules.
"""

import numpy as np

import toydiffusion as td
from toydiffusion.schedule import alpha_sigma
from toydiffusion.world import conditional_moments, prior_moments

rng = np.random.default_rng(0)

world = td.GaussianWorld()  # 8 frames x 4 dims, drift 0.2, step noise 0.5
videos = td.sample_videos(world, 20_000, rng)
print(f"world: {world.n_frames} frames x {world.frame_dim} dims, "
      f"drift {world.drift}, s_w {world.s_w}")
print(f"sampled {videos.shape[0]} videos, shape {videos.shape[1:]}")

# motion score = summed mean absolute frame difference; the closed form is
# a folded-normal expectation per frame pair
ms = td.motion_scores(videos)
print(f"mean motion score  {ms.mean():.4f} +- {ms.std() / np.sqrt(len(ms)):.4f}")
print(f"closed form        {td.expected_motion_score(world):.4f}")

# frame covariance of the prior is s0^2 + min(i-1, j-1) s_w^2
_, prior_cov = prior_moments(world)
print("\nprior frame covariance (first 4x4 block):")
print(prior_cov[:4, :4])

# conditioning on frame 1 zeroes its row/column and leaves the walk part
y0 = np.array([2.0, -1.0, 0.5, 0.0])
cond_mean, cond_cov = conditional_moments(world, y0)
print("\nconditional frame covariance given frame 1 (first 4x4 block):")
print(cond_cov[:4, :4])
print("conditional frame means, coordinate 0:",
      np.round(cond_mean[:, 0], 3))

# how much clean signal survives at time t: x_t = alpha_t x_0 + sigma_t eps
print("\n      t      VP alpha    VP sigma    VE sigma")
vp, ve = td.NoiseSchedule.vp(), td.NoiseSchedule.ve()
for t in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
    a_vp, s_vp = alpha_sigma(vp, t)
    _, s_ve = alpha_sigma(ve, t)
    print(f"  {t:5.2f}   {a_vp:9.5f}   {s_vp:9.5f}   {s_ve:9.3f}")
print("\nVP destroys signal by shrinking alpha; VE keeps alpha = 1 and")
print("drowns the signal under sigma up to", ve.sigma_max)
