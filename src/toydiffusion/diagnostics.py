"""Motion metrics and the leakage/initialization diagnostic experiments.

The central probe is the one-step clean-video prediction: corrupt a known
video to time t, ask a denoiser for its clean-video estimate, and compare
its motion to the ground truth.  A denoiser that over-relies on the
conditioning frame shows a motion ratio that collapses at large t;
calibrated references (the exact posterior mean, or an oracle that
returns the drawn noise) pin down what the curve should look like without
leakage.

All experiment entry points take integer seeds and derive their
generators internally, so curves for two denoisers (or two init modes)
are paired draw-by-draw and reruns are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic_init import gaussian_kl
from .codec import check_same
from .sampler import SamplerConfig, named_init, sample_batch
from .schedule import check_start, perturb, x0_from_eps
from .train import TrainedDenoiser
from .world import (
    conditional_moments,
    expected_motion_score,
    first_frames,
    marginal_moments_at,
)


def motion_scores(videos):
    """Motion score per video: sum over adjacent frame pairs of the
    coordinate-mean absolute difference.  Accepts (N, d) or (B, N, d)."""
    videos = np.asarray(videos, dtype=np.float64)
    if videos.shape[-2] < 2:
        raise ValueError("motion score needs at least 2 frames")
    diffs = np.abs(np.diff(videos, axis=-2))
    return diffs.mean(axis=-1).sum(axis=-1)


# Per-experiment tags keep the seeded substreams of different diagnostics
# (and of CLI-level draws, which use tag 0) disjoint for the same root seed.
_LEAKAGE_TAG = 1
_SWEEP_TAG = 2
_ABLATION_TAG = 3


class OracleEps:
    """Stub denoiser that 'predicts' exactly the noise drawn during
    corruption — the null calibration for leakage curves (ratio 1)."""


def one_step_prediction(denoiser, x0, y0, schedule, t, rng):
    """Corrupt x0 to time t and return the denoiser's clean-video estimate;
    the oracle's is (x_t - sigma_t eps) / alpha_t from the drawn noise."""
    check_start(t, "one-step prediction time t")
    oracle = isinstance(denoiser, OracleEps)
    if not oracle:
        check_same("schedule", denoiser.schedule, schedule)
    xt, eps = perturb(schedule, x0, t, rng)
    if oracle:
        return x0_from_eps(eps, xt, schedule, t)
    return denoiser.predict_x0(xt, y0, t)


@dataclass
class LeakageCurve:
    t: np.ndarray
    ratio: np.ndarray

    def rows(self):
        return [
            {"t": float(t), "ratio": float(r)} for t, r in zip(self.t, self.ratio)
        ]


def leakage_curve(denoiser, eval_videos, schedule, t_grid, seed: int):
    """Mean motion ratio motion(prediction)/motion(GT) over the eval set.

    Corruption noise is seeded per grid point from (seed, index), so two
    denoisers evaluated with the same seed see identical corruptions.
    """
    eval_videos = np.asarray(eval_videos, dtype=np.float64)
    if eval_videos.ndim != 3 or eval_videos.shape[0] == 0:
        raise ValueError("eval_videos must be a nonempty (B, N, d) stack")
    y0 = eval_videos[:, 0, :]
    gt = motion_scores(eval_videos)
    ratios = []
    for j, t in enumerate(t_grid):
        rng = np.random.default_rng([seed, _LEAKAGE_TAG, j])
        pred = one_step_prediction(denoiser, eval_videos, y0, schedule, float(t), rng)
        ratios.append(float(np.mean(motion_scores(pred) / gt)))
    return LeakageCurve(
        t=np.asarray(t_grid, dtype=np.float64), ratio=np.asarray(ratios)
    )


def motion_sweep(denoiser, targets, world, schedule, config: SamplerConfig, n: int,
                 seed: int):
    """Generate per target and compare output motion to the expectation.

    A checkpoint trained with the motion feature gets each target as its
    scalar feature, and the target is itself the expectation.  Any other
    denoiser is compared with the world's closed-form mean motion score,
    and the target list only sets the number of repeats.
    """
    check_same("world", getattr(denoiser, "world", world), world)  # none if trained
    conditioned = (isinstance(denoiser, TrainedDenoiser)
                   and denoiser.model.motion_feature)
    gt_ms = expected_motion_score(world)
    rows = []
    for j, target in enumerate(targets):
        rng = np.random.default_rng([seed, _SWEEP_TAG, j])
        y0 = first_frames(world, n, rng)
        active = denoiser
        if conditioned:
            active = TrainedDenoiser(
                denoiser.model, denoiser.params, denoiser.schedule,
                motion_value=float(target),
            )
        out = sample_batch(active, y0, config, schedule, n, rng)
        out_ms = float(np.mean(motion_scores(out)))
        expected = float(target) if conditioned else gt_ms
        rows.append(
            {
                "input_ms": expected,
                "output_ms_mean": out_ms,
                "error": (out_ms - expected) / expected,
            }
        )
    return rows


def conditional_moment_errors(samples, world, y0):
    """Relative errors of sample moments against the exact conditional ones.

    Mean error is relative L2 over every entry of the mean; covariance error is
    the largest absolute deviation of the coordinate-averaged frame
    covariance, scaled by the largest exact entry.
    """
    samples = np.asarray(samples, dtype=np.float64)
    n = samples.shape[0]
    mean, frame_cov = conditional_moments(world, y0)
    emp = samples.mean(axis=0)
    mean_err = float(np.linalg.norm(emp - mean) / max(np.linalg.norm(mean), 1e-12))
    centered = samples - emp
    cov_est = np.einsum("bik,bjk->ij", centered, centered) / (
        n * world.frame_dim
    )
    scale = max(float(np.max(np.abs(frame_cov))), 1e-12)
    cov_err = float(np.max(np.abs(cov_est - frame_cov)) / scale)
    return mean_err, cov_err


def init_ablation(world, schedule, m_grid, init_modes, denoiser, n: int, seed: int,
                  steps: int = SamplerConfig.steps):
    """Start-time x init-mode table: KL to the true time-M marginal, mean
    output motion, and conditional-moment errors of the generated samples,
    conditioned on one frame y0 drawn from the seed.  Each row's chains
    start from named_init of its mode, the start whose KL it reports.

    The chain generator is re-created per start time, so init modes at the
    same M share their standard-normal draws (paired comparison).  Chains
    see y0 clean (no inference_beta): moment errors are against its law.
    """
    check_same("world", getattr(denoiser, "world", world), world)  # none if trained
    y0 = first_frames(world, 1, np.random.default_rng([seed, _ABLATION_TAG, 1, 0]))[0]
    rows = []
    for i, m_start in enumerate(m_grid):
        m_start = float(m_start)
        q = marginal_moments_at(world, schedule, m_start)
        for mode in init_modes:
            init_obj = named_init(mode, world, schedule, m_start)
            kl = gaussian_kl(q, init_obj)
            config = SamplerConfig(start_time=m_start, steps=steps, init=init_obj)
            rng = np.random.default_rng([seed, _ABLATION_TAG, 0, i])
            out = sample_batch(denoiser, y0, config, schedule, n, rng)
            mean_err, cov_err = conditional_moment_errors(out, world, y0)
            rows.append(
                {
                    "M": m_start,
                    "init": mode,
                    "kl": kl,
                    "mean_output_ms": float(np.mean(motion_scores(out))),
                    "mean_err": mean_err,
                    "cov_err": cov_err,
                }
            )
    return rows
