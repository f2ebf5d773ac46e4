"""Deterministic reverse-time (DDIM-style) sampling from an early start time.

A run begins at start time M on a uniform (K+1)-point grid down to 0 and
repeatedly applies

    x_next = alpha_next x0_hat + (sigma_next / sigma_cur) (x_cur - alpha_cur x0_hat)

with x0_hat from a denoiser (the last step, to t = 0, returns x0_hat).  A
denoiser has predict_x0(xt, y, t), which returns a new writable array its
caller owns, shape, the (n_frames, frame_dim) of one video, and schedule,
which must be the sampler's.

The exact and leaky denoisers are affine, so each of their steps is one
cached map x_next = M x_cur + c y^T + b (world._affine_map with the step's
end time).  sample_batch runs their chains in an (N, d n) state whose chain
index is innermost: a step is one (N, N) @ (N, d n) matmul into the other
of two buffers plus the c y^T + b term, added in place.  Any other
denoiser runs ddim_step, which writes the update into predict_x0's fresh
result by three in-place operations, r (x_cur + ((alpha_next - r
alpha_cur) / r) x0_hat) with r = sigma_next / sigma_cur > 0.

The initial state is drawn from the config's init, a Gaussian fitted to
the time-M marginal, or else from standard_init, the conventional prior.
Initial draws are formed by affine-mapping one shared standard-normal
tensor, so runs that differ only in the init distribution are paired
sample-by-sample under a shared seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic_init import InitDistribution, standard_init
from .schedule import NoiseSchedule, alpha_sigma
from .timenoise import corrupt
from .world import ExactDenoiser, _affine_map

STANDARD = "standard"
ANALYTIC = "analytic"


class SamplerDiverged(RuntimeError):
    """Raised when a reverse chain leaves the finite range."""

    def __init__(self, step: int, t: float):
        super().__init__(f"non-finite sampler state at step {step} (t={t:g})")
        self.step = step
        self.t = t


@dataclass(frozen=True, eq=False)
class SamplerConfig:
    """Reverse-run settings: start time M, step count K, init, condition mode.

    init=None selects standard_init, the conventional start; an
    InitDistribution selects the fitted Gaussian (its M must match
    start_time).  inference_beta=None passes the conditioning frame through
    clean; a float adds that fixed noise level once per chain.
    """

    start_time: float = 1.0
    steps: int = 50
    init: InitDistribution | None = None
    inference_beta: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.start_time <= 1.0:
            raise ValueError("start_time must lie in (0, 1]")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if self.init is not None and self.init.M != self.start_time:
            raise ValueError("init distribution was fitted at a different start time")
        if self.inference_beta is not None and self.inference_beta < 0.0:
            raise ValueError("inference_beta must be nonnegative")


def time_grid(start_time: float, steps: int):
    """Uniform grid from M down to exactly 0, steps+1 points."""
    return np.linspace(start_time, 0.0, steps + 1)


def draw_initial(config: SamplerConfig, schedule: NoiseSchedule, shape, rng):
    """Draw z sqrt(sigma_p2) + mu_p, z standard normal, from config.init or
    else standard_init."""
    z = rng.standard_normal(shape)
    flat_dim = int(np.prod(shape[-2:]))
    init = config.init or standard_init(schedule, config.start_time, flat_dim)
    if init.mu_p.size != flat_dim:
        raise ValueError("init distribution dimension does not match video shape")
    z *= np.sqrt(init.sigma_p2)
    z += init.mu_p.reshape(shape[-2:])
    return z


def ddim_step(denoiser, xt, y, t_from, t_to, schedule: NoiseSchedule):
    """One deterministic update from t_from down to t_to.

    The update overwrites predict_x0's fresh result and returns it, so the
    caller owns what it gets back; xt is never written.
    """
    if not 0.0 <= t_to <= t_from <= 1.0:
        raise ValueError("need 0 <= t_to <= t_from <= 1")
    x0_hat = denoiser.predict_x0(xt, y, t_from)
    if t_to == 0.0:
        return x0_hat
    a_from, s_from = alpha_sigma(schedule, t_from)
    a_to, s_to = alpha_sigma(schedule, t_to)
    # a_to x0_hat + r (xt - a_from x0_hat), with r > 0 as t_to > 0
    r = s_to / s_from
    x0_hat *= (a_to - r * a_from) / r
    x0_hat += xt
    x0_hat *= r
    return x0_hat


def check_schedule(denoiser, schedule: NoiseSchedule) -> None:
    """Reject a denoiser built for another schedule than the caller's."""
    if denoiser.schedule != schedule:
        raise ValueError(
            f"denoiser schedule {denoiser.schedule} differs from the run's "
            f"schedule {schedule}"
        )


def sample_batch(denoiser, y0, config: SamplerConfig, schedule, n: int, rng):
    """Run n reverse chains; returns generated videos of shape (n, N, d).

    y0 is one frame (d,) shared by all chains or one per chain, (n, d).
    """
    check_schedule(denoiser, schedule)
    y0 = np.asarray(y0, dtype=np.float64)
    if y0.ndim == 2 and y0.shape[0] != n:
        raise ValueError("per-chain conditions must match the chain count")
    d = denoiser.shape[1]
    if y0.shape not in ((d,), (n, d)):
        raise ValueError(f"y0 must have shape ({d},) or ({n}, {d}), got {y0.shape}")
    x = draw_initial(config, schedule, (n, *denoiser.shape), rng)
    y = y0
    if config.inference_beta:
        y = corrupt(np.broadcast_to(y0, (n, d)), config.inference_beta, rng)
    grid = time_grid(config.start_time, config.steps)
    if not isinstance(denoiser, ExactDenoiser):
        for step, (t_from, t_to) in enumerate(zip(grid[:-1], grid[1:])):
            x = ddim_step(denoiser, x, y, float(t_from), float(t_to), schedule)
            if not np.all(np.isfinite(x)):
                raise SamplerDiverged(step, float(t_to))
        return x
    # column k n + j of the (N, d n) state is coordinate k of chain j; the
    # draw is released when x is rebound
    n_frames = denoiser.shape[0]
    x = np.ascontiguousarray(x.transpose(1, 2, 0)).reshape(n_frames, d * n)
    y = y if denoiser.conditional else denoiser.world.m0
    key = (denoiser.prior, schedule, denoiser.lam_max, denoiser.p)
    out, finite = np.empty_like(x), np.empty(x.shape, dtype=bool)
    # a per-chain condition, held as (d, n), adds c y^T + b through one
    # reused buffer
    term = None
    if y.ndim == 2:
        y, term = np.ascontiguousarray(y.T), np.empty((n_frames, d, n))
    for step, (t_from, t_to) in enumerate(zip(grid[:-1], grid[1:])):
        m, c, b = _affine_map(*key, float(t_from), float(t_to))
        np.matmul(m, x, out=out)
        cols = out.reshape(n_frames, d, n)
        if term is None:
            cols += (c * y + b)[:, :, None]
        else:
            np.multiply(c[:, :, None], y, out=term)
            term += b[:, :, None]
            cols += term
        if not np.isfinite(out, out=finite).all():
            raise SamplerDiverged(step, float(t_to))
        x, out = out, x
    del out, finite, term
    return x.reshape(n_frames, d, n).transpose(2, 0, 1).copy()
