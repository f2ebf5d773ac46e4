"""Deterministic reverse-time (DDIM-style) sampling from an early start time.

A run begins at start time M on a uniform (K+1)-point grid down to 0 and
repeatedly applies

    x_next = alpha_next x0_hat + (sigma_next / sigma_cur) (x_cur - alpha_cur x0_hat)

with x0_hat from a denoiser (the last step, to t = 0, returns x0_hat).  A
denoiser has predict_x0(xt, y, t), which returns a new writable array its
caller owns, shape, the (n_frames, frame_dim) of one video, and schedule,
which must be the sampler's.

The exact and leaky denoisers are affine, so each of their steps is one
cached map x_next = M x_cur + c y^T + b, their step_map(t_cur, t_next).
sample_batch reads the K maps once and runs the chains in blocks of at
most BLOCK_BYTES of state each through all K steps, so a block stays in
cache.  A block is copied from its rows of the draw into an (N, d B)
state whose chain index is innermost; a step is one (N, N) @ (N, d B)
matmul into the other of two reused block buffers plus c y^T + b, formed
in one reused buffer with a column per distinct condition and added in
place.  A chain's column sees the same operations whatever the block
size, so its bytes do not depend on the chain count.  Finiteness is
checked once per block, after its last step: a non-finite entry stays
non-finite through every later step, since the matmul mixes it into
every entry of its column and an add keeps it.  A finite end state is
written back over the block's rows, and the draw array is the output.  A
block whose end state is not finite is replayed from its rows, still the
draw, with a check after every step; once all blocks have run,
SamplerDiverged is raised at the earliest first non-finite step over the
blocks.  Any other denoiser runs ddim_step, which writes the update into
predict_x0's fresh result by three in-place operations, r (x_cur +
((alpha_next - r alpha_cur) / r) x0_hat) with r = sigma_next / sigma_cur
> 0, and checks the whole batch after each step.

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
from .world import ExactDenoiser

STANDARD = "standard"
ANALYTIC = "analytic"

# Bytes of one block's (N, d B) state in the exact family's blocked run:
# 1024 chains of an 8 x 4 video.  A block's two states and its c y^T + b
# term stay in a core's cache across all K steps.
BLOCK_BYTES = 256 * 1024


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
        beta = self.inference_beta
        if beta is not None and not 0.0 <= beta < np.inf:
            raise ValueError(f"inference_beta must be finite and >= 0, got {beta!r}")


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
    if not np.isfinite(y0).all():
        raise ValueError("y0 must be finite")
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
    # one (t_to, M, c, b) per step, c and b as (N, d, 1) columns
    maps = []
    for t_from, t_to in zip(grid[:-1], grid[1:]):
        m, c, b = denoiser.step_map(t_from, t_to)
        maps.append((float(t_to), m, c[:, :, None], b[:, :, None]))
    # one condition row shared by all chains, or one row per chain
    y = np.reshape(y if denoiser.conditional else denoiser.world.m0, (-1, d))
    n_frames = denoiser.shape[0]
    width = min(n, max(1, BLOCK_BYTES // (n_frames * d * 8)))
    bufs = np.empty((2, n_frames * d * width))
    term = np.empty(n_frames * d * min(len(y), width))
    diverged = []
    for j in range(0, n, width):
        rows = x[j:j + width]
        cond = y[j:j + width].T if len(y) > 1 else y.T
        with np.errstate(all="ignore"):
            state = _run_block(maps, rows, cond, bufs, term, checked=False)
        if not np.isfinite(state).all():
            # the checked replay warns on overflow as a per-step run does
            try:
                state = _run_block(maps, rows, cond, bufs, term, checked=True)
            except SamplerDiverged as err:
                diverged.append(err)
                continue
        rows[...] = state.reshape(n_frames, d, -1).transpose(2, 0, 1)
    if diverged:
        raise min(diverged, key=lambda err: err.step)
    return x


def _run_block(maps, rows, y, bufs, term, checked):
    """Run the chains rows, (B, N, d), through every step of maps in two
    (N, d B) states, chain index innermost, held in bufs, and return the
    end state.  y is the (d, 1 or B) condition; term holds c y^T + b.
    With checked, a step whose state is not finite raises SamplerDiverged
    there."""
    n_chains, n_frames, d = rows.shape
    size = n_frames * d * n_chains
    cur, nxt = (buf[:size].reshape(n_frames, d * n_chains) for buf in bufs)
    np.copyto(cur.reshape(n_frames, d, n_chains), rows.transpose(1, 2, 0))
    term = term[:n_frames * d * y.shape[1]].reshape(n_frames, d, y.shape[1])
    for step, (t_to, m, c, b) in enumerate(maps):
        np.matmul(m, cur, out=nxt)
        np.multiply(c, y, out=term)
        term += b
        cols = nxt.reshape(n_frames, d, n_chains)
        cols += term
        if checked and not np.isfinite(nxt).all():
            raise SamplerDiverged(step, t_to)
        cur, nxt = nxt, cur
    return cur
