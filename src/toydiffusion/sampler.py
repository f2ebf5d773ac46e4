"""Deterministic reverse-time (DDIM-style) sampling from an early start time.

A run begins at start time M on a uniform (K+1)-point grid down to 0 and
takes the steps x_next = k x0_hat + r x_cur of schedule.ddim_coefficients,
with x0_hat from a denoiser.  A denoiser has predict_x0(xt, y, t), which
returns a new writable array its caller owns, shape, the (n_frames,
frame_dim) of one video, and schedule, which must be the sampler's.

The exact and leaky denoisers are affine, so each of their steps is one
cached (N, N + 2) matrix W = [M | c | beta], x_next = M x_cur + c y^T +
beta drift^T, their step_map(t_cur, t_next): the posterior mean's one
precision-form solve composed with the step, so a K-step run makes K
maps.  sample_batch reads them once and runs the chains in blocks of at
most BLOCK_BYTES of video state each through all K steps, so a block
stays in cache.  A block is an (N + 2, d B) state, chain index
innermost: the block's rows of the draw, then the chains' conditions (m0
without one) and the drift, written once into both of two reused
buffers, so a step is one matmul of W into the first N rows of the
other.  A chain's column sees the same operations whatever the block
size, so its bytes do not depend on the chain count.  Finiteness is
checked once per block, after its last step: the matmul mixes a
non-finite entry into every entry of its column, so it stays non-finite.
A finite end state is written back over the block's rows, and the draw
array is the output.  At the first block that ends non-finite, its chains
and all later ones, whose rows still hold the draw, are replayed as one
block with a check after every step; the blocks before it ended finite,
so SamplerDiverged is raised at the run's earliest divergent step.  Any
other denoiser runs ddim_step, r (x_cur + (k / r) x0_hat) by three
in-place operations on predict_x0's fresh result, or that result where
ddim_coefficients' r = 0, and checks the batch after each step.  Both
paths detect a non-finite state themselves, so numpy does not warn
during a run.

The initial state is drawn from the config's init, a Gaussian fitted to
the time-M marginal, or else from standard_init, the conventional prior;
named_init maps the names STANDARD and ANALYTIC to such starts.  Draws
affine-map one shared standard-normal tensor, so runs that differ only in
the init distribution are paired sample-by-sample under a shared seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic_init import InitDistribution, exact_moments, optimal_init, standard_init
from .codec import check_choice, check_integer, check_range, check_same
from .schedule import NoiseSchedule, check_start, ddim_coefficients
from .timenoise import corrupt
from .world import ExactDenoiser, _check_denoiser_inputs

STANDARD = "standard"
ANALYTIC = "analytic"

# Bytes of one block's N video rows of (N + 2, d B) state in the exact
# family's blocked run: 1024 chains of an 8 x 4 video.  A block's two
# states stay in a core's cache across all K steps.
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
        check_start(self.start_time, "start_time")
        check_range(check_integer(self.steps, "steps"), "steps", 1)
        if self.init is not None and self.init.M != self.start_time:
            raise ValueError(f"init distribution was fitted at M = {self.init.M}, "
                             f"not at start_time = {self.start_time}")
        if self.inference_beta is not None:
            check_range(self.inference_beta, "inference_beta", 0.0)


def time_grid(start_time: float, steps: int):
    """Uniform grid from M down to exactly 0, steps+1 points."""
    return np.linspace(start_time, 0.0, steps + 1)


def draw_initial(config: SamplerConfig, schedule: NoiseSchedule, shape, rng):
    """Draw z sqrt(sigma_p2) + mu_p, z standard normal, from config.init or
    else standard_init."""
    flat_dim = int(np.prod(shape[-2:]))
    init = config.init or standard_init(schedule, config.start_time, flat_dim)
    check_choice(init.mu_p.shape, "init mu_p's shape", ((flat_dim,),))
    z = rng.standard_normal(shape)
    z *= np.sqrt(init.sigma_p2)
    z += init.mu_p.reshape(shape[-2:])
    return z


def named_init(name: str, world, schedule: NoiseSchedule, M: float):
    """The start distribution at M that name selects: STANDARD is
    standard_init, ANALYTIC the optimal_init of the world's exact moments; an
    M where no step may start, by ddim_coefficients, is rejected first."""
    ddim_coefficients(schedule, check_start(M, "M"), 0.0)
    if check_choice(name, "init", (STANDARD, ANALYTIC)) == STANDARD:
        return standard_init(schedule, M, world.flat_dim)
    return optimal_init(exact_moments(world), schedule, M)


def ddim_step(denoiser, xt, y, t_from, t_to, schedule: NoiseSchedule):
    """One deterministic update from t_from down to t_to.

    The update overwrites predict_x0's fresh result and returns it, so the
    caller owns what it gets back; xt is never written.
    """
    k, r = ddim_coefficients(schedule, t_from, t_to)
    x0_hat = denoiser.predict_x0(xt, y, t_from)
    if r == 0.0:  # the step lands on the prediction, by ddim_coefficients
        return x0_hat
    x0_hat *= k / r  # k x0_hat + r xt
    x0_hat += xt
    x0_hat *= r
    return x0_hat


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def sample_batch(denoiser, y0, config: SamplerConfig, schedule, n: int, rng):
    """Run n reverse chains; returns generated videos of shape (n, N, d).

    y0 is one frame (d,) shared by all chains or one per chain, (n, d).
    Every input and every step's start is checked before the first draw.
    """
    if not hasattr(denoiser, "predict_x0"):
        raise ValueError(f"{type(denoiser).__name__} cannot drive a sampler")
    check_range(check_integer(n, "n"), "n", 1)
    check_same("schedule", denoiser.schedule, schedule)
    shape, d = (n, *denoiser.shape), denoiser.shape[1]
    stand_in = np.broadcast_to(0.0, shape)  # a batch of that shape, allocating nothing
    y = check_range(_check_denoiser_inputs(denoiser.shape, stand_in, y0)[1], "y0")
    grid = time_grid(config.start_time, config.steps).tolist()
    steps = list(zip(grid[:-1], grid[1:]))
    exact = isinstance(denoiser, ExactDenoiser)
    maps = [(t_to, denoiser.step_map(t_from, t_to) if exact
             else ddim_coefficients(schedule, t_from, t_to)) for t_from, t_to in steps]
    x = draw_initial(config, schedule, shape, rng)
    if config.inference_beta:
        y = corrupt(np.broadcast_to(y, (n, d)), config.inference_beta, rng)
    if not exact:
        for step, (t_from, t_to) in enumerate(steps):
            x = ddim_step(denoiser, x, y, t_from, t_to, schedule)
            if not np.all(np.isfinite(x)):
                raise SamplerDiverged(step, t_to)
        return x
    y = np.broadcast_to(y if denoiser.conditional else denoiser.world.m0, (n, d))
    n_frames, drift = denoiser.shape[0], denoiser.world.drift
    width = min(n, max(1, BLOCK_BYTES // (n_frames * d * 8)))
    bufs = np.empty((2, (n_frames + 2) * d * width))
    for j in range(0, n, width):
        state = _run_block(maps, x[j:j + width], y[j:j + width], drift, bufs)
        if not np.isfinite(state).all():  # rows j on still hold the draw
            _run_block(maps, x[j:], y[j:], drift,
                       np.empty((2, (n_frames + 2) * d * (n - j))), checked=True)
        x[j:j + width] = state.reshape(n_frames, d, -1).transpose(2, 0, 1)
    return x


def _run_block(maps, rows, y, drift, bufs, checked=False):
    """Run the chains rows, (B, N, d), with conditions y, (B, d), through
    every step of maps in the two (N + 2, d B) states bufs holds, chain
    index innermost and y^T and the drift in the last two rows, and return
    the end state's N video rows.  With checked, a step whose state is not
    finite raises SamplerDiverged there."""
    n_chains, n_frames, d = rows.shape
    size = (n_frames + 2) * d * n_chains
    states = bufs[:, :size].reshape(2, n_frames + 2, d, n_chains)
    np.copyto(states[0, :n_frames], rows.transpose(1, 2, 0))
    states[:, n_frames] = y.T
    states[:, n_frames + 1] = drift[:, None]
    cur, nxt = states.reshape(2, n_frames + 2, d * n_chains)
    for step, (t_to, w) in enumerate(maps):
        np.matmul(w, cur, out=nxt[:n_frames])
        if checked and not np.isfinite(nxt[:n_frames]).all():
            raise SamplerDiverged(step, t_to)
        cur, nxt = nxt, cur
    return cur[:n_frames]
