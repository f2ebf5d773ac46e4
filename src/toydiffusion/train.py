"""Trainable noise-prediction denoiser and its training loops.

The backbone is a two-hidden-layer tanh MLP mapping (flattened noisy
video, conditioning frame, Fourier time features, optional motion scalar)
to a predicted noise video.  Gradients are computed by hand-rolled
reverse-mode backprop so the whole pipeline stays inside numpy and can be
checked against finite differences.

Four condition-corruption modes are supported during training:
  naive     - the conditioning frame is passed through clean
  timenoise - corruption level drawn from the time-dependent logit-normal
  cdm       - fixed corruption level at every time
  constant  - deterministic level beta_m (mu(t)+1)/2 tracking the
              logit-normal center without its randomness

train() builds its batches one block of BLOCK_STEPS steps at a time.  The
draws of each step are made in the same order as before, step after step
(see make_training_batch); the arithmetic on them (videos, conditions,
times, corruption levels, noisy videos, model input rows) runs once per
block over all its rows.  Forward, backward and Adam then run per step on
that step's contiguous rows, at the batch shape, so a checkpoint has the
bytes of building each batch on its own.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .codec import ConfigError, from_payload, read_json, to_payload
from .schedule import NoiseSchedule, perturb_with_noise, sigma_to_t
from .timenoise import (
    ADDITIVE,
    TimeNoiseParams,
    beta_from_noise,
    constant_beta,
    corrupt_with_noise,
)
from .world import (
    GaussianWorld,
    expected_motion_score,
    first_frames_from_noise,
    videos_from_noise,
    x0_from_eps,
)

NAIVE = "naive"
TIMENOISE = "timenoise"
CDM_FIXED = "cdm"
CONSTANT_BETA = "constant"
MODES = (NAIVE, TIMENOISE, CDM_FIXED, CONSTANT_BETA)

UNIFORM_T = "uniform"
EDM_LOGNORMAL = "edm"

FIRST_FRAME = "first"
RANDOM_FRAME = "random"

TIME_HARMONICS = 4
F_TIME = 1 + 2 * TIME_HARMONICS

CHECKPOINT_VERSION = 1

#: Training steps whose batches train() builds in one pass; a larger block
#: saves little more per step and holds more rows in memory.
BLOCK_STEPS = 8


class TrainingDiverged(RuntimeError):
    """Raised when the training loss stops being finite."""

    def __init__(self, step: int, loss):
        super().__init__(f"non-finite training loss at step {step}: {loss}")
        self.step = step


@dataclass(frozen=True)
class TrainConfig:
    mode: str = NAIVE
    steps: int = 20000
    batch_size: int = 64
    lr: float = 1e-3
    seed: int = 0
    hidden: int = 64
    t_sampler: str = UNIFORM_T
    p_mean: float = -1.2
    p_std: float = 1.2
    t_floor: float = 1e-4
    timenoise: TimeNoiseParams | None = None
    cdm_beta: float | None = None
    motion_feature: bool = False
    s_w_choices: tuple | None = None
    cond_frame: str = FIRST_FRAME

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown training mode {self.mode!r}")
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not self.lr > 0.0:
            raise ValueError("learning rate must be positive")
        if self.t_sampler not in (UNIFORM_T, EDM_LOGNORMAL):
            raise ValueError(f"unknown time sampler {self.t_sampler!r}")
        if not 0.0 < self.t_floor < 1.0:
            raise ValueError("t_floor must lie in (0, 1)")
        if self.mode in (TIMENOISE, CONSTANT_BETA) and self.timenoise is None:
            raise ValueError(f"mode {self.mode!r} requires timenoise parameters")
        if self.mode == CDM_FIXED and self.cdm_beta is None:
            raise ValueError("cdm mode requires cdm_beta")
        if self.cond_frame not in (FIRST_FRAME, RANDOM_FRAME):
            raise ValueError(f"unknown cond_frame {self.cond_frame!r}")
        if self.s_w_choices is not None:  # empty means no choice
            object.__setattr__(
                self, "s_w_choices", tuple(float(s) for s in self.s_w_choices) or None
            )
        if self.s_w_choices and not self.motion_feature:
            raise ValueError("s_w_choices needs motion_feature, the only reader of it")
        if self.s_w_choices and not all(s > 0.0 for s in self.s_w_choices):
            raise ValueError(f"s_w_choices must be positive, got {self.s_w_choices}")


# ---------------------------------------------------------------------------
# Backbone


_HARMONICS = np.arange(1, TIME_HARMONICS + 1, dtype=np.float64)


def time_features(t, out=None):
    """Fourier time encoding [t, sin(2 pi k t), cos(2 pi k t)], k = 1..4, one
    row per time; written into the (B, F_TIME) array out when given, every
    row of it when t is a single time."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if out is None:
        out = np.empty((t.shape[0], F_TIME))
    angles = 2.0 * np.pi * t[:, None] * _HARMONICS
    # assigned rather than written with out=, which would evaluate sin and
    # cos again for every row that a single time is broadcast to
    out[:, 0] = t
    out[:, 1 : 1 + TIME_HARMONICS] = np.sin(angles)
    out[:, 1 + TIME_HARMONICS :] = np.cos(angles)
    return out


class MLPDenoiser:
    """Two-hidden-layer tanh MLP predicting the injected noise.

    Input: flattened x_t, conditioning frame, time features, and (when
    enabled) one scalar motion-target feature.  Parameters live in a
    single flat vector; `unpack` returns per-layer views into it.
    """

    def __init__(self, n_frames, frame_dim, hidden=64, motion_feature=False):
        self.n_frames = int(n_frames)
        self.frame_dim = int(frame_dim)
        self.hidden = int(hidden)
        self.motion_feature = bool(motion_feature)
        self.out_dim = self.n_frames * self.frame_dim
        self.in_dim = self.out_dim + self.frame_dim + F_TIME + (
            1 if self.motion_feature else 0
        )
        h = self.hidden
        self.shapes = [
            (self.in_dim, h), (h,),
            (h, h), (h,),
            (h, self.out_dim), (self.out_dim,),
        ]
        self._spans, start = [], 0
        for shape in self.shapes:
            stop = start + math.prod(shape)
            self._spans.append((start, stop, shape))
            start = stop
        self.n_params = start

    def unpack(self, params):
        params = np.asarray(params)
        return [params[start:stop].reshape(shape) for start, stop, shape in self._spans]

    def init_params(self, rng: np.random.Generator):
        """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) per layer."""
        chunks = []
        for w_shape, b_shape in zip(self.shapes[0::2], self.shapes[1::2]):
            bound = 1.0 / np.sqrt(w_shape[0])
            chunks.append(rng.uniform(-bound, bound, int(np.prod(w_shape))))
            chunks.append(rng.uniform(-bound, bound, int(np.prod(b_shape))))
        return np.concatenate(chunks)

    def build_inputs(self, xt, y, t, motion=None):
        """Input rows [flattened xt, y, time features, motion], written
        block by block into one (B, in_dim) array, B = prod(xt.shape[:-2]);
        y, t and motion are one per row or one for all."""
        xt = np.asarray(xt, dtype=np.float64)
        b = math.prod(xt.shape[:-2])
        y = np.asarray(y, dtype=np.float64)
        if self.motion_feature and motion is None:
            raise ValueError("this model expects a motion-target feature")
        width = (
            math.prod(xt.shape[-2:]) + (y.shape[-1] if y.ndim else 0) + F_TIME
            + (1 if self.motion_feature else 0)
        )
        if width != self.in_dim:
            raise ValueError(
                f"input width {width} does not match model width {self.in_dim}"
            )
        x = np.empty((b, self.in_dim))
        o, c = self.out_dim, self.out_dim + self.frame_dim
        x[:, :o] = xt.reshape(b, -1)
        x[:, o:c] = y
        time_features(t, x[:, c : c + F_TIME])
        if self.motion_feature:
            x[:, -1] = motion
        return x

    def forward(self, params, xt, y, t, motion=None):
        """Predicted noise, shaped like xt."""
        x = self.build_inputs(xt, y, t, motion)
        out = self._forward(_Workspace(self, params, x.shape[0]), x)
        return out.reshape(np.shape(xt))

    def _forward(self, work, x):
        """Output for inputs x (B, in_dim); writes h1, h2 and out into work."""
        w1, b1, w2, b2, w3, b3 = work.layers
        np.matmul(x, w1, out=work.h1)
        work.h1 += b1
        np.tanh(work.h1, out=work.h1)
        np.matmul(work.h1, w2, out=work.h2)
        work.h2 += b2
        np.tanh(work.h2, out=work.h2)
        np.matmul(work.h2, w3, out=work.out)
        work.out += b3
        return work.out

    def _backward(self, work, x, dout):
        """Reverse-mode pass after _forward(work, x); dout is dLoss/d(output),
        shape (B, out_dim).  Writes the six gradient blocks into work.grad
        and returns it.  Once a layer's weight gradient is formed, its tanh
        activations h are overwritten by the derivative 1 - h * h.
        """
        _, _, w2, _, w3, _ = work.layers
        dw1, db1, dw2, db2, dw3, db3 = work.grads
        h1, h2, dz1, dz2 = work.h1, work.h2, work.dz1, work.dz2
        np.matmul(h2.T, dout, out=dw3)
        dout.sum(axis=0, out=db3)
        np.multiply(h2, h2, out=h2)
        np.subtract(1.0, h2, out=h2)
        np.matmul(dout, w3.T, out=dz2)
        dz2 *= h2
        np.matmul(h1.T, dz2, out=dw2)
        dz2.sum(axis=0, out=db2)
        np.multiply(h1, h1, out=h1)
        np.subtract(1.0, h1, out=h1)
        np.matmul(dz2, w2.T, out=dz1)
        dz1 *= h1
        np.matmul(x.T, dz1, out=dw1)
        dz1.sum(axis=0, out=db1)
        return work.grad


class _Workspace:
    """Views of one parameter vector plus every array a forward and backward
    pass over b items writes.

    train() builds one before its loop and updates the parameters in place,
    so the views stay valid and a step allocates no activation or gradient
    array; every other caller builds one per call, so the arrays it gets
    back are its own.  A forward-only caller never writes the backward
    buffers, so they cost it the allocation calls but no page touches.
    """

    def __init__(self, model, params, b):
        h = model.hidden
        self.layers = model.unpack(params)
        self.h1, self.h2, self.dz1, self.dz2 = (np.empty((b, h)) for _ in range(4))
        self.out = np.empty((b, model.out_dim))
        self.grad = np.empty(model.n_params)
        self.grads = model.unpack(self.grad)


class TrainedDenoiser:
    """Checkpoint wrapper with the common predict_x0/predict_eps interface.

    motion_value supplies the scalar motion-target feature for
    motion-conditioned models; ignored otherwise.
    """

    def __init__(self, model: MLPDenoiser, params, schedule: NoiseSchedule,
                 motion_value=None):
        self.model = model
        self.params = np.asarray(params, dtype=np.float64)
        self.schedule = schedule
        self.motion_value = motion_value
        self.shape = (model.n_frames, model.frame_dim)

    def predict_eps(self, xt, y, t):
        return self.model.forward(self.params, xt, y, t, self.motion_value)

    def predict_x0(self, xt, y, t):
        return x0_from_eps(self.predict_eps(xt, y, t), xt, self.schedule, t)


# ---------------------------------------------------------------------------
# Batch construction


@dataclass
class Batch:
    """One training batch, or those of consecutive steps stacked row-wise:
    noisy videos, conditions, times, noise targets."""

    xt: np.ndarray
    y: np.ndarray
    t: np.ndarray
    target: np.ndarray
    motion: np.ndarray | None = None


def _time_draws(config: TrainConfig, n, rng):
    """One step's time draws: uniform times on (t_floor, 1), or EDM log
    noise levels."""
    if config.t_sampler == UNIFORM_T:
        return rng.uniform(config.t_floor, 1.0, size=n)
    return rng.normal(config.p_mean, config.p_std, size=n)


def _times_from_draws(schedule, config: TrainConfig, draws):
    """Training times from _time_draws: uniform times as drawn, log noise
    levels mapped through the schedule inverse and clamped to [t_floor, 1]."""
    if config.t_sampler == UNIFORM_T:
        return draws
    return np.clip(sigma_to_t(schedule, np.exp(draws)), config.t_floor, 1.0)


def sample_training_times(schedule, config: TrainConfig, n, rng):
    """Draw training times; uniform on (t_floor, 1) or EDM log-normal noise levels
    mapped through the schedule inverse and clamped to [t_floor, 1]."""
    return _times_from_draws(schedule, config, _time_draws(config, n, rng))


@functools.lru_cache(maxsize=64)
def _motion_scores(world, s_w_choices):
    """Read-only expected motion score of the world at each innovation
    scale in s_w_choices, or at its own one when that is None.  Keyed by
    the world's identity, which fixes its read-only arrays, so a training
    run computes the scores once."""
    worlds = [replace(world, s_w=s) for s in s_w_choices] if s_w_choices else [world]
    scores = np.array([expected_motion_score(w) for w in worlds])
    scores.flags.writeable = False
    return scores


def _training_rows(world, schedule, config: TrainConfig, rng, steps):
    """The batches of up to `steps` consecutive training steps, stacked as
    one Batch of batch_size rows per step.

    Each step makes its draws from rng in the order of make_training_batch.
    The arithmetic on them (videos, conditions, times, corruption levels,
    noisy videos) then runs once over all rows, the same elementwise
    operations on longer arrays, so each step's rows equal its own batch.

    A step whose corruption levels are all zero draws no condition noise.
    The level curves' levels are known only after the draws, so each step
    first draws its condition noise; if a step's levels turn out all zero,
    rng is reset and the draws are made again up to that step, without its
    condition noise, and the Batch ends there.
    """
    b, n, d = config.batch_size, world.n_frames, world.frame_dim
    choices = np.asarray(config.s_w_choices or (), dtype=np.float64)
    fixed_zero = config.mode == NAIVE or (
        config.mode == CDM_FIXED and config.cdm_beta == 0.0
    )
    noisy = 0 if fixed_zero else steps  # steps 0..noisy-1 draw condition noise
    while True:
        start = rng.bit_generator.state
        pick = np.empty(steps * b, dtype=np.int64)
        z_first = np.empty((steps, b, d))
        z_inc = np.empty((steps, b, n - 1, d))
        frame = np.empty(steps * b, dtype=np.int64)
        t_draws = np.empty(steps * b)
        z_level = np.empty((steps, b))
        z_cond = np.empty((steps, b, d))
        eps = np.empty((steps, b, n, d))
        for k in range(steps):
            rows = slice(k * b, (k + 1) * b)
            if choices.size:  # set only with motion_feature
                pick[rows] = rng.integers(0, choices.size, size=b)
            rng.standard_normal(out=z_first[k])
            rng.standard_normal(out=z_inc[k])
            if config.cond_frame == RANDOM_FRAME:
                frame[rows] = rng.integers(0, n, size=b)
            t_draws[rows] = _time_draws(config, b, rng)
            if config.mode == TIMENOISE:
                rng.standard_normal(out=z_level[k])
            if k < noisy:
                rng.standard_normal(out=z_cond[k])
            rng.standard_normal(out=eps[k])
        t = _times_from_draws(schedule, config, t_draws)
        if config.mode == NAIVE:
            break
        # cdm's fixed level is additive; the level curves take their
        # variant from the timenoise parameters
        if config.mode == CDM_FIXED:
            levels, variant = np.full(t.shape, config.cdm_beta), ADDITIVE
        elif config.mode == CONSTANT_BETA:
            levels, variant = constant_beta(config.timenoise, t), config.timenoise.variant
        else:
            levels = beta_from_noise(config.timenoise, t, z_level.reshape(-1))
            variant = config.timenoise.variant
        zero = (levels.reshape(steps, b)[:noisy] == 0.0).all(axis=1)
        if not zero.any():
            break
        steps = int(zero.argmax()) + 1
        noisy = steps - 1
        rng.bit_generator.state = start

    rows = steps * b
    first = first_frames_from_noise(world, z_first.reshape(rows, d))
    z_inc = z_inc.reshape(rows, n - 1, d)
    if choices.size:
        x0 = videos_from_noise(world, first, z_inc, choices[pick])
        motion = _motion_scores(world, config.s_w_choices)[pick]
    else:
        x0 = videos_from_noise(world, first, z_inc)
        motion = np.full(rows, _motion_scores(world, None)[0]) \
            if config.motion_feature else None
    if config.cond_frame == RANDOM_FRAME:
        y0 = x0[np.arange(rows), frame, :]
    else:
        y0 = x0[:, 0, :]
    y = y0
    if config.mode != NAIVE:
        cut = noisy * b
        y = corrupt_with_noise(y0[:cut], levels[:cut, None],
                               z_cond.reshape(rows, d)[:cut], variant)
        if cut < rows:  # the last step drew no condition noise: a clean copy
            y = np.concatenate([y, y0[cut:]])
    eps = eps.reshape(x0.shape)
    return Batch(xt=perturb_with_noise(schedule, x0, t, eps), y=y, t=t,
                 target=eps, motion=motion)


def make_training_batch(world, schedule, config, rng):
    """Draw one batch: the one-step case of the builder that train() calls
    once per block of steps, whose per-step draw order this is and whose
    arithmetic runs per block.  Draw order is fixed (s_w picks, first
    frames, increments, frame choice, times, condition level and noise,
    forward noise) so that modes which skip a stage leave the remaining
    stream identical; a step whose corruption levels are all zero draws no
    condition noise."""
    return _training_rows(world, schedule, config, rng, 1)


# ---------------------------------------------------------------------------
# Loss and optimization


def batch_loss(model, params, batch):
    """Mean squared noise-prediction error over the batch."""
    diff = model.forward(params, batch.xt, batch.y, batch.t, batch.motion)
    diff -= batch.target
    return float(np.mean(diff * diff))


def batch_loss_and_gradient(model, params, batch):
    """Loss and its gradient with respect to params, a fresh array."""
    x = model.build_inputs(batch.xt, batch.y, batch.t, batch.motion)
    work = _Workspace(model, params, x.shape[0])
    return _loss_and_gradient(model, work, x, batch.target.reshape(x.shape[0], -1))


def _loss_and_gradient(model, work, x, target):
    """Loss and gradient for input rows x and noise targets (B, out_dim);
    work is a _Workspace over the parameters, whose gradient it returns.
    train() calls it on each step's rows of a block with the one
    workspace it reuses."""
    diff = model._forward(work, x)
    diff -= target
    loss = float(np.mean(diff * diff))
    diff *= 2.0 / diff.size
    return loss, model._backward(work, x, diff)


@dataclass(frozen=True, eq=False)
class _CheckpointConfig:
    train: TrainConfig
    world: GaussianWorld
    schedule: NoiseSchedule


@dataclass(frozen=True, eq=False)
class _Checkpoint:
    """A checkpoint file; its keys are written in field order."""

    format_version: int
    config: _CheckpointConfig
    seed: int
    layer_shapes: list
    parameters: np.ndarray
    final_loss: float


def train(world, schedule, config: TrainConfig, return_history=False):
    """Run the full training loop; returns a JSON-ready checkpoint dict.

    Adam with bias correction, lr from config, betas (0.9, 0.999).  The
    root generator spawns three independent streams (parameter init,
    held-out batch, training data) so runs are reproducible bit-for-bit.
    """
    model = MLPDenoiser(
        world.n_frames, world.frame_dim, hidden=config.hidden,
        motion_feature=config.motion_feature,
    )
    root = np.random.default_rng(config.seed)
    init_rng, heldout_rng, data_rng = root.spawn(3)
    params = model.init_params(init_rng)
    heldout = make_training_batch(world, schedule, config, heldout_rng)
    initial_heldout = batch_loss(model, params, heldout)

    beta1, beta2, adam_eps = 0.9, 0.999, 1e-8
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    m_hat = np.empty_like(params)
    v_hat = np.empty_like(params)
    b = config.batch_size
    work = _Workspace(model, params, b)
    history = []
    step = 0
    while step < config.steps:
        block = _training_rows(
            world, schedule, config, data_rng, min(BLOCK_STEPS, config.steps - step)
        )
        x = model.build_inputs(block.xt, block.y, block.t, block.motion)
        targets = block.target.reshape(x.shape[0], -1)
        for row in range(0, x.shape[0], b):
            loss, grad = _loss_and_gradient(model, work, x[row : row + b],
                                            targets[row : row + b])
            if not math.isfinite(loss):
                raise TrainingDiverged(step, loss)
            # m = beta1 m + (1 - beta1) g, v = beta2 v + ((1 - beta2) g) g and
            # params -= (lr m_hat) / (sqrt(v_hat) + eps), evaluated in this
            # order in place; m_hat and v_hat double as scratch for the terms.
            m *= beta1
            m += np.multiply(grad, 1.0 - beta1, out=m_hat)
            np.multiply(grad, 1.0 - beta2, out=v_hat)
            v_hat *= grad
            v *= beta2
            v += v_hat
            np.divide(m, 1.0 - beta1 ** (step + 1), out=m_hat)
            np.divide(v, 1.0 - beta2 ** (step + 1), out=v_hat)
            np.sqrt(v_hat, out=v_hat)
            v_hat += adam_eps
            m_hat *= config.lr
            m_hat /= v_hat
            params -= m_hat
            if return_history and (step % 500 == 0 or step == config.steps - 1):
                history.append((step, loss))
            step += 1
        del block, x, targets  # freed before the next block is drawn

    final_heldout = batch_loss(model, params, heldout)
    checkpoint = to_payload(_Checkpoint(
        CHECKPOINT_VERSION, _CheckpointConfig(config, world, schedule), config.seed,
        [list(s) for s in model.shapes], params, final_heldout,
    ))
    if return_history:
        return checkpoint, {
            "initial_heldout": initial_heldout,
            "final_heldout": final_heldout,
            "loss_history": history,
        }
    return checkpoint


def save_checkpoint(path, checkpoint: dict) -> None:
    with open(path, "w") as fh:
        json.dump(checkpoint, fh)
        fh.write("\n")


def load_checkpoint(source):
    """Rebuild (model, params, world, schedule, train config) from a
    checkpoint dict or path.  A malformed checkpoint raises ConfigError
    naming the path and the key."""
    where = "checkpoint"
    if not isinstance(source, dict):
        where = f"checkpoint {source}"
        source = read_json(source, "checkpoint")
    version = source.get("format_version") if isinstance(source, dict) else None
    if version != CHECKPOINT_VERSION:
        raise ConfigError(f"{where} has unsupported format_version {version!r}")
    try:
        ck = from_payload(_Checkpoint, source)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    world, cfg = ck.config.world, ck.config.train
    model = MLPDenoiser(world.n_frames, world.frame_dim, cfg.hidden, cfg.motion_feature)
    if ck.layer_shapes != [list(s) for s in model.shapes]:
        raise ConfigError(f"{where} layer shapes do not match its config")
    params = np.asarray(ck.parameters, dtype=np.float64)
    if params.size != model.n_params:
        raise ConfigError(f"{where} parameter count does not match its shapes")
    return model, params, world, ck.config.schedule, cfg
