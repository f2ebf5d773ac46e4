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

Each of the eight stages of a training batch (s_w picks, first frames,
increments, condition frames, times, levels, condition noise, forward
noise) draws from its own generator, spawned once per run in train() and
once per call in make_training_batch.  So every mode on one seed trains
on the same videos, times and forward noise; only the levels and the
condition noise, which naive and cdm at level 0 never draw, differ.
train() builds its batches one block of BLOCK_STEPS steps at a time, each
stage drawing all the block's rows in one call.  A generator's draws
continue across calls, so a block's rows are its steps' batches built one
by one, and a checkpoint does not depend on BLOCK_STEPS.  Forward,
backward and Adam then run per step on that step's contiguous rows, at
the batch shape, and every block is written into one set of arrays that
a run allocates first.  The model checks its inputs by
world._check_denoiser_inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import (ConfigError, check_choice, check_integer, check_range, from_payload,
                    read_json, to_payload, write_json)
from .schedule import NoiseSchedule, perturb, sigma_to_t, x0_from_eps
from .timenoise import TimeNoiseParams, constant_beta, corrupt, sample_beta
from .world import (
    GaussianWorld,
    _check_denoiser_inputs,
    expected_motion_score,
    first_frames,
    videos_from_noise,
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
    timenoise: TimeNoiseParams | None = TimeNoiseParams()
    cdm_beta: float | None = 0.2
    motion_feature: bool = False
    s_w_choices: tuple | None = None
    cond_frame: str = FIRST_FRAME

    def __post_init__(self) -> None:
        check_choice(self.mode, "mode", MODES)
        for name, low in (("steps", 0), ("batch_size", 1), ("seed", 0), ("hidden", 1)):
            check_range(check_integer(getattr(self, name), name), name, low)
        check_range(self.lr, "lr", 0.0, low_open=True)
        check_range(self.p_mean, "p_mean")
        check_range(self.p_std, "p_std", 0.0)
        check_choice(self.t_sampler, "t_sampler", (UNIFORM_T, EDM_LOGNORMAL))
        check_range(self.t_floor, "t_floor", 0.0, 1.0, low_open=True, high_open=True)
        if self.mode in (TIMENOISE, CONSTANT_BETA) and self.timenoise is None:
            raise ValueError(f"mode {self.mode!r} requires timenoise parameters")
        if self.mode == CDM_FIXED and self.cdm_beta is None:
            raise ValueError("cdm mode requires cdm_beta")
        if self.cdm_beta is not None:
            check_range(self.cdm_beta, "cdm_beta", 0.0)
        check_choice(self.cond_frame, "cond_frame", (FIRST_FRAME, RANDOM_FRAME))
        if self.s_w_choices is not None:  # empty means no choice
            object.__setattr__(self, "s_w_choices", tuple(
                check_range(float(s), "s_w_choices entries", 0.0, low_open=True)
                for s in self.s_w_choices) or None)
        if self.s_w_choices and not self.motion_feature:
            raise ValueError("s_w_choices needs motion_feature, the only reader of it")


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

    def __init__(self, n_frames, frame_dim, hidden=TrainConfig.hidden,
                 motion_feature=False):
        self.n_frames = int(n_frames)
        self.frame_dim = int(frame_dim)
        self.hidden = int(hidden)
        self.motion_feature = bool(motion_feature)
        self.out_dim = self.n_frames * self.frame_dim
        self.in_dim = self.out_dim + self.frame_dim + F_TIME + int(self.motion_feature)
        h, o = self.hidden, self.out_dim
        self.shapes = [(self.in_dim, h), (h,), (h, h), (h,), (h, o), (o,)]
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

    def build_inputs(self, xt, y, t, motion=None, out=None):
        """Input rows [flattened xt, y, time features, motion], written
        block by block into one (B, in_dim) array, B = prod(xt.shape[:-2]):
        out when given, else a new one.  y, t and motion are one per video
        or one for all, checked by _check_denoiser_inputs before any row is
        written."""
        xt, y = _check_denoiser_inputs((self.n_frames, self.frame_dim), xt, y,
                                       time=t, motion=motion)
        if self.motion_feature and motion is None:
            raise ValueError("this model expects a motion-target feature")
        b = math.prod(xt.shape[:-2])
        x = np.empty((b, self.in_dim)) if out is None else out
        o, c = self.out_dim, self.out_dim + self.frame_dim
        x[:, :o] = xt.reshape(b, -1)
        x[:, o:c] = y.reshape(-1, self.frame_dim)
        time_features(np.ravel(t), x[:, c : c + F_TIME])
        if self.motion_feature:
            x[:, -1] = np.ravel(motion)
        return x

    def forward(self, params, xt, y, t, motion=None):
        """Predicted noise, shaped like xt."""
        x = self.build_inputs(xt, y, t, motion)
        out = self._forward(_Workspace(self, params, x.shape[0], backward=False), x)
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
    """Views of one parameter vector plus every array a forward pass over b
    items writes, and with backward those of the backward pass too.

    train() builds one before its loop and updates the parameters in place,
    so the views stay valid and a step allocates no activation or gradient
    array; every other caller builds one per call, so the arrays it gets
    back are its own.  A forward-only caller gets h1, h2 and out alone.
    """

    def __init__(self, model, params, b, backward=True):
        h = model.hidden
        self.layers = model.unpack(params)
        self.h1, self.h2 = np.empty((b, h)), np.empty((b, h))
        self.out = np.empty((b, model.out_dim))
        if backward:
            self.dz1, self.dz2 = np.empty((b, h)), np.empty((b, h))
            self.grad = np.empty(model.n_params)
            self.grads = model.unpack(self.grad)


class TrainedDenoiser:
    """Checkpoint wrapper: the protocol's predict_x0 from the MLP's predict_eps.

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


def sample_training_times(schedule, config: TrainConfig, n, rng):
    """Draw training times; uniform on (t_floor, 1) or EDM log-normal noise levels
    mapped through the schedule inverse and clamped to [t_floor, 1]."""
    if config.t_sampler == UNIFORM_T:
        return rng.uniform(config.t_floor, 1.0, size=n)
    sigma = np.exp(rng.normal(config.p_mean, config.p_std, size=n))
    return np.clip(sigma_to_t(schedule, sigma), config.t_floor, 1.0)


def _block_arrays(world, rows):
    """The arrays _training_rows writes up to `rows` rows into: increments,
    clean videos, noisy videos, forward noise and scaled noise."""
    n, d = world.n_frames, world.frame_dim
    return np.empty((rows, n - 1, d)), *np.empty((4, rows, n, d))


def _training_rows(world, schedule, config: TrainConfig, streams, steps, arrays=None):
    """The batches of `steps` consecutive training steps, stacked as one
    Batch of batch_size rows per step.

    streams holds one generator per stage, in the order s_w picks, first
    frames, increments, condition frames, times, levels, condition noise,
    forward noise.  Each stage draws all rows in one call; a stage that
    draws nothing (the levels and condition noise of naive and cdm at
    level 0) leaves its generator as it is.  Picks and frames are index 0
    when the config has no choice.  The videos are written into the
    leading rows of arrays, from _block_arrays, or of new ones; the
    returned xt and target are views of them.
    """
    pick_rng, first_rng, inc_rng, frame_rng, t_rng, level_rng, cond_rng, eps_rng = streams
    rows = steps * config.batch_size
    inc, x0, xt, eps, scaled = (a[:rows] for a in arrays or _block_arrays(world, rows))
    scales = np.asarray(config.s_w_choices or (world.s_w,))
    pick = pick_rng.integers(scales.size, size=rows)
    videos_from_noise(world, first_frames(world, rows, first_rng),
                      inc_rng.standard_normal(out=inc), scales[pick], out=x0)
    motion = expected_motion_score(world, scales)[pick] if config.motion_feature else None
    frame = frame_rng.integers(
        world.n_frames if config.cond_frame == RANDOM_FRAME else 1, size=rows)
    y = x0[np.arange(rows), frame]
    t = sample_training_times(schedule, config, rows, t_rng)
    if config.mode in (TIMENOISE, CONSTANT_BETA):  # a level curve, in its variant
        level = (sample_beta(config.timenoise, t, level_rng) if config.mode == TIMENOISE
                 else constant_beta(config.timenoise, t))
        y = corrupt(y, level, cond_rng, config.timenoise.variant)
    elif config.mode == CDM_FIXED and config.cdm_beta:  # a fixed level, always additive
        y = corrupt(y, config.cdm_beta, cond_rng)
    perturb(schedule, x0, t, eps_rng, out=(xt, eps, scaled))
    return Batch(xt=xt, y=y, t=t, target=eps, motion=motion)


def make_training_batch(world, schedule, config, rng):
    """Draw one batch: the one-step case of the builder that train() calls
    once per block of steps, on eight streams spawned from rng, one per
    stage.  Two modes on one rng draw the same videos, times and forward
    noise; naive and cdm at level 0 also the same conditions."""
    return _training_rows(world, schedule, config, rng.spawn(8), 1)


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
    held-out batch, training data) so runs are reproducible bit-for-bit;
    the training data stream spawns the eight stage streams of the builder.
    """
    model = MLPDenoiser(
        world.n_frames, world.frame_dim, hidden=config.hidden,
        motion_feature=config.motion_feature,
    )
    root = np.random.default_rng(config.seed)
    init_rng, heldout_rng, data_rng = root.spawn(3)
    params = model.init_params(init_rng)
    heldout = make_training_batch(world, schedule, config, heldout_rng)
    initial_heldout = batch_loss(model, params, heldout) if return_history else None

    beta1, beta2, adam_eps = 0.9, 0.999, 1e-8
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    m_hat = np.empty_like(params)
    v_hat = np.empty_like(params)
    b = config.batch_size
    work = _Workspace(model, params, b)
    arrays = _block_arrays(world, BLOCK_STEPS * b)
    inputs = np.empty((BLOCK_STEPS * b, model.in_dim))
    streams = data_rng.spawn(8)
    history = []
    step = 0
    # the loop reports a non-finite loss itself, so numpy does not warn
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while step < config.steps:
            block = _training_rows(world, schedule, config, streams,
                                   min(BLOCK_STEPS, config.steps - step), arrays)
            x = model.build_inputs(block.xt, block.y, block.t, block.motion,
                                   out=inputs[: block.t.size])
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

    final_heldout = batch_loss(model, params, heldout)
    checkpoint = to_payload(_Checkpoint(
        CHECKPOINT_VERSION, _CheckpointConfig(config, world, schedule), config.seed,
        [list(s) for s in model.shapes], params, final_heldout,
    ))
    if return_history:
        return checkpoint, {"initial_heldout": initial_heldout,
                            "final_heldout": final_heldout, "loss_history": history}
    return checkpoint


def save_checkpoint(path, checkpoint: dict) -> None:
    write_json(path, checkpoint, indent=None, sort_keys=False)


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
