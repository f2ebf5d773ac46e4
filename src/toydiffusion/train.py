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
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from .schedule import NoiseSchedule, VP, perturb, sigma_to_t
from .timenoise import (
    ADDITIVE,
    TimeNoiseParams,
    constant_beta,
    corrupt,
    sample_beta,
)
from .world import GaussianWorld, expected_motion_score, sample_videos, x0_from_eps

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
        if self.s_w_choices is not None:
            object.__setattr__(
                self, "s_w_choices", tuple(float(s) for s in self.s_w_choices)
            )

    def to_dict(self) -> dict:
        out = asdict(self)
        out["s_w_choices"] = list(self.s_w_choices) if self.s_w_choices else None
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "TrainConfig":
        payload = dict(payload)
        tn = payload.get("timenoise")
        if tn is not None:
            payload["timenoise"] = TimeNoiseParams(**tn)
        if payload.get("s_w_choices") is not None:
            payload["s_w_choices"] = tuple(payload["s_w_choices"])
        return cls(**payload)


# ---------------------------------------------------------------------------
# Backbone


def time_features(t):
    """Fourier time encoding [t, sin(2 pi k t), cos(2 pi k t)], k = 1..4."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    k = np.arange(1, TIME_HARMONICS + 1, dtype=np.float64)
    angles = 2.0 * np.pi * t[:, None] * k
    return np.concatenate([t[:, None], np.sin(angles), np.cos(angles)], axis=1)


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
        self.n_params = sum(int(np.prod(s)) for s in self.shapes)

    def unpack(self, params):
        params = np.asarray(params)
        views, start = [], 0
        for shape in self.shapes:
            size = int(np.prod(shape))
            views.append(params[start : start + size].reshape(shape))
            start += size
        return views

    def init_params(self, rng: np.random.Generator):
        """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) per layer."""
        chunks = []
        for w_shape, b_shape in zip(self.shapes[0::2], self.shapes[1::2]):
            bound = 1.0 / np.sqrt(w_shape[0])
            chunks.append(rng.uniform(-bound, bound, int(np.prod(w_shape))))
            chunks.append(rng.uniform(-bound, bound, int(np.prod(b_shape))))
        return np.concatenate(chunks)

    def build_inputs(self, xt, y, t, motion=None):
        xt = np.asarray(xt, dtype=np.float64)
        single = xt.ndim == 2
        if single:
            xt = xt[None]
        b = xt.shape[0]
        y = np.asarray(y, dtype=np.float64)
        if y.ndim == 1:
            y = np.broadcast_to(y, (b, y.shape[0]))
        tf = time_features(t)
        if tf.shape[0] == 1 and b > 1:
            tf = np.broadcast_to(tf, (b, tf.shape[1]))
        parts = [xt.reshape(b, -1), y, tf]
        if self.motion_feature:
            if motion is None:
                raise ValueError("this model expects a motion-target feature")
            motion = np.broadcast_to(
                np.atleast_1d(np.asarray(motion, dtype=np.float64)), (b,)
            )
            parts.append(motion[:, None])
        x = np.concatenate(parts, axis=1)
        if x.shape[1] != self.in_dim:
            raise ValueError(
                f"input width {x.shape[1]} does not match model width {self.in_dim}"
            )
        return x, single

    def forward(self, params, xt, y, t, motion=None):
        """Predicted noise, shaped like xt."""
        x, single = self.build_inputs(xt, y, t, motion)
        out, _ = self._forward(params, x)
        out = out.reshape(-1, self.n_frames, self.frame_dim)
        return out[0] if single else out

    def _forward(self, params, x):
        w1, b1, w2, b2, w3, b3 = self.unpack(params)
        h1 = np.tanh(x @ w1 + b1)
        h2 = np.tanh(h1 @ w2 + b2)
        out = h2 @ w3 + b3
        return out, (x, h1, h2)

    def _backward(self, params, cache, dout):
        """Reverse-mode pass; dout is dLoss/d(output), shape (B, out_dim)."""
        x, h1, h2 = cache
        _, _, w2, _, w3, _ = self.unpack(params)
        dw3 = h2.T @ dout
        db3 = dout.sum(axis=0)
        dz2 = (dout @ w3.T) * (1.0 - h2 * h2)
        dw2 = h1.T @ dz2
        db2 = dz2.sum(axis=0)
        dz1 = (dz2 @ w2.T) * (1.0 - h1 * h1)
        dw1 = x.T @ dz1
        db1 = dz1.sum(axis=0)
        return np.concatenate(
            [g.ravel() for g in (dw1, db1, dw2, db2, dw3, db3)]
        )


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

    def predict_eps(self, xt, y, t):
        motion = self.motion_value if self.model.motion_feature else None
        return self.model.forward(self.params, xt, y, t, motion)

    def predict_x0(self, xt, y, t):
        return x0_from_eps(self.predict_eps(xt, y, t), xt, self.schedule, t)


# ---------------------------------------------------------------------------
# Batch construction


@dataclass
class Batch:
    """One training batch: noisy videos, conditions, times, noise targets."""

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
    log_sigma = rng.normal(config.p_mean, config.p_std, size=n)
    t = sigma_to_t(schedule, np.exp(log_sigma))
    return np.clip(t, config.t_floor, 1.0)


def _sample_clean_batch(world, config, rng):
    """Clean videos plus the per-item motion feature (None when disabled).

    With s_w_choices, each video's innovation scale is picked before any
    video is drawn."""
    b = config.batch_size
    if config.motion_feature and config.s_w_choices:
        choices = np.asarray(config.s_w_choices, dtype=np.float64)
        s_w_item = choices[rng.integers(0, len(choices), size=b)]
        x0 = sample_videos(world, b, rng, s_w=s_w_item)
        per_choice = {
            float(s): expected_motion_score(replace(world, s_w=float(s)))
            for s in choices
        }
        motion = np.array([per_choice[float(s)] for s in s_w_item])
        return x0, motion
    x0 = sample_videos(world, b, rng)
    motion = (
        np.full(b, expected_motion_score(world)) if config.motion_feature else None
    )
    return x0, motion


def _corrupt_condition(config, y0, t, rng, beta_override=None):
    """Choose the mode's corruption level and apply it; a zero level consumes
    no draws.  The level-curve modes take their variant from the timenoise
    parameters; cdm's fixed level is additive."""
    if config.mode == NAIVE:
        return y0
    if config.mode == CDM_FIXED:
        return corrupt(y0, config.cdm_beta, rng, ADDITIVE)
    if config.mode == CONSTANT_BETA:
        betas = constant_beta(config.timenoise, t)
    elif beta_override is not None:
        betas = beta_override
    else:
        betas = sample_beta(config.timenoise, t, rng)
    return corrupt(y0, betas, rng, config.timenoise.variant)


def make_training_batch(world, schedule, config, rng, beta_override=None):
    """Draw one batch.  Draw order is fixed (videos, frame choice, times,
    condition corruption, forward noise) so that modes which skip a stage
    leave the remaining stream identical."""
    x0, motion = _sample_clean_batch(world, config, rng)
    if config.cond_frame == RANDOM_FRAME:
        idx = rng.integers(0, world.n_frames, size=x0.shape[0])
        y0 = x0[np.arange(x0.shape[0]), idx, :]
    else:
        y0 = x0[:, 0, :]
    t = sample_training_times(schedule, config, x0.shape[0], rng)
    y = _corrupt_condition(config, y0, t, rng, beta_override)
    xt, eps = perturb(schedule, x0, t, rng)
    return Batch(xt=xt, y=y, t=t, target=eps, motion=motion)


# ---------------------------------------------------------------------------
# Loss and optimization


def batch_loss(model, params, batch):
    """Mean squared noise-prediction error over the batch."""
    x, _ = model.build_inputs(batch.xt, batch.y, batch.t, batch.motion)
    out, _ = model._forward(params, x)
    diff = out - batch.target.reshape(out.shape)
    return float(np.mean(diff * diff))


def batch_loss_and_gradient(model, params, batch):
    x, _ = model.build_inputs(batch.xt, batch.y, batch.t, batch.motion)
    out, cache = model._forward(params, x)
    diff = out - batch.target.reshape(out.shape)
    loss = float(np.mean(diff * diff))
    dout = (2.0 / diff.size) * diff
    return loss, model._backward(params, cache, dout)


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
    history = []
    for step in range(config.steps):
        batch = make_training_batch(world, schedule, config, data_rng)
        loss, grad = batch_loss_and_gradient(model, params, batch)
        if not np.isfinite(loss):
            raise TrainingDiverged(step, loss)
        m = beta1 * m + (1.0 - beta1) * grad
        v = beta2 * v + (1.0 - beta2) * grad * grad
        m_hat = m / (1.0 - beta1 ** (step + 1))
        v_hat = v / (1.0 - beta2 ** (step + 1))
        params = params - config.lr * m_hat / (np.sqrt(v_hat) + adam_eps)
        if return_history and (step % 500 == 0 or step == config.steps - 1):
            history.append((step, loss))

    final_heldout = batch_loss(model, params, heldout)
    checkpoint = {
        "format_version": CHECKPOINT_VERSION,
        "config": {
            "train": config.to_dict(),
            "world": world.to_dict(),
            "schedule": asdict(schedule),
        },
        "seed": config.seed,
        "layer_shapes": [list(s) for s in model.shapes],
        "parameters": params.tolist(),
        "final_loss": final_heldout,
    }
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
    """Rebuild (model, params, config dicts) from a checkpoint dict or path."""
    if not isinstance(source, dict):
        with open(source) as fh:
            source = json.load(fh)
    if source.get("format_version") != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint format_version {source.get('format_version')!r}"
        )
    cfg = source["config"]
    train_cfg = TrainConfig.from_dict(cfg["train"])
    world = GaussianWorld.from_dict(cfg["world"])
    schedule = NoiseSchedule(**cfg["schedule"])
    model = MLPDenoiser(
        world.n_frames, world.frame_dim, hidden=train_cfg.hidden,
        motion_feature=train_cfg.motion_feature,
    )
    expected = [list(s) for s in model.shapes]
    if source["layer_shapes"] != expected:
        raise ValueError("checkpoint layer shapes do not match its config")
    params = np.asarray(source["parameters"], dtype=np.float64)
    if params.size != model.n_params:
        raise ValueError("checkpoint parameter count does not match its shapes")
    return model, params, world, schedule, train_cfg
