"""Gaussian random-walk video world with exact Bayes denoisers.

A video is an (N, d) array of N frames in R^d.  Frame 1 is drawn from
N(m0, s0^2 I) and each subsequent frame adds a deterministic drift plus
N(0, s_w^2 I) innovation.  All coordinate dimensions are independent, so
the full prior covariance is C (x) I_d with an N x N frame factor C,
and every posterior computation reduces to an N x N linear solve.

Exact denoisers return E[X_0 | X_t] (optionally conditioned on the first
frame), which is the Bayes-optimal clean-video prediction under the
forward kernel x_t = alpha_t x0 + sigma_t eps.  A "leaky" denoiser blends
the exact conditional prediction with a static broadcast of the
conditioning frame, turning conditioning over-reliance into a dial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.stats import norm

from .schedule import NoiseSchedule, alpha_sigma

CHOL_JITTER = 1e-12


@dataclass(frozen=True, eq=False)
class GaussianWorld:
    """Random-walk video distribution.

    frame_1 ~ N(m0, s0^2 I); frame_{i+1} = frame_i + drift + N(0, s_w^2 I).
    m0 and drift accept scalars (broadcast across the frame dimension).
    """

    n_frames: int = 8
    frame_dim: int = 4
    m0: float | np.ndarray = 0.0
    s0: float = 1.0
    drift: float | np.ndarray = 0.2
    s_w: float = 0.5

    def __post_init__(self) -> None:
        if self.n_frames < 1 or self.frame_dim < 1:
            raise ValueError("n_frames and frame_dim must be at least 1")
        if self.s0 < 0.0:
            raise ValueError("s0 must be nonnegative")
        if not self.s_w > 0.0:
            raise ValueError("s_w must be positive")
        for name in ("m0", "drift"):
            vec = np.broadcast_to(
                np.asarray(getattr(self, name), dtype=np.float64), (self.frame_dim,)
            ).copy()
            object.__setattr__(self, name, vec)

    @property
    def flat_dim(self) -> int:
        """Flattened dimension N * d."""
        return self.n_frames * self.frame_dim

    def to_dict(self) -> dict:
        return {
            "n_frames": self.n_frames,
            "frame_dim": self.frame_dim,
            "m0": self.m0.tolist(),
            "s0": float(self.s0),
            "drift": self.drift.tolist(),
            "s_w": float(self.s_w),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "GaussianWorld":
        return cls(
            n_frames=int(payload["n_frames"]),
            frame_dim=int(payload["frame_dim"]),
            m0=np.asarray(payload["m0"], dtype=np.float64),
            s0=float(payload["s0"]),
            drift=np.asarray(payload["drift"], dtype=np.float64),
            s_w=float(payload["s_w"]),
        )


# ---------------------------------------------------------------------------
# Sampling


def sample_videos(world: GaussianWorld, n: int, rng: np.random.Generator,
                  first=None, s_w=None):
    """Draw n videos, shape (n, N, d).

    first pins frame 1 to a given (d,) frame and draws nothing for it.
    s_w overrides the world's innovation scale, either as a scalar or as
    one value per video.  Draw order: first frames, then increments.
    """
    shape = (n, 1, world.frame_dim)
    if first is None:
        first = world.m0 + world.s0 * rng.standard_normal(shape)
    else:
        first = np.broadcast_to(np.asarray(first, dtype=np.float64), shape).copy()
    if world.n_frames == 1:
        return first
    scale = np.reshape(world.s_w if s_w is None else s_w, (-1, 1, 1))
    inc = world.drift + scale * rng.standard_normal(
        (n, world.n_frames - 1, world.frame_dim)
    )
    return np.concatenate([first, first + np.cumsum(inc, axis=1)], axis=1)


# ---------------------------------------------------------------------------
# Moments


def _frame_means(world: GaussianWorld):
    """Prior per-frame means, shape (N, d): m0 + (i-1) * drift."""
    steps = np.arange(world.n_frames, dtype=np.float64)[:, None]
    return world.m0 + steps * world.drift


def _cond_frame_means(world: GaussianWorld, y0):
    """Per-frame means given frame 1 = y0: y0 + (i-1) * drift.

    y0 may be a single (d,) frame or a batch (B, d); the batch axis, if
    present, leads the output.
    """
    y0 = np.asarray(y0, dtype=np.float64)
    steps = np.arange(world.n_frames, dtype=np.float64)[:, None]
    if y0.ndim == 1:
        return y0 + steps * world.drift
    return y0[:, None, :] + steps * world.drift


def prior_frame_cov(world: GaussianWorld):
    """Frame covariance factor C, C_ij = s0^2 + min(i-1, j-1) * s_w^2."""
    idx = np.arange(world.n_frames, dtype=np.float64)
    return world.s0**2 + np.minimum.outer(idx, idx) * world.s_w**2


def conditional_frame_cov(world: GaussianWorld):
    """Frame covariance given frame 1: C'_ij = min(i-1, j-1) * s_w^2."""
    idx = np.arange(world.n_frames, dtype=np.float64)
    return np.minimum.outer(idx, idx) * world.s_w**2


def prior_moments(world: GaussianWorld):
    """Flattened prior mean (N*d,) and the N x N frame covariance factor.

    Full covariance of the flattened video is kron(C, I_d).
    """
    return _frame_means(world).ravel(), prior_frame_cov(world)


def conditional_moments(world: GaussianWorld, y0):
    """Flattened mean and frame covariance factor given frame 1 = y0."""
    y0 = np.asarray(y0, dtype=np.float64)
    if y0.shape != (world.frame_dim,):
        raise ValueError("y0 must be a single frame of shape (frame_dim,)")
    return _cond_frame_means(world, y0).ravel(), conditional_frame_cov(world)


def marginal_moments_at(world, schedule: NoiseSchedule, t, y0=None):
    """Moments of X_t = alpha_t X_0 + sigma_t eps.

    Returns (flattened mean, frame covariance factor); conditions on
    frame 1 = y0 when y0 is given.  Full covariance is kron(C_t, I_d).
    """
    alpha, sigma = alpha_sigma(schedule, t)
    if y0 is None:
        mean, cov = prior_moments(world)
    else:
        mean, cov = conditional_moments(world, y0)
    cov_t = alpha**2 * cov + sigma**2 * np.eye(world.n_frames)
    return alpha * mean, cov_t


def kron_cov(frame_cov, frame_dim: int):
    """Expand an N x N frame factor to the full (N*d) x (N*d) covariance."""
    return np.kron(np.asarray(frame_cov, dtype=np.float64), np.eye(frame_dim))


def expected_motion_score(world: GaussianWorld) -> float:
    """Closed-form mean motion score of world samples.

    Each frame-difference coordinate is N(drift_k, s_w^2); its absolute
    value has the folded-normal mean
    s_w sqrt(2/pi) exp(-mu^2 / 2 s_w^2) + mu (1 - 2 Phi(-mu / s_w)).
    """
    mu = world.drift
    s = world.s_w
    e_abs = s * np.sqrt(2.0 / np.pi) * np.exp(-(mu**2) / (2.0 * s * s)) + mu * (
        1.0 - 2.0 * norm.cdf(-mu / s)
    )
    return float((world.n_frames - 1) * np.mean(e_abs))


# ---------------------------------------------------------------------------
# Prediction-space conversions (shared by every denoiser and the sampler)


def as_eps_prediction(x0_hat, xt, schedule: NoiseSchedule, t):
    """Convert a clean-video prediction to noise space: (xt - alpha x0) / sigma."""
    alpha, sigma = alpha_sigma(schedule, t)
    if sigma == 0.0:
        raise ValueError("eps-prediction undefined where sigma_t = 0")
    return (np.asarray(xt, dtype=np.float64) - alpha * x0_hat) / sigma


def x0_from_eps(eps_hat, xt, schedule: NoiseSchedule, t):
    """Convert a noise prediction to clean-video space: (xt - sigma eps) / alpha."""
    alpha, sigma = alpha_sigma(schedule, t)
    return (np.asarray(xt, dtype=np.float64) - sigma * eps_hat) / alpha


def broadcast_condition(y, n_frames: int):
    """Repeat a conditioning frame across all N frames (static video)."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim == 1:
        return np.broadcast_to(y, (n_frames, y.shape[0])).copy()
    return np.broadcast_to(y[:, None, :], (y.shape[0], n_frames, y.shape[1])).copy()


# ---------------------------------------------------------------------------
# Denoisers


def _chol(mat):
    """Cholesky factor with a tiny-jitter retry for borderline-singular input."""
    try:
        return cho_factor(mat, lower=True)
    except np.linalg.LinAlgError:
        return cho_factor(mat + CHOL_JITTER * np.eye(mat.shape[0]), lower=True)


class ExactDenoiser:
    """Posterior-mean denoiser E[X_0 | X_t (, frame_1 = y0)].

    With prior N(mean, C (x) I_d) and kernel x_t = alpha x0 + sigma eps,
    the posterior mean per coordinate column is
        mean + alpha C (alpha^2 C + sigma^2 I)^{-1} (xt - alpha mean),
    one N x N Cholesky solve per call shared across batch and coordinates.
    """

    def __init__(self, world: GaussianWorld, schedule: NoiseSchedule, conditional=True):
        self.world = world
        self.schedule = schedule
        self.conditional = bool(conditional)

    def predict_x0(self, xt, y, t):
        if not 0.0 < t <= 1.0:
            raise ValueError("exact prediction requires t in (0, 1]")
        xt = np.asarray(xt, dtype=np.float64)
        single = xt.ndim == 2
        x = xt[None] if single else xt
        n, d = self.world.n_frames, self.world.frame_dim
        if self.conditional:
            if y is None:
                raise ValueError("conditional denoiser needs a conditioning frame")
            mean = _cond_frame_means(self.world, y)
            cov = conditional_frame_cov(self.world)
        else:
            mean = _frame_means(self.world)
            cov = prior_frame_cov(self.world)
        alpha, sigma = alpha_sigma(self.schedule, t)
        factor = _chol(alpha**2 * cov + sigma**2 * np.eye(n))
        resid = x - alpha * mean
        cols = resid.transpose(1, 0, 2).reshape(n, -1)
        w = cho_solve(factor, cols)
        pull = (cov @ w).reshape(n, x.shape[0], d).transpose(1, 0, 2)
        post = mean + alpha * pull
        return post[0] if single else post

    def predict_eps(self, xt, y, t):
        return as_eps_prediction(self.predict_x0(xt, y, t), xt, self.schedule, t)


class LeakyDenoiser:
    """Exact conditional denoiser blended toward a static copy of y0.

    x0_hat = (1 - lam(t)) * exact + lam(t) * broadcast(y0) with
    lam(t) = lam_max * t^p: no leak at t=0, maximal leak at t=1.
    """

    def __init__(self, world, schedule, lam_max: float, p: float):
        if not 0.0 <= lam_max <= 1.0:
            raise ValueError("lam_max must lie in [0, 1]")
        if not p > 0.0:
            raise ValueError("p must be positive")
        self.exact = ExactDenoiser(world, schedule, conditional=True)
        self.world = world
        self.schedule = schedule
        self.lam_max = float(lam_max)
        self.p = float(p)

    def leak(self, t) -> float:
        return self.lam_max * float(t) ** self.p

    def predict_x0(self, xt, y, t):
        lam = self.leak(t)
        exact = self.exact.predict_x0(xt, y, t)
        static = broadcast_condition(y, self.world.n_frames)
        return (1.0 - lam) * exact + lam * static

    def predict_eps(self, xt, y, t):
        return as_eps_prediction(self.predict_x0(xt, y, t), xt, self.schedule, t)
