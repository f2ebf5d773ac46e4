"""Gaussian random-walk video world with exact Bayes denoisers.

A video is an (N, d) array of N frames in R^d.  Frame 1 is drawn from
N(m0, s0^2 I) and each subsequent frame adds a deterministic drift plus
N(0, s_w^2 I) innovation.  All coordinate dimensions are independent, so
the full prior covariance is C (x) I_d with an N x N frame factor C,
and every posterior computation reduces to N x N algebra.  The law given
frame 1 = y0 is that of the pinned world replace(world, m0=y0, s0=0.0).

Exact denoisers return E[X_0 | X_t] (optionally conditioned on the first
frame), which is the Bayes-optimal clean-video prediction under the
forward kernel x_t = alpha_t x0 + sigma_t eps: mean + G (x_t - alpha_t
mean) with the gain G(t) = solve(alpha^2 C + sigma^2 I, alpha C).  The
mean is 1 y^T + o, with y the first-frame mean (the condition y0, or m0
without one) and o the per-frame offsets (i-1) * drift, so the
prediction is one affine map of x_t and y:

    x0_hat = A(t) x_t + c(t) y^T + b(t),
    A = (1 - l) G,  c = (1 - l) (I - alpha G) 1 + l 1,  b = (1 - l) (I - alpha G) o,

where l(t) is the leaky denoiser's blend toward a static copy of y (0 for
the exact denoiser), which turns conditioning over-reliance into a dial.

The sampler applies the same map composed with each DDIM step, x_to =
M x_t + c y^T + b.  One module-level least-recently-used cache of
schedule.TIME_CACHE_SIZE entries (at N = 8, d = 4, 0.8 KiB each) keeps
(A, c, b) and the step maps for every exact denoiser, keyed by its prior
world, schedule, lam_max, p, float(t) and, for a step, its end time.
Worlds are keyed by identity and their m0 and drift are read-only, so no
entry goes stale.  A conditional denoiser's prior, the pinned world, is
made once per world, so the denoisers on one world share entries.  The
cached arrays are read-only, and a prediction is always a new array.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr

from .schedule import TIME_CACHE_SIZE, NoiseSchedule, alpha_sigma


@dataclass(frozen=True, eq=False)
class GaussianWorld:
    """Random-walk video distribution.

    frame_1 ~ N(m0, s0^2 I); frame_{i+1} = frame_i + drift + N(0, s_w^2 I).
    m0 and drift accept scalars (broadcast across the frame dimension) and
    are stored as read-only (frame_dim,) arrays.
    """

    n_frames: int = 8
    frame_dim: int = 4
    m0: float | np.ndarray = 0.0
    s0: float = 1.0
    drift: float | np.ndarray = 0.2
    s_w: float = 0.5

    def __post_init__(self) -> None:
        if self.n_frames < 2:
            raise ValueError(f"n_frames must be at least 2, got {self.n_frames}")
        if self.frame_dim < 1:
            raise ValueError("frame_dim must be at least 1")
        for name in ("s0", "s_w"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.s0 < 0.0:
            raise ValueError("s0 must be nonnegative")
        if not self.s_w > 0.0:
            raise ValueError("s_w must be positive")
        n, s0, s_w = self.n_frames, float(self.s0), float(self.s_w)
        if not math.isfinite(n * s0 * s0 + s_w * s_w * n * (n - 1) / 2):
            raise ValueError(
                f"s0 = {s0!r} and s_w = {s_w!r} overflow the trace of the prior "
                "frame covariance"
            )
        for name in ("m0", "drift"):
            vec = np.broadcast_to(
                np.asarray(getattr(self, name), dtype=np.float64), (self.frame_dim,)
            ).copy()
            if not np.isfinite(vec).all():
                raise ValueError(f"{name} must be finite, got {vec.tolist()!r}")
            vec.flags.writeable = False
            object.__setattr__(self, name, vec)

    @property
    def flat_dim(self) -> int:
        """Flattened dimension N * d."""
        return self.n_frames * self.frame_dim


# ---------------------------------------------------------------------------
# Sampling


def first_frames(world: GaussianWorld, n: int, rng: np.random.Generator):
    """Draw n first frames m0 + s0 z, shape (n, d)."""
    return first_frames_from_noise(world, rng.standard_normal((n, world.frame_dim)))


def first_frames_from_noise(world: GaussianWorld, z):
    """First frames m0 + s0 z for standard normals z (..., d)."""
    return world.m0 + world.s0 * z


def sample_videos(world: GaussianWorld, n: int, rng: np.random.Generator,
                  first=None, s_w=None):
    """Draw n videos, shape (n, N, d).

    first pins frame 1 to a given (d,) frame and draws nothing for it.
    s_w overrides the world's innovation scale, either as a scalar or as
    one value per video.  Draw order: first frames, then increments; the
    frames are those of videos_from_noise.
    """
    if first is None:
        first = first_frames(world, n, rng)
    inc = rng.standard_normal((n, world.n_frames - 1, world.frame_dim))
    return videos_from_noise(world, first, inc, s_w)


def videos_from_noise(world: GaussianWorld, first, inc, s_w=None):
    """Videos (n, N, d) with frame 1 first and later frames first +
    cumsum(drift + s_w z), for the (n, N - 1, d) standard normals z in inc.
    The increments are written in place into inc, then into the one output
    array.  s_w is as in sample_videos."""
    out = np.empty((inc.shape[0], world.n_frames, world.frame_dim))
    out[:, 0] = first
    inc *= world.s_w if s_w is None else np.reshape(s_w, (-1, 1, 1))
    inc += world.drift
    np.cumsum(inc, axis=1, out=inc)
    np.add(out[:, :1], inc, out=out[:, 1:])
    return out


# ---------------------------------------------------------------------------
# Moments


def _frame_offsets(world: GaussianWorld):
    """Per-frame mean offsets from frame 1, (i-1) * drift, shape (N, d)."""
    return np.arange(world.n_frames, dtype=np.float64)[:, None] * world.drift


def prior_frame_cov(world: GaussianWorld):
    """Frame covariance factor C, C_ij = s0^2 + min(i-1, j-1) * s_w^2."""
    idx = np.arange(world.n_frames, dtype=np.float64)
    return world.s0**2 + np.minimum.outer(idx, idx) * world.s_w**2


def prior_moments(world: GaussianWorld):
    """Flattened prior mean (N*d,) and the N x N frame covariance factor.

    Full covariance of the flattened video is kron(C, I_d).
    """
    return (world.m0 + _frame_offsets(world)).ravel(), prior_frame_cov(world)


def conditional_moments(world: GaussianWorld, y0):
    """Flattened mean and frame covariance factor given frame 1 = y0: the
    prior moments of the pinned world, frame 1 fixed at y0 (s0 = 0)."""
    y0 = np.asarray(y0, dtype=np.float64)
    if y0.shape != (world.frame_dim,):
        raise ValueError("y0 must be a single frame of shape (frame_dim,)")
    return prior_moments(replace(world, m0=y0, s0=0.0))


def marginal_moments_at(world, schedule: NoiseSchedule, t):
    """Moments of X_t = alpha_t X_0 + sigma_t eps: the flattened mean and the
    frame covariance factor C_t of the full covariance kron(C_t, I_d)."""
    alpha, sigma = alpha_sigma(schedule, t)
    mean, cov = prior_moments(world)
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
        1.0 - 2.0 * ndtr(-mu / s)
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


# ---------------------------------------------------------------------------
# Denoisers


class ExactDenoiser:
    """Posterior-mean denoiser E[X_0 | X_t (, frame_1 = y0)].

    With prior N(mean, C (x) I_d), the posterior mean per coordinate column
    is mean + alpha C (alpha^2 C + sigma^2 I)^{-1} (xt - alpha mean), whose
    commuting factors give the solve of the module docstring.  C is that of
    prior, the world pinned at frame 1 (s0 = 0) when conditional, with a
    zero first row and column that give frame 1 exactly zero gain;
    alpha^2 C + sigma^2 I is nonsingular for every t > 0.
    """

    def __init__(self, world: GaussianWorld, schedule: NoiseSchedule, conditional=True):
        self.world = world
        self.schedule = schedule
        self.shape = (world.n_frames, world.frame_dim)
        self.conditional = bool(conditional)
        self.prior = _pinned(world) if self.conditional else world
        # the blend toward the condition, l(t) = lam_max * t^p: none here
        self.lam_max = 0.0
        self.p = 1.0

    def predict_x0(self, xt, y, t):
        if not 0.0 < t <= 1.0:
            raise ValueError("exact prediction requires t in (0, 1]")
        if self.conditional and y is None:
            raise ValueError("conditional denoiser needs a conditioning frame")
        y = np.asarray(y if self.conditional else self.world.m0, dtype=np.float64)
        if y.shape[-1:] != (self.world.frame_dim,):
            raise ValueError(f"condition of shape {y.shape} is not (..., frame_dim)")
        a, c, b = _affine_map(self.prior, self.schedule, self.lam_max, self.p, float(t))
        out = a @ xt
        out += c * y[..., None, :]
        out += b
        return out

    def predict_eps(self, xt, y, t):
        return as_eps_prediction(self.predict_x0(xt, y, t), xt, self.schedule, t)


@functools.lru_cache(maxsize=64)
def _pinned(world):
    """The world pinned at frame 1 (s0 = 0), one per world, so that every
    conditional denoiser on a world reads the same _affine_map entries."""
    return replace(world, s0=0.0)


@functools.lru_cache(maxsize=TIME_CACHE_SIZE)
def _affine_map(prior, schedule, lam_max, p, t, t_to=0.0):
    """The read-only (M, c, b) of one DDIM step x_to = M xt + c y^T + b
    from t down to t_to.

    t_to = 0 is the prediction x0_hat = A xt + c y^T + b itself, which
    predict_x0 reads: G = solve(alpha^2 C + sigma^2 I, alpha C) for the
    prior's C and the leak l = lam_max t^p give A = (1 - l) G, c = (1 - l)
    (I - alpha G) 1 + l as an (N, 1) column, and b = (1 - l) (I - alpha G) o
    for the offsets o.  A step to t_to > 0, x_to = k x0_hat + r xt with r =
    sigma_to / sigma_t and k = alpha_to - r alpha_t, composes that map into
    (k A + r I, k c, k b).  t_to = 0 never takes that form: VE has
    sigma(0) = sigma_min, not 0.
    """
    eye = np.eye(prior.n_frames)
    if t_to != 0.0:
        a, c, b = _affine_map(prior, schedule, lam_max, p, t)
        a_from, s_from = alpha_sigma(schedule, t)
        a_to, s_to = alpha_sigma(schedule, t_to)
        r = s_to / s_from
        kappa = a_to - r * a_from
        coefficients = (kappa * a + r * eye, kappa * c, kappa * b)
    else:
        alpha, sigma = alpha_sigma(schedule, t)
        cov = prior_frame_cov(prior)
        gain = np.linalg.solve(alpha**2 * cov + sigma**2 * eye, alpha * cov)
        rest = eye - alpha * gain
        leak = lam_max * t**p  # LeakyDenoiser.leak(t)
        keep = 1.0 - leak
        coefficients = (keep * gain, keep * rest.sum(axis=1, keepdims=True) + leak,
                        keep * (rest @ _frame_offsets(prior)))
    for array in coefficients:
        array.flags.writeable = False
    return coefficients


class LeakyDenoiser(ExactDenoiser):
    """Exact conditional denoiser blended toward a static copy of y0.

    x0_hat = (1 - lam(t)) * exact + lam(t) * broadcast(y0) with
    lam(t) = lam_max * t^p: no leak at t=0, maximal leak at t=1.  The
    blend is part of the cached affine map, so predict_x0 is inherited.
    """

    def __init__(self, world, schedule, lam_max: float, p: float):
        if not 0.0 <= lam_max <= 1.0:
            raise ValueError("lam_max must lie in [0, 1]")
        if not p > 0.0:
            raise ValueError("p must be positive")
        super().__init__(world, schedule, conditional=True)
        self.lam_max = float(lam_max)
        self.p = float(p)

    def leak(self, t) -> float:
        return self.lam_max * float(t) ** self.p
