"""Gaussian random-walk video world with exact Bayes denoisers.

A video is an (N, d) array of N frames in R^d.  Frame 1 is drawn from
N(m0, s0^2 I) and each subsequent frame adds a deterministic drift plus
N(0, s_w^2 I) innovation.  All coordinate dimensions are independent, so
the full prior covariance is C (x) I_d with an N x N frame factor C,
and every posterior computation reduces to N x N algebra.  Each law is a
FrameGaussian, an (N, d) mean with its frame factor.  Given frame 1 = y0,
laws and draws are the pinned world's, replace(world, m0=y0, s0=0.0).
videos_from_noise and expected_motion_score take one s_w or one per video.

Exact denoisers return E[X_0 | X_t] (optionally conditioned on the first
frame), the Bayes-optimal clean-video prediction under the forward
kernel x_t = alpha_t x0 + sigma_t eps, which schedule holds with its
inverse; predict_x0 is the one denoiser protocol, and
_check_denoiser_inputs the one input rule of both families.  The prior mean is
m = 1 y^T + i drift^T, with y the first-frame mean (the condition y0, or
m0 without one) and i = (0, 1, ..., N-1) the frame indices, so the
posterior mean in its precision form, S^{-1} (alpha C x_t + sigma^2 m)
with S = alpha^2 C + sigma^2 I, is one solve and one affine map of x_t,
y and the drift:

    x0_hat = W [x_t; y^T; drift^T],
    W = (1 - l) solve(S, [alpha C | sigma^2 1 | sigma^2 i]) + l [0 | 1 | 0],

where l(t) is the leaky denoiser's blend toward a static copy of y (0 for
the exact denoiser), which turns conditioning over-reliance into a dial.

The sampler composes the same map with each DDIM step of
schedule.ddim_coefficients: ExactDenoiser.step_map(t, t_to) returns either
as one (N, N + 2) matrix W = [M | c | beta], x_to = M x_t + c y^T +
beta drift^T, t_to = 0 being the prediction map; each comes from its own
solve, so a K-step run makes K maps.  One module-level least-recently-used
cache of schedule.TIME_CACHE_SIZE entries (at N = 8, 0.6 KiB each) keeps
them for every exact denoiser, keyed by world, conditional, schedule, the
leak value l(t), float(t) and t_to.  Worlds are keyed by identity and their
m0 and drift are read-only, so no entry goes stale.  Denoisers on one world
with the same leak share entries.  The cached matrices are read-only, and
a prediction is always a new array.  expected_motion_score takes its
normal distribution function from special, so the module needs numpy alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .codec import check_choice, check_integer, check_range
from .schedule import (TIME_CACHE_SIZE, NoiseSchedule, _per_item, alpha_sigma,
                       check_start, ddim_coefficients)
from .special import ndtr


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
        check_range(check_integer(self.n_frames, "n_frames"), "n_frames", 2)
        check_range(check_integer(self.frame_dim, "frame_dim"), "frame_dim", 1)
        check_range(self.s0, "s0", 0.0)
        check_range(self.s_w, "s_w", 0.0, low_open=True)
        n, s0, s_w = self.n_frames, float(self.s0), float(self.s_w)
        if not math.isfinite(n * s0 * s0 + s_w * s_w * n * (n - 1) / 2):
            raise ValueError(
                f"s0 = {s0!r} and s_w = {s_w!r} overflow the trace of the prior "
                "frame covariance"
            )
        if s0 * s0 + s_w * s_w == s0 * s0:
            raise ValueError(f"s_w = {s_w!r} rounds away next to s0 = {s0!r} in the prior "
                             "frame covariance: s0^2 + s_w^2 == s0^2")
        for name in ("m0", "drift"):
            vec = np.asarray(getattr(self, name), dtype=np.float64)
            check_choice(vec.shape, f"{name}'s shape", ((), (1,), (self.frame_dim,)))
            vec = check_range(np.broadcast_to(vec, (self.frame_dim,)).copy(), name)
            vec.flags.writeable = False
            object.__setattr__(self, name, vec)
        with np.errstate(over="ignore"):  # an overflow is reported by field below
            offsets = _frame_offsets(self)
            means = self.m0 + offsets
            moves = means + (np.abs(self.drift) + s_w) != means
        if not np.isfinite(offsets).all():
            raise ValueError("drift overflows the frame offsets (i - 1) * drift")
        if not np.isfinite(means).all():
            raise ValueError("m0 and drift overflow the frame means m0 + (i - 1) * drift")
        if not moves.all():
            raise ValueError("the frame increments, of scale |drift| + s_w, round away next "
                             "to the frame means m0 + (i - 1) * drift, so frames would not move")

    @property
    def flat_dim(self) -> int:
        """Flattened dimension N * d."""
        return self.n_frames * self.frame_dim


# ---------------------------------------------------------------------------
# Sampling


def first_frames(world: GaussianWorld, n: int, rng: np.random.Generator):
    """Draw n first frames m0 + s0 z, shape (n, d)."""
    return world.m0 + world.s0 * rng.standard_normal((n, world.frame_dim))


def sample_videos(world: GaussianWorld, n: int, rng: np.random.Generator):
    """Draw n videos, shape (n, N, d): first frames, then increments, the
    frames those of videos_from_noise."""
    first = first_frames(world, n, rng)
    inc = rng.standard_normal((n, world.n_frames - 1, world.frame_dim))
    return videos_from_noise(world, first, inc)


def videos_from_noise(world: GaussianWorld, first, inc, s_w=None, out=None):
    """Videos (n, N, d) with frame 1 first and later frames first +
    cumsum(drift + s_w z), for the (n, N - 1, d) standard normals z in inc.
    The increments are written in place into inc, then into out, a new
    array unless given.  s_w overrides the world's innovation scale, either
    as a scalar or as one value per video."""
    if out is None:
        out = np.empty((inc.shape[0], world.n_frames, world.frame_dim))
    out[:, 0] = first
    inc *= world.s_w if s_w is None else _per_item(s_w, inc)
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


class FrameGaussian(NamedTuple):
    """The law N(mean, cov (x) I_d) of an (N, d) array, cov its N x N frame
    factor; a dense Gaussian on R^D is the (D, 1) case.  Unpacks as a pair."""

    mean: np.ndarray
    cov: np.ndarray


def prior_moments(world: GaussianWorld) -> FrameGaussian:
    """The prior law of a video: frame means m0 + (i-1) drift, factor C."""
    return FrameGaussian(world.m0 + _frame_offsets(world), prior_frame_cov(world))


def conditional_moments(world: GaussianWorld, y0) -> FrameGaussian:
    """The law given frame 1 = y0: the prior law of the pinned world,
    frame 1 fixed at y0 (s0 = 0)."""
    y0 = np.asarray(y0, dtype=np.float64)
    check_choice(y0.shape, "y0's shape", ((world.frame_dim,),))
    return prior_moments(replace(world, m0=y0, s0=0.0))


def marginal_moments_at(world, schedule: NoiseSchedule, t) -> FrameGaussian:
    """The law of X_t = alpha_t X_0 + sigma_t eps: mean alpha_t E[X_0] and
    factor C_t = alpha_t^2 C + sigma_t^2 I."""
    alpha, sigma = alpha_sigma(schedule, t)
    mean, cov = prior_moments(world)
    return FrameGaussian(alpha * mean, alpha**2 * cov + sigma**2 * np.eye(len(cov)))


def kron_cov(frame_cov, frame_dim: int):
    """Expand an N x N frame factor to the full (N*d) x (N*d) covariance."""
    return np.kron(np.asarray(frame_cov, dtype=np.float64), np.eye(frame_dim))


def expected_motion_score(world: GaussianWorld, s_w=None):
    """Closed-form mean motion score of world samples: a float, or one per
    video for an s_w with one value per video, as in videos_from_noise.

    Each frame-difference coordinate is N(drift_k, s_w^2); its absolute
    value has the folded-normal mean
    s_w sqrt(2/pi) exp(-mu^2 / 2 s_w^2) + mu (1 - 2 Phi(-mu / s_w)).
    """
    mu = world.drift
    s = check_range(np.asarray(world.s_w if s_w is None else s_w, dtype=np.float64),
                    "s_w", 0.0, low_open=True)[..., None]
    e_abs = s * np.sqrt(2.0 / np.pi) * np.exp(-(mu**2) / (2.0 * s * s)) + mu * (
        1.0 - 2.0 * ndtr(-mu / s)
    )
    score = (world.n_frames - 1) * np.mean(e_abs, axis=-1)
    return float(score) if score.ndim == 0 else score


# ---------------------------------------------------------------------------
# Denoisers


def _check_denoiser_inputs(shape, xt, y, **per_video):
    """The input rule of every denoiser family, for videos of shape
    (N, d): xt is (..., N, d); the condition y is one frame (d,) or one
    per video, xt.shape[:-2] + (d,); and each per_video value (a trained
    model's time and motion) is one value or one per video.  Returns xt
    and y as float arrays."""
    xt = np.asarray(xt, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = shape
    videos = xt.shape[:-2]
    check_choice(xt.shape, "video batch's shape", (videos + (n, d),))
    check_choice(y.shape, "condition's shape", ((d,), videos + (d,)))
    for name, value in per_video.items():
        check_choice(np.shape(value), f"{name}'s shape", ((), videos))
    return xt, y


class ExactDenoiser:
    """Posterior-mean denoiser E[X_0 | X_t (, frame_1 = y0)].

    With prior N(m, C (x) I_d), the posterior mean per coordinate column
    is S^{-1} (alpha C xt + sigma^2 m), S = alpha^2 C + sigma^2 I, the one
    solve of the module docstring.  C is the world's, or when conditional
    that of the world pinned at frame 1 (s0 = 0), whose zero first row and
    column make frame 1 exactly y; S is nonsingular wherever sigma > 0.
    step_map is the one way to the family's cached affine maps, one per
    (t, t_to): K for a K-step run.
    """

    def __init__(self, world: GaussianWorld, schedule: NoiseSchedule, conditional=True):
        self.world = world
        self.schedule = schedule
        self.shape = (world.n_frames, world.frame_dim)
        self.conditional = bool(conditional)

    def leak(self, t) -> float:
        """The blend l(t) toward the condition: none here."""
        return 0.0

    def step_map(self, t, t_to=0.0):
        """The read-only (N, N + 2) W = [M | c | beta] of the DDIM step
        x_to = M xt + c y^T + beta drift^T from t down to t_to; t_to = 0
        is the prediction map [A | c | beta].  t is checked before the leak
        l(t), which overflows at large t; the step's times in ddim_coefficients."""
        t = check_start(t, "exact prediction time t")
        return _affine_map(self.world, self.conditional, self.schedule, self.leak(t),
                           t, float(t_to))

    def predict_x0(self, xt, y, t):
        check_choice(np.shape(t), "exact prediction time t's shape", ((),))
        if self.conditional and y is None:
            raise ValueError("conditional denoiser needs a conditioning frame")
        n = self.shape[0]
        xt, y = _check_denoiser_inputs(
            self.shape, xt, y if self.conditional else self.world.m0)
        w = self.step_map(t)
        out = w[:, :n] @ xt
        out += w[:, n:n + 1] * y[..., None, :]
        out += w[:, n + 1:] * self.world.drift
        return out


@functools.lru_cache(maxsize=TIME_CACHE_SIZE)
def _affine_map(world, conditional, schedule, leak, t, t_to):
    """The read-only W = [M | c | beta] of one DDIM step x_to = M xt +
    c y^T + beta drift^T from t down to t_to, for the leak value l = leak(t).

    t_to = 0 is the prediction x0_hat = W0 [xt; y^T; drift^T] itself,
    which predict_x0 reads: W0 = solve(S, [alpha C | sigma^2 1 | sigma^2 i])
    with S = alpha^2 C + sigma^2 I for the world's C, pinned at frame 1
    when conditional, and i the frame indices, then blended into
    (1 - l) W0 + l [0 | 1 | 0].  A step is k W0 + r [I | 0 | 0] for (k, r)
    = ddim_coefficients(schedule, t, t_to), unless its r = 0 marks W0.
    """
    k, r = ddim_coefficients(schedule, t, t_to)
    n = world.n_frames
    alpha, sigma = alpha_sigma(schedule, t)
    cov = prior_frame_cov(replace(world, s0=0.0) if conditional else world)
    basis = np.stack((np.ones(n), np.arange(n, dtype=np.float64)), axis=1)
    w = np.linalg.solve(alpha**2 * cov + sigma**2 * np.eye(n),
                        np.hstack((alpha * cov, sigma**2 * basis)))
    w *= 1.0 - leak
    w[:, n] += leak
    if r != 0.0:
        w *= k
        w[:, :n] += r * np.eye(n)
    w.flags.writeable = False
    return w


class LeakyDenoiser(ExactDenoiser):
    """Exact conditional denoiser blended toward a static copy of y0.

    x0_hat = (1 - lam(t)) * exact + lam(t) * broadcast(y0) with
    lam(t) = lam_max * t^p: no leak at t=0, maximal leak at t=1.  The
    blend is part of the cached affine map, so predict_x0 is inherited.
    """

    def __init__(self, world, schedule, lam_max: float, p: float):
        super().__init__(world, schedule, conditional=True)
        self.lam_max = float(check_range(lam_max, "lam_max", 0.0, 1.0))
        self.p = float(check_range(p, "p", 0.0, low_open=True))

    def leak(self, t) -> float:
        return self.lam_max * float(t) ** self.p
