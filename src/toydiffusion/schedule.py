"""Continuous-time noise schedules and the forward perturbation kernel.

Two schedule families on normalized time t in [0, 1]:

* variance preserving ("vp"): alpha_t = exp(-t^2 (b_max - b_min)/4 - t b_min/2)
  with sigma_t = sqrt(1 - alpha_t^2), so alpha_t^2 + sigma_t^2 = 1;
* variance exploding ("ve"): alpha_t = 1 and sigma_t geometric between
  sigma_min and sigma_max.

The forward kernel corrupts clean data x0 into x_t = alpha_t x0 + sigma_t eps
with standard normal eps, and x0_from_eps inverts it, both at one time t or
one per leading item.  _per_item is the rule for such a per-item coefficient.

alpha_sigma at a Python-float time (which includes np.float64) is cached:
the pair is computed once per distinct (schedule, t) key, by the same
expression as the array path, in a least-recently-used cache of
TIME_CACHE_SIZE entries.  NoiseSchedule is a frozen dataclass, so it is a
sound key.  An invalid time is not cached and raises on every call; array
times are never cached.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .codec import check_choice, check_range

VP = "vp"
VE = "ve"

#: Entries of every per-time cache: the scalar alpha_sigma pairs here and
#: the exact family's affine maps in world, one cache each.  A K-step
#: exact-family run keeps K maps, one per step, the last of them the
#: prediction map: 200 at K = 200, the longest grid in use.
TIME_CACHE_SIZE = 1024


@dataclass(frozen=True)
class NoiseSchedule:
    """Coefficient pair (alpha_t, sigma_t) of the forward process.

    For kind "vp" the rate is linear between beta_min and beta_max; for kind
    "ve" the noise level interpolates geometrically between sigma_min and
    sigma_max.  Defaults are the community-standard constants.
    """

    kind: str = VP
    beta_min: float = 0.1
    beta_max: float = 20.0
    sigma_min: float = 0.002
    sigma_max: float = 700.0

    def __post_init__(self) -> None:
        check_choice(self.kind, "kind", (VP, VE))
        for name in ("beta_min", "beta_max", "sigma_min", "sigma_max"):
            check_range(getattr(self, name), name)
        if self.kind == VP and not 0.0 < self.beta_min < self.beta_max:
            raise ValueError("vp schedule requires 0 < beta_min < beta_max")
        if self.kind == VE and not 0.0 < self.sigma_min < self.sigma_max:
            raise ValueError("ve schedule requires 0 < sigma_min < sigma_max")
        if self.kind == VE and not math.isfinite(self.sigma_max * self.sigma_max):
            raise ValueError(f"sigma_max's square must be finite, got {self.sigma_max!r}")

    @classmethod
    def vp(cls, beta_min: float = beta_min, beta_max: float = beta_max):
        return cls(kind=VP, beta_min=beta_min, beta_max=beta_max)

    @classmethod
    def ve(cls, sigma_min: float = sigma_min, sigma_max: float = sigma_max):
        return cls(kind=VE, sigma_min=sigma_min, sigma_max=sigma_max)


def check_start(t, name: str) -> float:
    """float(t) for a time a run starts at or a denoiser is asked at, in (0, 1]."""
    return check_range(float(t), name, 0.0, 1.0, low_open=True)


def alpha_sigma(schedule: NoiseSchedule, t):
    """Return (alpha_t, sigma_t) for scalar or array t in [0, 1]; a float t
    is looked up in the per-(schedule, t) cache."""
    if isinstance(t, float):
        return _cached_alpha_sigma(schedule, t)
    return _alpha_sigma(schedule, t)


def _alpha_sigma(schedule: NoiseSchedule, t):
    t = check_range(np.asarray(t, dtype=np.float64), "time", 0.0, 1.0)
    if schedule.kind == VP:
        log_alpha = -0.25 * t * t * (schedule.beta_max - schedule.beta_min) \
            - 0.5 * t * schedule.beta_min
        alpha = np.exp(log_alpha)
        sigma = np.sqrt(np.maximum(0.0, 1.0 - alpha * alpha))
    else:
        alpha = np.ones_like(t)
        sigma = schedule.sigma_min * (schedule.sigma_max / schedule.sigma_min) ** t
    if t.ndim == 0:
        return float(alpha), float(sigma)
    return alpha, sigma


_cached_alpha_sigma = functools.lru_cache(maxsize=TIME_CACHE_SIZE)(_alpha_sigma)


def sigma_to_t(schedule: NoiseSchedule, sigma):
    """Invert sigma_t, clamping to [0, 1] outside the schedule's range.

    Used by the log-normal training-time sampler, which draws a noise level
    and needs the time at which the schedule attains it.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    if schedule.kind == VE:
        ratio = math.log(schedule.sigma_max / schedule.sigma_min)
        t = np.log(np.maximum(sigma, 1e-300) / schedule.sigma_min) / ratio
    else:
        # sigma^2 = 1 - alpha^2 with -log alpha quadratic in t; solve the
        # quadratic for the positive root.
        s2 = np.clip(sigma * sigma, 0.0, 1.0 - 1e-15)
        level = -0.5 * np.log1p(-s2)
        a = 0.25 * (schedule.beta_max - schedule.beta_min)
        b = 0.5 * schedule.beta_min
        t = (-b + np.sqrt(b * b + 4.0 * a * level)) / (2.0 * a)
    t = np.clip(t, 0.0, 1.0)
    if t.ndim == 0:
        return float(t)
    return t


def perturb(schedule: NoiseSchedule, x0: np.ndarray, t, rng: np.random.Generator,
            out=None):
    """Corrupt clean data: x_t = alpha_t x0 + sigma_t eps.

    Returns (x_t, eps) so callers can form regression targets from the
    noise that was actually drawn.  t may be a scalar or a vector with one
    entry per leading item of x0.  out, when given, is three C-contiguous
    arrays shaped like x0: x_t and eps are written into the first two and
    sigma_t eps into the third; otherwise they are new arrays.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    xt, eps, scaled = out if out is not None else (np.empty(x0.shape), None, None)
    eps = rng.standard_normal(x0.shape, out=eps)
    alpha, sigma = alpha_sigma(schedule, t)
    np.multiply(_per_item(alpha, x0), x0, out=xt)
    xt += np.multiply(_per_item(sigma, x0), eps, out=scaled)
    return xt, eps


def x0_from_eps(eps_hat, xt, schedule: NoiseSchedule, t):
    """Invert the kernel: x0 = (xt - sigma_t eps) / alpha_t, t as in perturb."""
    xt = np.asarray(xt, dtype=np.float64)
    alpha, sigma = alpha_sigma(schedule, t)
    return (xt - _per_item(sigma, xt) * eps_hat) / _per_item(alpha, xt)


def ddim_coefficients(schedule: NoiseSchedule, t_from, t_to):
    """(k, r) of the DDIM step x_to = k x0_hat + r x_from from a t_from with noise:
    r = sigma_to / sigma_from and k = alpha_to - r alpha_from, with r = 0, (1, 0),
    exactly when the step is the prediction: at t_to = 0 or where sigma_to is 0."""
    if not 0.0 <= t_to <= t_from <= 1.0:
        raise ValueError("need 0 <= t_to <= t_from <= 1")
    a_from, s_from = alpha_sigma(schedule, t_from)
    if s_from == 0.0:
        raise ValueError(f"no noise to remove at t_from = {t_from:g}: sigma rounds to 0")
    if t_to == 0.0:  # VE's sigma(0) is sigma_min, not 0
        return 1.0, 0.0
    a_to, s_to = alpha_sigma(schedule, t_to)
    r = s_to / s_from
    return a_to - r * a_from, r


def _per_item(coef, x: np.ndarray):
    """A scalar coefficient as is, or one per leading item of x (coef.shape
    = x.shape[:coef.ndim]) shaped to broadcast."""
    coef = np.asarray(coef)
    if coef.ndim == 0:
        return coef
    if coef.shape != x.shape[:coef.ndim]:
        raise ValueError(f"per-item coefficient has {coef.size} entries "
                         f"for a batch of {math.prod(x.shape[:coef.ndim])}")
    return coef.reshape(coef.shape + (1,) * (x.ndim - coef.ndim))
