"""Continuous-time noise schedules and the forward perturbation kernel.

Two schedule families on normalized time t in [0, 1]:

* variance preserving ("vp"): alpha_t = exp(-t^2 (b_max - b_min)/4 - t b_min/2)
  with sigma_t = sqrt(1 - alpha_t^2), so alpha_t^2 + sigma_t^2 = 1;
* variance exploding ("ve"): alpha_t = 1 and sigma_t geometric between
  sigma_min and sigma_max.

The forward kernel corrupts clean data x0 into x_t = alpha_t x0 + sigma_t eps
with standard normal eps.

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

VP = "vp"
VE = "ve"

#: Terminal time of the forward process; time is normalized.
T_FINAL = 1.0

#: Entries of every per-time cache: the scalar alpha_sigma pairs here and
#: the exact family's affine maps in world, one cache each.  The longest
#: sampler grid in use has 201 times; an exact-family run on it keeps a
#: prediction map and a step map per step, about 400 maps.
TIME_CACHE_SIZE = 1024


@dataclass(frozen=True)
class NoiseSchedule:
    """Coefficient pair (alpha_t, sigma_t) of the forward process.

    For kind "vp" the rate is linear between beta_min and beta_max; for kind
    "ve" the noise level interpolates geometrically between sigma_min and
    sigma_max.  Defaults are the community-standard constants.
    """

    kind: str
    beta_min: float = 0.1
    beta_max: float = 20.0
    sigma_min: float = 0.002
    sigma_max: float = 700.0

    def __post_init__(self) -> None:
        if self.kind not in (VP, VE):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        for name in ("beta_min", "beta_max", "sigma_min", "sigma_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.kind == VP and not 0.0 < self.beta_min < self.beta_max:
            raise ValueError("vp schedule requires 0 < beta_min < beta_max")
        if self.kind == VE and not 0.0 < self.sigma_min < self.sigma_max:
            raise ValueError("ve schedule requires 0 < sigma_min < sigma_max")

    @classmethod
    def vp(cls, beta_min: float = 0.1, beta_max: float = 20.0) -> "NoiseSchedule":
        return cls(kind=VP, beta_min=beta_min, beta_max=beta_max)

    @classmethod
    def ve(cls, sigma_min: float = 0.002, sigma_max: float = 700.0) -> "NoiseSchedule":
        return cls(kind=VE, sigma_min=sigma_min, sigma_max=sigma_max)


def _check_time(t) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    if not ((t >= 0.0) & (t <= T_FINAL)).all():  # NaN fails both
        raise ValueError(f"time must lie in [0, {T_FINAL}], got {t!r}")
    return t


def alpha_sigma(schedule: NoiseSchedule, t):
    """Return (alpha_t, sigma_t) for scalar or array t in [0, 1]; a float t
    is looked up in the per-(schedule, t) cache."""
    if isinstance(t, float):
        return _cached_alpha_sigma(schedule, t)
    return _alpha_sigma(schedule, t)


def _alpha_sigma(schedule: NoiseSchedule, t):
    t = _check_time(t)
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
    t = np.clip(t, 0.0, T_FINAL)
    if t.ndim == 0:
        return float(t)
    return t


def perturb(schedule: NoiseSchedule, x0: np.ndarray, t, rng: np.random.Generator):
    """Corrupt clean data: x_t = alpha_t x0 + sigma_t eps.

    Returns (x_t, eps) so callers can form regression targets from the
    noise that was actually drawn.  t may be a scalar or a vector with one
    entry per leading item of x0.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    eps = rng.standard_normal(x0.shape)
    return perturb_with_noise(schedule, x0, t, eps), eps


def perturb_with_noise(schedule: NoiseSchedule, x0: np.ndarray, t, eps):
    """x_t = alpha_t x0 + sigma_t eps for given standard normals eps."""
    alpha, sigma = alpha_sigma(schedule, t)
    alpha, sigma = _per_item(alpha, x0), _per_item(sigma, x0)
    xt = alpha * x0
    xt += sigma * eps
    return xt


def _per_item(coef, x: np.ndarray):
    """Reshape a per-item coefficient vector to broadcast against x."""
    coef = np.asarray(coef)
    if coef.ndim == 0:
        return coef
    if coef.shape[0] != x.shape[0]:
        raise ValueError("per-item coefficient length does not match batch")
    return coef.reshape((-1,) + (1,) * (x.ndim - 1))
