"""Time-dependent logit-normal corruption of the conditioning frame.

The corruption level beta_s is drawn from a logit-normal distribution on
(0, beta_m) whose center mu(t) = 2 t**a - 1 moves with diffusion time, so
late (noisy) times see strongly corrupted conditioning while early times see
it nearly clean.  One corruption operator applies a level in one of two
variants: additive (y_s = y0 + beta_s * eps) and interpolating
(y_s = (1 - beta_s) y0 + beta_s * eps, which requires beta_m = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logit

from .schedule import _per_item

ADDITIVE = "additive"
INTERPOLATION = "interpolation"


@dataclass(frozen=True)
class TimeNoiseParams:
    """Hyperparameters of the conditioning-corruption distribution.

    beta_m is the maximum noise level, a the exponent of the center curve
    mu(t) = 2 t**a - 1.  The spread of the underlying normal is fixed at 1.
    """

    beta_m: float
    a: float
    variant: str = ADDITIVE

    def __post_init__(self) -> None:
        if not self.beta_m > 0.0:
            raise ValueError("beta_m must be positive")
        if not self.a > 0.0:
            raise ValueError("exponent a must be positive")
        if self.variant not in (ADDITIVE, INTERPOLATION):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == INTERPOLATION and self.beta_m != 1.0:
            raise ValueError("interpolation variant requires beta_m = 1")


def mu_of_t(params: TimeNoiseParams, t):
    """Center of the logit-normal at time t: 2 t**a - 1, from -1 up to 1."""
    t = np.asarray(t, dtype=np.float64)
    if (t < 0.0).any() or (t > 1.0).any():
        raise ValueError("time must lie in [0, 1]")
    out = 2.0 * t**params.a - 1.0
    return float(out) if out.ndim == 0 else out


def pdf(params: TimeNoiseParams, t, beta_s):
    """Density of beta_s at time t; defined on the open interval (0, beta_m)."""
    beta_s = np.asarray(beta_s, dtype=np.float64)
    if np.any(beta_s <= 0.0) or np.any(beta_s >= params.beta_m):
        raise ValueError("beta_s must lie strictly inside (0, beta_m)")
    mu = mu_of_t(params, t)
    z = logit(beta_s / params.beta_m) - mu
    out = (
        params.beta_m
        / math.sqrt(2.0 * math.pi)
        / (beta_s * (params.beta_m - beta_s))
        * np.exp(-0.5 * z * z)
    )
    return float(out) if out.ndim == 0 else out


def sample_beta(params: TimeNoiseParams, t, rng: np.random.Generator, size=None):
    """Draw beta_s = beta_m * sigmoid(z) with z ~ Normal(mu(t), 1)."""
    noise = rng.standard_normal(size if size is not None else np.shape(t))
    out = beta_from_noise(params, t, noise)
    if np.ndim(out) == 0:
        return float(out)
    return out


def beta_from_noise(params: TimeNoiseParams, t, noise):
    """The level beta_m * sigmoid(mu(t) + noise) for standard normal noise."""
    return params.beta_m * expit(mu_of_t(params, t) + noise)


def constant_beta(params: TimeNoiseParams, t):
    """Deterministic baseline level beta_m * (mu(t) + 1) / 2."""
    mu = mu_of_t(params, t)
    out = params.beta_m * (mu + 1.0) / 2.0
    return float(out) if np.ndim(out) == 0 else out


def corrupt(y0, beta_s, rng: np.random.Generator, variant: str = ADDITIVE):
    """Corrupt conditioning frames at level beta_s.

    Additive: y0 + beta_s * eps; interpolation: (1 - beta_s) y0 + beta_s * eps.
    beta_s is a scalar or one level per row of y0.  An all-zero level
    applies no noise, consumes no randomness and returns a copy of y0.
    """
    y0 = np.asarray(y0, dtype=np.float64)
    beta_s = _per_item(beta_s, y0)
    if (beta_s == 0.0).all():
        return y0.copy()
    return corrupt_with_noise(y0, beta_s, rng.standard_normal(y0.shape), variant)


def corrupt_with_noise(y0, beta_s, eps, variant: str):
    """corrupt's arithmetic for given standard normals eps shaped like y0;
    beta_s is a scalar or a level per row shaped to broadcast against y0."""
    if variant == INTERPOLATION:
        return (1.0 - beta_s) * y0 + beta_s * eps
    return y0 + beta_s * eps
