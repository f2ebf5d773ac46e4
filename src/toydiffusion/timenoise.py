"""Time-dependent logit-normal corruption of the conditioning frame.

The corruption level beta_s is drawn from a logit-normal distribution on
(0, beta_m) whose center mu(t) = 2 t**a - 1 moves with diffusion time, so
late (noisy) times see strongly corrupted conditioning while early times see
it nearly clean.  One corruption operator applies one level, or one per row
of y0 by schedule._per_item, in one of two variants: additive
(y_s = y0 + beta_s * eps) and interpolating (y_s = (1 - beta_s) y0 +
beta_s * eps, which requires beta_m = 1).  sample_beta takes expit from
special, which matches the compiled reference bit for bit, so TimeNoise
training runs on numpy alone; pdf takes its log-odds from numpy's log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import check_choice, check_range
from .schedule import _per_item
from .special import expit

ADDITIVE = "additive"
INTERPOLATION = "interpolation"


@dataclass(frozen=True)
class TimeNoiseParams:
    """Hyperparameters of the conditioning-corruption distribution.

    beta_m is the maximum noise level, a the exponent of the center curve
    mu(t) = 2 t**a - 1.  The spread of the underlying normal is fixed at 1.
    """

    beta_m: float = 2.0
    a: float = 5.0
    variant: str = ADDITIVE

    def __post_init__(self) -> None:
        for name in ("beta_m", "a"):
            check_range(getattr(self, name), name, 0.0, low_open=True)
        check_choice(self.variant, "variant", (ADDITIVE, INTERPOLATION))
        if self.variant == INTERPOLATION and self.beta_m != 1.0:
            raise ValueError("interpolation variant requires beta_m = 1")


def mu_of_t(params: TimeNoiseParams, t):
    """Center of the logit-normal at time t: 2 t**a - 1, from -1 up to 1."""
    t = check_range(np.asarray(t, dtype=np.float64), "time", 0.0, 1.0)
    out = 2.0 * t**params.a - 1.0
    return float(out) if out.ndim == 0 else out


def pdf(params: TimeNoiseParams, t, beta_s):
    """Density of beta_s at time t; defined on the open interval (0, beta_m)."""
    beta_s = check_range(np.asarray(beta_s, dtype=np.float64), "beta_s", 0.0,
                         params.beta_m, low_open=True, high_open=True)
    mu = mu_of_t(params, t)
    z = np.log(beta_s / (params.beta_m - beta_s)) - mu
    out = (
        params.beta_m
        / math.sqrt(2.0 * math.pi)
        / (beta_s * (params.beta_m - beta_s))
        * np.exp(-0.5 * z * z)
    )
    return float(out) if out.ndim == 0 else out


def sample_beta(params: TimeNoiseParams, t, rng: np.random.Generator, size=None):
    """Draw beta_s = beta_m * sigmoid(z) with z ~ Normal(mu(t), 1)."""
    mu = mu_of_t(params, t)
    noise = rng.standard_normal(size if size is not None else np.shape(t))
    out = params.beta_m * expit(mu + noise)
    return float(out) if out.ndim == 0 else out


def constant_beta(params: TimeNoiseParams, t):
    """Deterministic baseline level beta_m * (mu(t) + 1) / 2."""
    return params.beta_m * (mu_of_t(params, t) + 1.0) / 2.0


def corrupt(y0, beta_s, rng: np.random.Generator, variant: str = ADDITIVE):
    """Corrupt conditioning frames at level beta_s.

    Additive: y0 + beta_s * eps; interpolation: (1 - beta_s) y0 + beta_s * eps.
    beta_s is a scalar or one level per row of y0.  Every call draws eps,
    one standard normal per entry of y0, whatever the level; a caller that
    wants no noise at all skips the call.
    """
    check_choice(variant, "variant", (ADDITIVE, INTERPOLATION))
    y0 = np.asarray(y0, dtype=np.float64)
    beta_s = _per_item(beta_s, y0)
    eps = rng.standard_normal(y0.shape)
    if variant == INTERPOLATION:
        return (1.0 - beta_s) * y0 + beta_s * eps
    return y0 + beta_s * eps
