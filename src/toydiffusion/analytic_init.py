"""Optimal Gaussian initialization for early-start sampling.

Reverse sampling that starts at time M < 1 should begin from the true
marginal q_M of X_M, but samplers only have isotropic Gaussians to offer.
Among all N(mu_p, sigma_p^2 I), the KL-closest one to q_M has

    mu_p*     = alpha_M E[X_0]
    sigma_p*^2 = alpha_M^2 avgVar(X_0) + sigma_M^2

where avgVar is the per-coordinate variance averaged over the flattened
dimension.  This module provides that optimum, method-of-moments
estimation of E[X_0]/avgVar, the exact Gaussian KL it minimizes, and a
brute-force grid verifier of the optimality claim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schedule import NoiseSchedule, VP, alpha_sigma
from .world import GaussianWorld, prior_moments


@dataclass(frozen=True, eq=False)
class InitDistribution:
    """Isotropic Gaussian N(mu_p, sigma_p2 I) used to start sampling at time M."""

    mu_p: np.ndarray
    sigma_p2: float
    M: float

    def __post_init__(self) -> None:
        mu = np.asarray(self.mu_p, dtype=np.float64).ravel()
        if not np.all(np.isfinite(mu)):
            raise ValueError("mu_p must be finite")
        if not self.sigma_p2 > 0.0:
            raise ValueError("sigma_p2 must be positive")
        if not 0.0 < self.M <= 1.0:
            raise ValueError("M must lie in (0, 1]")
        object.__setattr__(self, "mu_p", mu)


@dataclass(frozen=True, eq=False)
class DataMoments:
    """First and (averaged) second moments of the clean-data distribution.

    avg_var is the population variance averaged over all flattened
    coordinates; n_samples = 0 marks closed-form (not estimated) moments.
    """

    mean: np.ndarray
    avg_var: float
    n_samples: int

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "mean", np.asarray(self.mean, dtype=np.float64).ravel()
        )
        if self.avg_var < 0.0:
            raise ValueError("avg_var must be nonnegative")


def estimate_moments(samples) -> DataMoments:
    """Method-of-moments plug-in from a stack or sequence of equal-shape videos."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim < 2 or arr.shape[0] < 2:
        raise ValueError("need at least 2 samples to estimate moments")
    flat = arr.reshape(arr.shape[0], -1)
    mean = flat.mean(axis=0)
    avg_var = float(flat.var(axis=0).mean())  # population variance, divisor n
    return DataMoments(mean=mean, avg_var=avg_var, n_samples=arr.shape[0])


def exact_moments(world: GaussianWorld) -> DataMoments:
    """Closed-form moments of a Gaussian world (avg_var = tr(C)/N)."""
    mean, frame_cov = prior_moments(world)
    return DataMoments(
        mean=mean, avg_var=float(np.trace(frame_cov) / world.n_frames), n_samples=0
    )


def optimal_init(moments: DataMoments, schedule: NoiseSchedule, M: float):
    """KL-optimal isotropic Gaussian against the time-M marginal."""
    if not 0.0 < M <= 1.0:
        raise ValueError("M must lie in (0, 1]")
    alpha, sigma = alpha_sigma(schedule, M)
    return InitDistribution(
        mu_p=alpha * moments.mean,
        sigma_p2=alpha**2 * moments.avg_var + sigma**2,
        M=M,
    )


def standard_init(schedule: NoiseSchedule, M: float, flat_dim: int):
    """The conventional start: N(0, I) for vp schedules, N(0, sigma_M^2 I) for ve."""
    if schedule.kind == VP:
        sigma_p2 = 1.0
    else:
        _, sigma = alpha_sigma(schedule, M)
        sigma_p2 = sigma**2
    return InitDistribution(mu_p=np.zeros(flat_dim), sigma_p2=sigma_p2, M=M)


def gaussian_kl(mu_q, frame_cov, init: InitDistribution) -> float:
    """Exact KL(N(mu_q, C (x) I_k) || N(mu_p, sigma_p2 I)) for an N x N frame
    factor C and k = D / N, D = mu_q.size (a full covariance is k = 1):
    0.5 [ ||mu_p - mu_q||^2 / s2 + D log s2 + k tr(C)/s2 - k log det C - D ].
    Raises np.linalg.LinAlgError when C is not positive definite.
    """
    mu_q = np.asarray(mu_q, dtype=np.float64).ravel()
    frame_cov = np.asarray(frame_cov, dtype=np.float64)
    d, n = mu_q.size, len(frame_cov)
    if frame_cov.shape != (n, n) or not n or d % n or init.mu_p.size != d:
        raise ValueError("dimension mismatch between q moments and init")
    k = d // n
    chol = np.linalg.cholesky(frame_cov)
    logdet_q = 2.0 * k * float(np.sum(np.log(np.diag(chol))))
    diff = init.mu_p - mu_q
    s2 = init.sigma_p2
    return 0.5 * (
        float(diff @ diff) / s2
        + d * np.log(s2)
        + k * float(np.trace(frame_cov)) / s2
        - logdet_q
        - d
    )


def verify_optimality(mu_q, frame_cov, init: InitDistribution) -> dict:
    """Brute-force check that `init` minimizes the KL over a fixed grid.

    The q moments mu_q and frame factor C are read as in gaussian_kl.  The
    9 x 9 cells rescale the variance by kappa in geomspace(0.5, 2, 9) and
    shift the mean by linspace(-1, 1, 9) along 1/sqrt(D); the cell
    (kappa=1, shift=0) is the candidate optimum, and every other cell must
    exceed its KL by more than 1e-9.  Also cross-checks the stationarity
    formula sigma_p2 = (k tr(C) + ||mu_p - mu_q||^2) / D to 1e-10.
    """
    kl_opt = gaussian_kl(mu_q, frame_cov, init)  # also checks the shapes
    mu_q = np.asarray(mu_q, dtype=np.float64).ravel()
    d, k = mu_q.size, mu_q.size // len(frame_cov)
    kappas = np.geomspace(0.5, 2.0, 9)  # symmetric in log, includes 1
    delta_scales = np.linspace(-1.0, 1.0, 9)
    direction = np.ones(d) / np.sqrt(d)

    diff = init.mu_p - mu_q
    sigma_formula = (k * float(np.trace(frame_cov)) + float(diff @ diff)) / d
    sigma_gap = abs(init.sigma_p2 - sigma_formula)

    grid = []
    worst_margin = np.inf
    for kappa in kappas:
        for scale in delta_scales:
            perturbed = InitDistribution(
                mu_p=init.mu_p + scale * direction,
                sigma_p2=init.sigma_p2 * float(kappa),
                M=init.M,
            )
            kl = gaussian_kl(mu_q, frame_cov, perturbed)
            at_optimum = bool(kappa == 1.0) and bool(scale == 0.0)
            grid.append(
                {
                    "kappa": float(kappa),
                    "delta_scale": float(scale),
                    "kl": kl,
                    "at_optimum": at_optimum,
                }
            )
            if not at_optimum:
                worst_margin = min(worst_margin, kl - kl_opt)

    passed = bool(worst_margin > 1e-9 and sigma_gap <= 1e-10)
    return {
        "M": float(init.M),
        "sigma_p2": float(init.sigma_p2),
        "kl_at_optimum": kl_opt,
        "grid": grid,
        "margin": float(worst_margin),
        "sigma_formula_gap": float(sigma_gap),
        "passed": passed,
    }
