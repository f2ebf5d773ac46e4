"""Optimal Gaussian initialization for early-start sampling.

Reverse sampling that starts at time M < 1 should begin from the true
marginal q_M of X_M, but samplers only have isotropic Gaussians to offer.
Among all N(mu_p, sigma_p^2 I), the KL-closest one to q_M has

    mu_p*     = alpha_M E[X_0]
    sigma_p*^2 = alpha_M^2 avgVar(X_0) + sigma_M^2

where avgVar is the per-coordinate variance averaged over the flattened
dimension.  This module provides that optimum, method-of-moments
estimation of E[X_0]/avgVar, the exact Gaussian KL it minimizes, and a
brute-force grid verifier of the optimality claim.  The KL and the
verifier read q_M as a world.FrameGaussian, an (N, d) mean with an N x N
frame factor; a dense Gaussian on R^D is its (D, 1) case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import check_range
from .schedule import NoiseSchedule, VP, alpha_sigma, check_start, ddim_coefficients
from .world import FrameGaussian, GaussianWorld, prior_moments


@dataclass(frozen=True, eq=False)
class InitDistribution:
    """Isotropic Gaussian N(mu_p, sigma_p2 I) used to start sampling at time M."""

    mu_p: np.ndarray
    sigma_p2: float
    M: float

    def __post_init__(self) -> None:
        mu = check_range(np.asarray(self.mu_p, dtype=np.float64).ravel(), "mu_p")
        check_range(self.sigma_p2, "sigma_p2", 0.0, low_open=True)
        check_start(self.M, "M")
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
        mean = check_range(np.asarray(self.mean, dtype=np.float64).ravel(), "mean")
        check_range(self.avg_var, "avg_var", 0.0)
        object.__setattr__(self, "mean", mean)


def estimate_moments(samples) -> DataMoments:
    """Method-of-moments plug-in from a stack or sequence of equal-shape videos;
    finite samples whose moments overflow are rejected by DataMoments."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim < 2 or arr.shape[0] < 2:
        raise ValueError("need at least 2 samples to estimate moments")
    flat = arr.reshape(arr.shape[0], -1)
    with np.errstate(over="ignore", invalid="ignore"):
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
    """KL-optimal isotropic Gaussian against the time-M marginal, at an M
    where a step may start, by ddim_coefficients."""
    ddim_coefficients(schedule, check_start(M, "M"), 0.0)
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


def gaussian_kl(q: FrameGaussian, init: InitDistribution) -> float:
    """Exact KL(q || N(mu_p, sigma_p2 I)) for the law q = N(mean, C (x) I_k)
    of an (N, k) array, D = N k (a dense law is the k = 1 case):
    0.5 [ ||mu_p - mean||^2 / s2 + D log s2 + k tr(C)/s2 - k log det C - D ].
    Raises np.linalg.LinAlgError when C is not positive definite.
    """
    mean, cov = (np.asarray(a, dtype=np.float64) for a in q)
    if mean.ndim != 2 or cov.shape != (len(mean),) * 2 or init.mu_p.size != mean.size:
        raise ValueError("dimension mismatch between q moments and init")
    d, k = mean.size, mean.shape[1]
    chol = np.linalg.cholesky(cov)
    logdet_q = 2.0 * k * float(np.sum(np.log(np.diag(chol))))
    diff = init.mu_p - mean.ravel()
    s2 = init.sigma_p2
    return 0.5 * (
        float(diff @ diff) / s2
        + d * np.log(s2)
        + k * float(np.trace(cov)) / s2
        - logdet_q
        - d
    )


def verify_optimality(q: FrameGaussian, init: InitDistribution) -> dict:
    """Brute-force check that `init` minimizes the KL to q over a fixed grid.

    The 9 x 9 cells rescale the variance by kappa in geomspace(0.5, 2, 9) and
    shift the mean by delta_scale sqrt(sigma_p2), delta_scale in
    linspace(-1, 1, 9), along 1/sqrt(D), so the grid's KL changes do not
    depend on the world's scale.  The cell (kappa=1, delta_scale=0) is the
    candidate optimum, and every other cell must exceed its KL by more than
    1e-9.  Also cross-checks the stationarity formula sigma_p2 = (k tr(C) +
    ||mu_p - mean||^2) / D to 1e-10 relative to sigma_p2.
    """
    kl_opt = gaussian_kl(q, init)  # also checks the shapes
    d, k = q.mean.size, q.mean.shape[1]
    kappas = np.geomspace(0.5, 2.0, 9)  # symmetric in log, includes 1
    delta_scales = np.linspace(-1.0, 1.0, 9)
    direction = np.ones(d) * np.sqrt(init.sigma_p2 / d)  # length sqrt(sigma_p2)

    diff = init.mu_p - q.mean.ravel()
    sigma_formula = (k * float(np.trace(q.cov)) + float(diff @ diff)) / d
    sigma_gap = abs(init.sigma_p2 - sigma_formula) / init.sigma_p2

    grid = []
    worst_margin = np.inf
    for kappa in kappas:
        for scale in delta_scales:
            perturbed = InitDistribution(
                mu_p=init.mu_p + scale * direction,
                sigma_p2=init.sigma_p2 * float(kappa),
                M=init.M,
            )
            kl = gaussian_kl(q, perturbed)
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
