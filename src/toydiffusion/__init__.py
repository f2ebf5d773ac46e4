"""Desk-scale numerical laboratory for conditional diffusion on Gaussian
toy videos: exact schedules and Bayes denoisers, time-dependent condition
corruption, KL-optimal early-start initialization, DDIM sampling, a tiny
trainable noise predictor, and motion-leakage diagnostics."""

__version__ = "0.1.0"

from .schedule import (
    NoiseSchedule,
    VE,
    VP,
    alpha_sigma,
    perturb,
    sigma_to_t,
    x0_from_eps,
)
from .timenoise import (
    TimeNoiseParams,
    constant_beta,
    corrupt,
    mu_of_t,
    pdf,
    sample_beta,
)
from .world import (
    ExactDenoiser,
    FrameGaussian,
    GaussianWorld,
    LeakyDenoiser,
    conditional_moments,
    expected_motion_score,
    kron_cov,
    marginal_moments_at,
    prior_frame_cov,
    prior_moments,
    sample_videos,
)
from .analytic_init import (
    DataMoments,
    InitDistribution,
    estimate_moments,
    exact_moments,
    gaussian_kl,
    optimal_init,
    standard_init,
    verify_optimality,
)
from .train import (
    MLPDenoiser,
    TrainConfig,
    TrainedDenoiser,
    TrainingDiverged,
    batch_loss,
    batch_loss_and_gradient,
    load_checkpoint,
    make_training_batch,
    sample_training_times,
    save_checkpoint,
    train,
)
from .sampler import (
    SamplerConfig,
    SamplerDiverged,
    ddim_step,
    draw_initial,
    sample_batch,
    time_grid,
)
from .diagnostics import (
    LeakageCurve,
    OracleEps,
    conditional_moment_errors,
    init_ablation,
    leakage_curve,
    motion_scores,
    motion_sweep,
    one_step_prediction,
)
from .codec import (ConfigError, config_digest, from_payload, to_payload, write_csv,
                    write_manifest)
from .cli import ExperimentConfig, load_config
