import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import toydiffusion as td
from toydiffusion.analytic_init import InitDistribution, exact_moments, optimal_init
from toydiffusion.cli import DiagnosticsConfig
from toydiffusion.sampler import (
    BLOCK_BYTES,
    SamplerConfig,
    SamplerDiverged,
    ddim_step,
    draw_initial,
    sample_batch,
    time_grid,
)
from toydiffusion import schedule as schedule_module
from toydiffusion import world as world_module
from toydiffusion.schedule import alpha_sigma
from toydiffusion.train import TrainedDenoiser
from toydiffusion.world import (
    ExactDenoiser,
    LeakyDenoiser,
    conditional_moments,
    kron_cov,
    prior_frame_cov,
)


def test_time_grid_endpoints():
    g = time_grid(0.9, 5)
    assert g.shape == (6,)
    assert g[0] == 0.9 and g[-1] == 0.0
    np.testing.assert_allclose(np.diff(g), -0.18, atol=1e-12)


def test_draw_initial_pairs_across_init_modes(world, vp):
    # standard and fitted starts re-use the same z-draw, so paired runs
    # differ only through the affine map
    M = 0.9
    init = optimal_init(exact_moments(world), vp, M)
    shape = (16, 8, 4)
    std = draw_initial(SamplerConfig(M, 10), vp, shape, np.random.default_rng(0))
    ana = draw_initial(
        SamplerConfig(M, 10, init=init), vp, shape, np.random.default_rng(0)
    )
    z_std = std  # vp standard start is exactly z
    z_ana = (ana - init.mu_p.reshape(8, 4)) / np.sqrt(init.sigma_p2)
    np.testing.assert_allclose(z_std, z_ana, atol=1e-12)


def test_draw_initial_ve_standard_scale(ve):
    _, sigma = alpha_sigma(ve, 1.0)
    x = draw_initial(SamplerConfig(1.0, 10), ve, (50_000, 2, 2), np.random.default_rng(1))
    assert np.std(x) == pytest.approx(sigma, rel=0.01)


@pytest.mark.parametrize("M", sorted({1.0, *DiagnosticsConfig().m_grid}))
@pytest.mark.parametrize("schedule_name", ["vp", "ve"])
def test_standard_start_is_the_old_formula(request, schedule_name, M):
    # init=None draws from standard_init; in binary64 z * sqrt(1) + 0 is z
    # and z * sqrt(fl(sigma^2)) + 0 is sigma z, bit for bit
    schedule = request.getfixturevalue(schedule_name)
    shape = (64, 8, 4)
    x = draw_initial(SamplerConfig(M, 10), schedule, shape, np.random.default_rng(3))
    z = np.random.default_rng(3).standard_normal(shape)
    want = z if schedule.kind == "vp" else alpha_sigma(schedule, M)[1] * z
    np.testing.assert_array_equal(x, want)


def test_ddim_step_terminal_is_prediction(world, vp):
    den = ExactDenoiser(world, vp)
    rng = np.random.default_rng(2)
    xt = rng.standard_normal((8, 4))
    y0 = np.zeros(4)
    out = ddim_step(den, xt, y0, 0.02, 0.0, vp)
    np.testing.assert_array_equal(out, den.predict_x0(xt, y0, 0.02))


def test_ddim_step_zero_width_is_identity(world, vp):
    den = ExactDenoiser(world, vp)
    xt = np.random.default_rng(3).standard_normal((8, 4))
    out = ddim_step(den, xt, np.zeros(4), 0.5, 0.5, vp)
    np.testing.assert_allclose(out, xt, atol=1e-12)
    with pytest.raises(ValueError):
        ddim_step(den, xt, np.zeros(4), 0.3, 0.5, vp)


def test_ddim_converges_to_exact_gaussian_transport(world, vp):
    # oracle: for jointly Gaussian (x0, xt) the probability-flow map has the
    # closed form mu_0 + Sigma_0^{1/2} Sigma_M^{-1/2} (x_M - mu_M); the
    # discrete sampler must approach it at first order in 1/K
    M = 0.9
    y0 = np.array([0.4, -0.2, 1.0, 0.0])
    a, s = alpha_sigma(vp, M)
    mean, frame_cov = conditional_moments(world, y0)
    mean, sig0 = mean.ravel(), kron_cov(frame_cov, 4)
    lam, vecs = np.linalg.eigh(sig0)
    lam = np.maximum(lam, 0.0)
    lam_m = a * a * lam + s * s
    transport = vecs @ np.diag(np.sqrt(lam / lam_m)) @ vecs.T

    rng = np.random.default_rng(4)
    z = rng.standard_normal((64, 32))
    x_m = a * mean + z @ (vecs @ np.diag(np.sqrt(lam_m)) @ vecs.T)
    target = mean + (x_m - a * mean) @ transport.T

    den = ExactDenoiser(world, vp)
    errs = []
    for steps in (750, 1500):
        x = x_m.reshape(64, 8, 4).copy()
        grid = time_grid(M, steps)
        for t_from, t_to in zip(grid[:-1], grid[1:]):
            x = ddim_step(den, x, y0, float(t_from), float(t_to), vp)
        errs.append(float(np.mean(np.abs(x.reshape(64, 32) - target))))
    scale = float(np.mean(np.abs(target)))
    assert errs[1] < 0.01 * scale
    assert errs[1] < 0.75 * errs[0]  # first-order step-size convergence


def test_sample_batch_shapes_and_condition_modes(world, vp):
    den = ExactDenoiser(world, vp)
    cfg = SamplerConfig(1.0, 10)
    rng = np.random.default_rng(5)
    shared = sample_batch(den, np.zeros(4), cfg, vp, 6, rng)
    assert shared.shape == (6, 8, 4)
    per_chain = sample_batch(
        den, np.zeros((6, 4)), cfg, vp, 6, np.random.default_rng(5)
    )
    np.testing.assert_allclose(shared, per_chain, atol=1e-12)
    with pytest.raises(ValueError, match=r"^condition's shape must be one of \(4,\), "
                                         r"\(6, 4\), got \(5, 4\)$"):
        sample_batch(den, np.zeros((5, 4)), cfg, vp, 6, rng)


@pytest.mark.parametrize("shape", [(1,), (6, 1)])
@pytest.mark.parametrize("name", ["exact", "leaky"])
def test_condition_of_the_wrong_width_is_rejected(world, vp, name, shape):
    # a (1,) or (n, 1) condition used to broadcast over all d coordinates
    den = (ExactDenoiser(world, vp) if name == "exact"
           else LeakyDenoiser(world, vp, 0.6, 1.5))
    y0 = np.full(shape, 2.0)
    message = re.escape(f"condition's shape must be one of (4,), (6, 4), got {shape}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        sample_batch(den, y0, SamplerConfig(1.0, 5), vp, 6, np.random.default_rng(0))
    with pytest.raises(ValueError, match=f"^{message}$"):
        den.predict_x0(np.zeros((6, 8, 4)), y0, 0.5)


def test_sample_batch_reproducible(world, vp):
    den = ExactDenoiser(world, vp)
    cfg = SamplerConfig(1.0, 25)
    a = sample_batch(den, np.ones(4), cfg, vp, 8, np.random.default_rng(6))
    b = sample_batch(den, np.ones(4), cfg, vp, 8, np.random.default_rng(6))
    np.testing.assert_array_equal(a, b)


def test_inference_beta_perturbs_condition_once(world, vp):
    den = ExactDenoiser(world, vp)
    y0 = np.zeros(4)
    noisy_cfg = SamplerConfig(1.0, 10, inference_beta=0.5)
    out = sample_batch(den, y0, noisy_cfg, vp, 4, np.random.default_rng(7))
    # replay: initial state first, then one condition draw per chain
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, 8, 4))
    y = y0 + 0.5 * rng.standard_normal((4, 4))
    grid = time_grid(1.0, 10)
    for t_from, t_to in zip(grid[:-1], grid[1:]):
        x = ddim_step(den, x, y, float(t_from), float(t_to), vp)
    np.testing.assert_allclose(out, x, atol=1e-12)


def test_single_chain_wrapper(world, vp):
    den = ExactDenoiser(world, vp)
    v = sample_batch(den, np.zeros(4), SamplerConfig(1.0, 5), vp, 1,
                     np.random.default_rng(8))[0]
    assert v.shape == (8, 4)
    assert np.all(np.isfinite(v))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sampler_divergence_detection(world, vp):
    class Bad:
        shape = (world.n_frames, world.frame_dim)
        schedule = vp

        def predict_x0(self, xt, y, t):
            return np.full_like(np.asarray(xt), np.inf)

    with pytest.raises(SamplerDiverged) as err:
        sample_batch(Bad(), np.zeros(4), SamplerConfig(1.0, 10), vp, 2,
                     np.random.default_rng(9))
    assert err.value.step == 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("per_chain", [False, True], ids=["shared", "per-chain"])
@pytest.mark.parametrize("source, schedule_name", [
    ("start", "vp"), ("condition", "vp"), ("condition", "ve"),
])
@pytest.mark.parametrize("name", ["exact", "leaky"])
def test_step_map_divergence_is_reported_at_the_replayed_step(request, world, name,
                                                              source, schedule_name,
                                                              per_chain):
    # the step and t are those at which a replay of the step maps first
    # leaves the finite range.  A start mean of 1e308 grows past it on VP
    # (VE steps contract); a huge drift and condition put the data's last
    # frame, y0 + 7 drift, past it on both schedules
    schedule = request.getfixturevalue(schedule_name)
    rng = np.random.default_rng(26)
    if source == "start":
        init = InitDistribution(mu_p=np.full(32, 1e308), sigma_p2=1.0, M=1.0)
        cfg = SamplerConfig(1.0, 50, init=init)
        y0 = rng.standard_normal((3, 4)) if per_chain else np.zeros(4)
    else:
        world = td.GaussianWorld(drift=[1.5e307, 0.0, 0.0, 0.0])
        cfg = SamplerConfig(1.0, 50)
        y0 = 1.4e308 * (rng.uniform(0.9, 1.0, (3, 4)) if per_chain else np.ones(4))
    den = EXACT_FAMILY[name](world, schedule)
    with pytest.raises(SamplerDiverged) as err:
        sample_batch(den, y0, cfg, schedule, 3, np.random.default_rng(24))
    replay = _step_map_states(den, y0, cfg, schedule, 3, np.random.default_rng(24))
    step, t_to = next((step, t_to) for step, t_to, x in replay
                      if not np.isfinite(x).all())
    assert (err.value.step, err.value.t) == (step, t_to)
    assert step > 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("schedule_name", ["vp", "ve"])
@pytest.mark.parametrize("name", ["exact", "leaky"])
def test_divergence_over_blocks_is_reported_at_the_earliest_step(request, name,
                                                                 schedule_name):
    # three blocks: a chain of the first diverges late, the second stays
    # finite and a chain of the last diverges earlier; the run reports
    # the earliest first non-finite step over all chains
    schedule = request.getfixturevalue(schedule_name)
    world = td.GaussianWorld(drift=[1.5e307, 0.0, 0.0, 0.0])
    den = EXACT_FAMILY[name](world, schedule)
    n, late, early = 2 * BLOCK + 17, 5, 2 * BLOCK + 3
    y0 = np.ones((n, 4))
    y0[late], y0[early] = 1.3e308, 1.7e308
    cfg = SamplerConfig(1.0, 50)
    with pytest.raises(SamplerDiverged) as err:
        sample_batch(den, y0, cfg, schedule, n, np.random.default_rng(27))
    first = np.full(n, cfg.steps)
    for step, t_to, x in _step_map_states(den, y0, cfg, schedule, n,
                                          np.random.default_rng(27)):
        first[(first == cfg.steps) & ~np.isfinite(x).all(axis=(1, 2))] = step
    assert first[early] < first[late] < cfg.steps
    assert (first[BLOCK:2 * BLOCK] == cfg.steps).all()
    assert err.value.step == first.min()
    assert err.value.t == time_grid(cfg.start_time, cfg.steps)[first.min() + 1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("schedule_name", ["vp", "ve"])
@pytest.mark.parametrize("name", ["exact", "leaky"])
def test_divergence_after_a_finite_block_is_reported_at_the_earliest_step(request, name,
                                                                          schedule_name):
    # the first block stays finite, so its rows already hold end states; a
    # chain of the second diverges late and a chain of the third earlier,
    # and the run reports the third's step
    schedule = request.getfixturevalue(schedule_name)
    world = td.GaussianWorld(drift=[1.5e307, 0.0, 0.0, 0.0])
    den = EXACT_FAMILY[name](world, schedule)
    n, late, early = 2 * BLOCK + 17, BLOCK + 5, 2 * BLOCK + 3
    y0 = np.ones((n, 4))
    y0[late], y0[early] = 1.3e308, 1.7e308
    cfg = SamplerConfig(1.0, 50)
    with pytest.raises(SamplerDiverged) as err:
        sample_batch(den, y0, cfg, schedule, n, np.random.default_rng(28))
    first = np.full(n, cfg.steps)
    for step, t_to, x in _step_map_states(den, y0, cfg, schedule, n,
                                          np.random.default_rng(28)):
        first[(first == cfg.steps) & ~np.isfinite(x).all(axis=(1, 2))] = step
    assert first[early] < first[late] < cfg.steps
    assert (first[:BLOCK] == cfg.steps).all()
    assert err.value.step == first[early] == first.min()
    assert err.value.t == time_grid(cfg.start_time, cfg.steps)[first.min() + 1]


@pytest.mark.parametrize("schedule_name", ["vp", "ve"])
@pytest.mark.parametrize("name", ["exact", "leaky"])
def test_step_maps_keep_a_huge_condition_finite(request, world, name, schedule_name):
    # the three-operation step's (k / r) x0_hat overflowed on a 1.7e308
    # condition (step 44 on VP, 6 on VE); the fused state never forms it
    schedule = request.getfixturevalue(schedule_name)
    den = EXACT_FAMILY[name](world, schedule)
    y0 = np.full(4, 1.7e308)
    cfg = SamplerConfig(1.0, 50)
    got = sample_batch(den, y0, cfg, schedule, 3, np.random.default_rng(25))
    assert np.isfinite(got).all()
    np.testing.assert_array_equal(
        got, _step_map_sample(den, y0, cfg, schedule, 3, np.random.default_rng(25)))


def test_denoiser_for_another_schedule_is_rejected(world, vp, ve):
    # a VP posterior mean stepped on the VE grid ran and gave 10x the motion
    den = ExactDenoiser(world, vp)
    with pytest.raises(ValueError, match="^" + re.escape(
            "denoiser schedule {'kind': 'vp', 'beta_min': 0.1, 'beta_max': 20.0, "
            "'sigma_min': 0.002, 'sigma_max': 700.0} differs from the run's schedule "
            "{'kind': 've', 'beta_min': 0.1, 'beta_max': 20.0, 'sigma_min': 0.002, "
            "'sigma_max': 700.0}") + "$"):
        sample_batch(den, np.zeros(4), SamplerConfig(1.0, 5), ve, 2,
                     np.random.default_rng(0))


def test_sampler_config_validation(world, vp):
    init = optimal_init(exact_moments(world), vp, 0.9)
    with pytest.raises(ValueError):
        SamplerConfig(start_time=1.0, steps=50, init=init)  # M mismatch
    with pytest.raises(ValueError):
        SamplerConfig(start_time=0.9, steps=0)
    with pytest.raises(ValueError):
        SamplerConfig(start_time=0.0, steps=10)
    with pytest.raises(ValueError):
        SamplerConfig(start_time=1.0, steps=10, inference_beta=-0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_beta_and_condition_are_rejected(world, vp, bad):
    # an input error, rejected before the run rather than reported as a
    # numerical failure (SamplerDiverged at step 0)
    with pytest.raises(ValueError, match="inference_beta"):
        SamplerConfig(1.0, 10, inference_beta=bad)
    for den in (ExactDenoiser(world, vp), ExactDenoiser(world, vp, conditional=False)):
        for y0 in (np.array([bad, 0.0, 0.0, 0.0]), np.full((2, 4), bad)):
            with pytest.raises(ValueError, match="y0"):
                sample_batch(den, y0, SamplerConfig(1.0, 10), vp, 2,
                             np.random.default_rng(0))


def test_draw_initial_dimension_guard(world, vp):
    bad = InitDistribution(mu_p=np.zeros(10), sigma_p2=1.0, M=0.9)
    with pytest.raises(ValueError):
        draw_initial(SamplerConfig(0.9, 5, init=bad), vp, (2, 8, 4),
                     np.random.default_rng(10))


# ---------------------------------------------------------------------------
# The sampler against written-out copies of its arithmetic


def _reference_map(den, t):
    """Independent copy of the exact family's affine map (A, c, b) of
    x0_hat = A xt + c y^T + b, each operation allocating its result."""
    world = den.world
    pinned = replace(world, s0=0.0) if den.conditional else world
    cov = prior_frame_cov(pinned)
    offsets = np.arange(world.n_frames, dtype=np.float64)[:, None] * world.drift
    alpha, sigma = alpha_sigma(den.schedule, t)
    eye = np.eye(world.n_frames)
    gain = np.linalg.solve(alpha**2 * cov + sigma**2 * eye, alpha * cov)
    rest = eye - alpha * gain
    leak = den.leak(t) if isinstance(den, LeakyDenoiser) else 0.0
    a = (1.0 - leak) * gain
    c = (1.0 - leak) * rest.sum(axis=1, keepdims=True) + leak
    b = (1.0 - leak) * (rest @ offsets)
    return a, c, b


def _reference_step_map(den, t_from, t_to):
    """The DDIM step x_to = k x0_hat + r xt composed into the map:
    (k A + r I, k c, k b) with r = s_to / s_from and k = a_to - r a_from,
    and (A, c, b) itself for the step to t = 0."""
    a, c, b = _reference_map(den, t_from)
    if t_to == 0.0:
        return a, c, b
    a_from, s_from = alpha_sigma(den.schedule, t_from)
    a_to, s_to = alpha_sigma(den.schedule, t_to)
    r = s_to / s_from
    kappa = a_to - r * a_from
    return kappa * a + r * np.eye(len(a)), kappa * c, kappa * b


def _reference_x0(den, xt, y, t):
    """The exact family's prediction through _reference_map; the trained
    denoiser's predict_x0 already allocates and is used as it is."""
    if isinstance(den, TrainedDenoiser):
        return den.predict_x0(xt, y, t)
    a, c, b = _reference_map(den, t)
    y = np.asarray(y if den.conditional else den.world.m0, dtype=np.float64)
    return a @ np.asarray(xt) + c * y[..., None, :] + b


def _reference_start(cfg, schedule, y0, n, rng):
    """The initial draw, then one condition draw per chain if cfg says so."""
    x = draw_initial(cfg, schedule, (n, 8, 4), rng)
    y = np.asarray(y0, dtype=np.float64)
    if cfg.inference_beta is not None:
        eps_shape = y.shape if y.ndim == 2 else (n,) + y.shape
        y = y + cfg.inference_beta * rng.standard_normal(eps_shape)
    return x, y


def _reference_sample(den, y0, cfg, schedule, n, rng):
    """sample_batch written out with the allocating form of the three-
    operation DDIM step r (x + ((a_to - r a_from) / r) x0_hat), r = s_to /
    s_from, for any denoiser."""
    x, y = _reference_start(cfg, schedule, y0, n, rng)
    grid = time_grid(cfg.start_time, cfg.steps)
    for t_from, t_to in zip(grid[:-1], grid[1:]):
        x0_hat = _reference_x0(den, x, y, float(t_from))
        if t_to == 0.0:
            x = x0_hat
            continue
        a_from, s_from = alpha_sigma(schedule, float(t_from))
        a_to, s_to = alpha_sigma(schedule, float(t_to))
        r = s_to / s_from
        x = (x0_hat * ((a_to - r * a_from) / r) + x) * r
    return x


def _step_map_states(den, y0, cfg, schedule, n, rng):
    """sample_batch's exact-family arithmetic written out: the chains as
    the columns of an (N + 2, d n) state, chain index innermost, whose
    last two rows are the conditions (m0 without one) and the drift, and
    each step W @ state over the step map W, each operation allocating.
    Yields every step's (step, t_to, video rows as (n, N, d))."""
    x, y = _reference_start(cfg, schedule, y0, n, rng)
    y = np.broadcast_to(y if den.conditional else den.world.m0, (n, 4))
    drift = np.broadcast_to(den.world.drift[:, None], (4, n))
    cols = np.concatenate((x.transpose(1, 2, 0), [y.T, drift])).reshape(10, 4 * n)
    grid = time_grid(cfg.start_time, cfg.steps)
    for step, (t_from, t_to) in enumerate(zip(grid[:-1], grid[1:])):
        w = den.step_map(float(t_from), float(t_to))
        cols = np.concatenate((w @ cols, cols[8:]))
        yield step, float(t_to), cols[:8].reshape(8, 4, n).transpose(2, 0, 1)


def _step_map_sample(den, y0, cfg, schedule, n, rng):
    *_, (_, _, x) = _step_map_states(den, y0, cfg, schedule, n, rng)
    return x


@pytest.fixture(scope="module")
def denoisers(world, vp, ve):
    """{(name, schedule kind): denoiser} for exact, leaky and a short-trained
    checkpoint under each schedule."""
    out = {}
    for schedule in (vp, ve):
        ckpt = td.train(world, schedule, td.TrainConfig(steps=40, seed=5))
        model, params, *_ = td.load_checkpoint(ckpt)
        out[("exact", schedule.kind)] = ExactDenoiser(world, schedule)
        out[("leaky", schedule.kind)] = LeakyDenoiser(world, schedule, 0.6, 1.5)
        out[("trained", schedule.kind)] = TrainedDenoiser(model, params, schedule)
    return out


def test_ddim_step_to_a_noiseless_time_returns_the_prediction(denoisers, vp):
    # x0_hat *= k / r divided by zero where VP's sigma rounds to 0
    den = denoisers["trained", "vp"]
    xt = np.random.default_rng(4).standard_normal((3, 8, 4))
    y0 = np.random.default_rng(5).standard_normal(4)
    got = ddim_step(den, xt, y0, 0.5, 1e-300, vp)
    assert got.tobytes() == den.predict_x0(xt, y0, 0.5).tobytes()


@pytest.mark.parametrize("M, t_from", [(1e-300, "1e-300"), (1.5e-15, "7.5e-16")],
                         ids=["start", "second-step"])
@pytest.mark.parametrize("name", ["exact", "trained"])
def test_a_step_from_a_time_without_noise_is_rejected(denoisers, vp, name, M, t_from):
    # ZeroDivisionError or numpy's "Singular matrix" before; from M = 1.5e-15
    # the first step lands on the prediction at 7.5e-16, where sigma rounds
    # to 0, and the second would start there
    with pytest.raises(ValueError, match=f"^no noise to remove at t_from = {t_from}:"):
        sample_batch(denoisers[name, "vp"], np.zeros(4), SamplerConfig(M, 2), vp, 2,
                     np.random.default_rng(0))


@pytest.mark.parametrize("M, steps, t_from", [(1e-12, 2000, "5e-16"),
                                              (1e-14, 50, "8e-16")])
def test_a_trained_run_rejects_a_start_without_noise_before_predicting(
        monkeypatch, denoisers, vp, M, steps, t_from):
    # the trained path checked each start at its step, so 1999 and 46
    # predictions ran before the error; it names the start the exact path does
    den = denoisers["trained", "vp"]
    calls = []
    predict_x0 = den.predict_x0
    monkeypatch.setattr(den, "predict_x0",
                        lambda *args: calls.append(args) or predict_x0(*args))
    errors = []
    for name in ("trained", "exact"):
        with pytest.raises(ValueError) as err:
            sample_batch(denoisers[name, "vp"], np.zeros(4), SamplerConfig(M, steps),
                         vp, 2, np.random.default_rng(0))
        errors.append(str(err.value))
    assert calls == []
    assert errors[0] == errors[1]
    assert errors[0].startswith(f"no noise to remove at t_from = {t_from}:")


def test_a_denoiser_without_predict_x0_cannot_drive_a_sampler(vp):
    # the oracle stub has no predict_x0 and no schedule, and sample_batch
    # raised AttributeError on its schedule; only the CLI turned it away
    with pytest.raises(ValueError, match="^OracleEps cannot drive a sampler$"):
        sample_batch(td.OracleEps(), np.zeros(4), SamplerConfig(), vp, 2,
                     np.random.default_rng(0))


@pytest.mark.parametrize("beta", [None, 0.3])
@pytest.mark.parametrize("per_chain", [False, True], ids=["shared", "per-chain"])
@pytest.mark.parametrize("schedule_name", ["vp", "ve"])
@pytest.mark.parametrize("name", ["exact", "leaky", "trained"])
def test_sample_batch_matches_reference_loop(request, denoisers, name,
                                             schedule_name, per_chain, beta):
    # the trained denoiser runs the three-operation step, bit for bit; the
    # exact family runs one step map per step, bit for bit against its
    # written-out copy and within 1e-13 of the three-operation step
    schedule = request.getfixturevalue(schedule_name)
    den = denoisers[(name, schedule.kind)]
    n = 16
    rng = np.random.default_rng(11)
    y0 = rng.standard_normal((n, 4) if per_chain else 4)
    cfg = SamplerConfig(0.9, 12, inference_beta=beta)
    got = sample_batch(den, y0, cfg, schedule, n, np.random.default_rng(12))
    want = _reference_sample(den, y0, cfg, schedule, n, np.random.default_rng(12))
    if name == "trained":
        np.testing.assert_array_equal(got, want)
        return
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
    fused = _step_map_sample(den, y0, cfg, schedule, n, np.random.default_rng(12))
    np.testing.assert_array_equal(got, fused)


# chains of an 8 x 4 video in one block of sample_batch's exact-family run
BLOCK = BLOCK_BYTES // (8 * 4 * 8)

EXACT_FAMILY = {
    "exact": lambda world, schedule: ExactDenoiser(world, schedule),
    "leaky": lambda world, schedule: LeakyDenoiser(world, schedule, 0.6, 1.5),
    "unconditional": lambda world, schedule: ExactDenoiser(world, schedule,
                                                           conditional=False),
}


@pytest.mark.parametrize("steps", [(0.9, 50), (1.0, 200), (0.5, 1)],
                         ids=["M0.9-K50", "M1-K200", "M0.5-K1"])
@pytest.mark.parametrize("beta", [None, 0.3])
@pytest.mark.parametrize("per_chain", [False, True], ids=["shared", "per-chain"])
@pytest.mark.parametrize("schedule_name", ["vp", "ve"])
@pytest.mark.parametrize("name", sorted(EXACT_FAMILY))
def test_step_maps_agree_with_the_three_operation_step(request, name, schedule_name,
                                                       per_chain, beta, steps):
    # the fused step reorders floating-point work; 1e-13 absolute, fixed
    # before any run (measured maximum 2.4e-14)
    schedule = request.getfixturevalue(schedule_name)
    world = td.GaussianWorld(m0=[0.5, -1.0, 0.0, 2.0], drift=[0.2, -0.1, 0.0, 0.3])
    den = EXACT_FAMILY[name](world, schedule)
    n = 32
    rng = np.random.default_rng(19)
    y0 = 2.0 * rng.standard_normal((n, 4) if per_chain else 4)
    cfg = SamplerConfig(*steps, inference_beta=beta)
    got = sample_batch(den, y0, cfg, schedule, n, np.random.default_rng(20))
    want = np.random.default_rng(20)
    want = _reference_sample(den, y0, cfg, schedule, n, want)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def _probe_step(den, y, t_from, t_to):
    """Recover M, c and beta drift^T of one step from ddim_step alone: the
    zero video with y = 0 gives beta drift^T, the N unit-frame videos give
    M's columns, and the zero video with y = 1 gives c.  The unconditional
    denoiser reads m0 in place of y, so its zero response is c m0^T +
    beta drift^T."""
    n_frames, d = den.shape
    videos = np.zeros((n_frames + 2, n_frames, d))
    videos[np.arange(n_frames), np.arange(n_frames)] = 1.0
    ys = np.zeros((n_frames + 2, d))
    ys[-1] = y
    out = ddim_step(den, videos, ys, t_from, t_to, den.schedule)
    zero = out[-2]
    # (N, N, d): M's column j in every coordinate; (N, d): c in every one
    return (out[:n_frames] - zero).transpose(1, 0, 2), out[-1] - zero, zero


@pytest.mark.parametrize("schedule_name", ["vp", "ve"])
@pytest.mark.parametrize("name", sorted(EXACT_FAMILY))
def test_step_maps_match_ddim_step_probes(request, name, schedule_name):
    schedule = request.getfixturevalue(schedule_name)
    world = td.GaussianWorld(m0=[0.5, -1.0, 0.0, 2.0], drift=[0.2, -0.1, 0.0, 0.3])
    den = EXACT_FAMILY[name](world, schedule)
    times = [(0.9, 0.825), (1.0, 0.995), (0.5, 0.25), (0.02, 0.01), (0.3, 0.0),
             (0.005, 0.0)]
    for t_from, t_to in times:
        w = den.step_map(t_from, t_to)
        assert w.shape == (8, 10) and not w.flags.writeable
        m, c, b = w[:, :8], w[:, 8:9], w[:, 9:] * world.drift
        probed_m, probed_c, zero = _probe_step(den, np.ones(4), t_from, t_to)
        np.testing.assert_allclose(probed_m, np.broadcast_to(m[..., None], (8, 8, 4)),
                                   rtol=0, atol=1e-12)
        if den.conditional:
            np.testing.assert_allclose(probed_c, np.broadcast_to(c, (8, 4)),
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(zero, b, rtol=0, atol=1e-12)
        else:
            np.testing.assert_allclose(probed_c, 0.0, rtol=0, atol=1e-12)
            np.testing.assert_allclose(zero, c * world.m0 + b, rtol=0, atol=1e-12)
        # and the written-out copy of the step map, whose b is formed over
        # the frame offsets
        for got, want in zip((m, c, b), _reference_step_map(den, t_from, t_to)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def _rational_step_map(den, t, t_to):
    """The step map of den from t to t_to in exact rational arithmetic on
    the float alpha, sigma, C and leak: a Gauss-Jordan solve of
    S W0 = [alpha C | sigma^2 1 | sigma^2 i], S = alpha^2 C + sigma^2 I, the
    blend (1 - l) W0 + l [0 | 1 | 0], then kappa W0 + r [I | 0 | 0] for
    t_to > 0.  Rows of Fractions, (N, N + 2)."""
    world = den.world
    n = world.n_frames
    cov = prior_frame_cov(replace(world, s0=0.0) if den.conditional else world)
    c = [[Fraction(v) for v in row] for row in cov.tolist()]
    alpha, sigma = map(Fraction, alpha_sigma(den.schedule, t))
    rows = [[alpha**2 * c[i][j] + sigma**2 * (i == j) for j in range(n)]
            + [alpha * v for v in c[i]] + [sigma**2, sigma**2 * i] for i in range(n)]
    for k in range(n):  # S is positive definite: no pivot is zero
        rows[k] = [v / rows[k][k] for v in rows[k]]
        for i in range(n):
            if i != k:
                rows[i] = [a - rows[i][k] * b for a, b in zip(rows[i], rows[k])]
    leak = Fraction(den.leak(t))
    w = [[(1 - leak) * v + leak * (j == n) for j, v in enumerate(row[n:])]
         for row in rows]
    if t_to == 0.0:
        return w
    a_to, s_to = map(Fraction, alpha_sigma(den.schedule, t_to))
    r = s_to / sigma
    kappa = a_to - r * alpha
    return [[kappa * v + r * (i == j) for j, v in enumerate(row)]
            for i, row in enumerate(w)]


@pytest.mark.parametrize("schedule_name", ["vp", "ve"])
@pytest.mark.parametrize("name", sorted(EXACT_FAMILY))
def test_step_maps_match_exact_rational_arithmetic(request, name, schedule_name):
    # the float maps against the same closed form solved without rounding;
    # the I - alpha G form that the one solve replaced was off by up to
    # 4.7e-14 here (unconditional VP, t = 0.01, the non-dyadic world)
    schedule = request.getfixturevalue(schedule_name)
    times = (1e-4, 1e-3, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0)
    for world in (td.GaussianWorld(), td.GaussianWorld(s0=0.3, s_w=0.7)):
        den = EXACT_FAMILY[name](world, schedule)
        for t in times:
            for t_to in (0.0, 0.9 * t):
                want = _rational_step_map(den, t, t_to)
                got = den.step_map(t, t_to)
                err = max(abs(Fraction(g) - v) for g_row, w_row in zip(got.tolist(), want)
                          for g, v in zip(g_row, w_row))
                assert err <= 1e-14, (world, t, t_to, float(err))


@pytest.mark.parametrize("schedule_name", ["vp", "ve"])
@pytest.mark.parametrize("name", sorted(EXACT_FAMILY))
def test_step_map_to_zero_is_the_prediction_map(request, world, name, schedule_name):
    # t_to = 0 is predict_x0's own [A | c | beta], the same cached matrix,
    # and not the r, k form: VE has sigma(0) = sigma_min != 0
    schedule = request.getfixturevalue(schedule_name)
    den = EXACT_FAMILY[name](world, schedule)
    xt = np.random.default_rng(21).standard_normal((5, 8, 4))
    y0 = np.array([0.5, -1.0, 0.0, 2.0])
    for t in (1.0, 0.5, 0.02, 1e-4):
        w = den.step_map(t, 0.0)
        assert w is den.step_map(t)
        y = y0 if den.conditional else world.m0
        want = w[:, :8] @ xt + w[:, 8:9] * y + w[:, 9:] * world.drift
        np.testing.assert_array_equal(den.predict_x0(xt, y0, t), want)
        np.testing.assert_array_equal(ddim_step(den, xt, y0, t, 0.0, schedule),
                                      den.predict_x0(xt, y0, t))


@pytest.mark.parametrize("per_chain", [False, True], ids=["shared", "per-chain"])
@pytest.mark.parametrize("name", sorted(EXACT_FAMILY))
def test_a_run_makes_one_map_per_step(world, vp, name, per_chain):
    # a K-step run reads one step map per step and makes K maps, each from
    # its own solve; the last step's, to 0, is the prediction map, so a
    # later prediction there is a hit
    den = EXACT_FAMILY[name](world, vp)
    calls, step_map = [], den.step_map
    den.step_map = lambda t, t_to=0.0: calls.append((t, t_to)) or step_map(t, t_to)
    cfg = SamplerConfig(0.9, 20)
    y0 = np.full((8, 4) if per_chain else 4, 2.0)
    world_module._affine_map.cache_clear()
    sample_batch(den, y0, cfg, vp, 8, np.random.default_rng(3))
    grid = time_grid(cfg.start_time, cfg.steps)
    assert calls == list(zip(grid[:-1], grid[1:]))
    info = world_module._affine_map.cache_info()
    assert (info.misses, info.hits) == (cfg.steps, 0)
    den.predict_x0(np.zeros((8, 4)), y0[0] if per_chain else y0, grid[-2])
    info = world_module._affine_map.cache_info()
    assert (info.misses, info.hits) == (cfg.steps, 1)


@pytest.mark.parametrize("name, per_chain", [("exact", False), ("leaky", True)],
                         ids=["exact-shared", "leaky-per-chain"])
def test_chain_output_does_not_depend_on_the_chain_count(world, vp, name, per_chain):
    # chain i gets row i of the draw and the same column of every matmul,
    # whatever the number of chains and wherever the block edges fall
    den = EXACT_FAMILY[name](world, vp)
    cfg = SamplerConfig(0.9, 20)
    big = 10_000
    y0 = np.random.default_rng(22).standard_normal((big, 4) if per_chain else 4)
    full = sample_batch(den, y0, cfg, vp, big, np.random.default_rng(23))
    for n in (1, 3, 17, 100, BLOCK - 1, BLOCK, BLOCK + 1, 2048, 2 * BLOCK + 17):
        y = y0[:n] if per_chain else y0
        got = sample_batch(den, y, cfg, vp, n, np.random.default_rng(23))
        np.testing.assert_array_equal(got, full[:n])


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("name", ["exact", "leaky", "unconditional", "trained"])
def test_a_chain_count_below_one_is_rejected(world, vp, denoisers, name, n):
    # n = 0 used to fail inside the run: a zero block width on the exact
    # family, a reshape on a trained denoiser
    den = denoisers[(name, "vp")] if name == "trained" else EXACT_FAMILY[name](world, vp)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=rf"^n must lie in \[1, inf\), got {n}$"):
        sample_batch(den, np.zeros(4), SamplerConfig(1.0, 5), vp, n, rng)
    assert rng.bit_generator.state == state


# The mean-centred posterior, the blend toward y after the fact and the
# five-operation step that the affine map and the three-operation step
# replaced; they reorder floating-point work, so they agree within 1e-12.


def _centred_x0(den, xt, y, t):
    """mean + G (xt - alpha mean), then (1 - l) x0_hat + l y for the leak."""
    world = den.world
    idx = np.arange(world.n_frames, dtype=np.float64)
    cov = np.minimum.outer(idx, idx) * world.s_w**2
    if not den.conditional:
        cov = world.s0**2 + cov
        y = world.m0
    lam, basis = np.linalg.eigh(cov)
    lam = np.clip(lam, 0.0, None)
    y = np.asarray(y, dtype=np.float64)
    mean = y[..., None, :] + idx[:, None] * world.drift
    alpha, sigma = alpha_sigma(den.schedule, t)
    shrink = alpha * lam / (alpha**2 * lam + sigma**2)
    gain = (basis * shrink) @ basis.T
    exact = mean + gain @ (np.asarray(xt, dtype=np.float64) - alpha * mean)
    if not isinstance(den, LeakyDenoiser):
        return exact
    leak = den.leak(t)
    static = np.repeat(y[..., None, :], world.n_frames, axis=-2)
    return (1.0 - leak) * exact + leak * static


def _centred_sample(den, y0, cfg, schedule, n, rng):
    x = draw_initial(cfg, schedule, (n, 8, 4), rng)
    y = np.asarray(y0, dtype=np.float64)
    if cfg.inference_beta is not None:
        y = y + cfg.inference_beta * rng.standard_normal((n, 4))
    grid = time_grid(cfg.start_time, cfg.steps)
    for t_from, t_to in zip(grid[:-1], grid[1:]):
        x0_hat = _centred_x0(den, x, y, float(t_from))
        if t_to == 0.0:
            x = x0_hat
            continue
        a_from, s_from = alpha_sigma(schedule, float(t_from))
        a_to, s_to = alpha_sigma(schedule, float(t_to))
        x = a_to * x0_hat + (s_to / s_from) * (x - a_from * x0_hat)
    return x


@pytest.mark.parametrize("beta", [None, 0.3])
@pytest.mark.parametrize("per_chain", [False, True], ids=["shared", "per-chain"])
@pytest.mark.parametrize("schedule_name", ["vp", "ve"])
@pytest.mark.parametrize("name", ["exact", "leaky", "unconditional"])
def test_affine_map_agrees_with_the_centred_posterior(request, name, schedule_name,
                                                      per_chain, beta):
    schedule = request.getfixturevalue(schedule_name)
    # a nonzero m0 so that the unconditional denoiser's c m0^T counts
    world = td.GaussianWorld(m0=[0.5, -1.0, 0.0, 2.0], drift=[0.2, -0.1, 0.0, 0.3])
    den = {
        "exact": lambda: ExactDenoiser(world, schedule),
        "leaky": lambda: LeakyDenoiser(world, schedule, 0.6, 1.5),
        "unconditional": lambda: ExactDenoiser(world, schedule, conditional=False),
    }[name]()
    n = 16
    rng = np.random.default_rng(17)
    y0 = 2.0 * rng.standard_normal((n, 4) if per_chain else 4)
    x0, z = td.sample_videos(world, n, rng), rng.standard_normal((n, 8, 4))
    for t in (1e-4, 0.05, 0.5, 0.9, 1.0):
        alpha, sigma = alpha_sigma(schedule, t)
        xt = alpha * x0 + sigma * z
        np.testing.assert_allclose(den.predict_x0(xt, y0, t),
                                   _centred_x0(den, xt, y0, t), rtol=0, atol=1e-12)
    cfg = SamplerConfig(0.9, 40, inference_beta=beta)
    got = sample_batch(den, y0, cfg, schedule, n, np.random.default_rng(18))
    want = _centred_sample(den, y0, cfg, schedule, n, np.random.default_rng(18))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("schedule_name", ["vp", "ve"])
def test_sample_batch_same_bytes_from_cold_and_warm_caches(request, world,
                                                          schedule_name):
    schedule = request.getfixturevalue(schedule_name)
    cfg = SamplerConfig(0.9, 20)
    y0 = np.array([1.0, -0.5, 0.0, 2.0])
    den = LeakyDenoiser(world, schedule, 0.6, 1.5)
    runs = []
    for cold in (True, False, False):
        if cold:
            schedule_module._cached_alpha_sigma.cache_clear()
            world_module._affine_map.cache_clear()
        runs.append(sample_batch(den, y0, cfg, schedule, 16, np.random.default_rng(9)))
    assert world_module._affine_map.cache_info().hits > 0
    for run in runs[1:]:
        np.testing.assert_array_equal(run, runs[0])


@pytest.mark.parametrize("per_chain", [False, True], ids=["shared", "per-chain"])
def test_sampler_leaves_caller_arrays_unchanged(world, vp, per_chain):
    den = LeakyDenoiser(world, vp, 0.6, 1.5)
    rng = np.random.default_rng(13)
    xt = rng.standard_normal((6, 8, 4))
    y = rng.standard_normal((6, 4) if per_chain else 4)
    xt_kept, y_kept = xt.copy(), y.copy()
    out = ddim_step(den, xt, y, 0.6, 0.4, vp)
    assert not np.shares_memory(out, xt)
    np.testing.assert_array_equal(xt, xt_kept)
    np.testing.assert_array_equal(y, y_kept)
    for beta in (None, 0.3):
        sample_batch(den, y, SamplerConfig(1.0, 5, inference_beta=beta), vp, 6,
                     np.random.default_rng(14))
        np.testing.assert_array_equal(y, y_kept)


def _traced_peak_bytes(run):
    """Peak of numpy's traced allocations during a warmed call of run,
    above what was held before it."""
    run()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        if started:
            tracemalloc.stop()


@pytest.mark.parametrize("name, per_chain, n, bound", [
    ("exact", False, 2000, 3.5),
    ("leaky", True, 2000, 4.5),
    ("exact", False, 10_000, 1.5),
    ("leaky", True, 10_000, 1.75),
], ids=["exact-shared", "leaky-per-chain", "exact-shared-10-blocks",
        "leaky-per-chain-10-blocks"])
def test_sample_batch_peak_memory(world, vp, name, per_chain, n, bound):
    # the draw is the output; besides it a run holds two (N + 2, d B)
    # block states of up to BLOCK chains and one block's boolean
    # finiteness mask, so past a few blocks the peak nears one state
    if name == "exact":
        den = ExactDenoiser(world, vp)
    else:
        den = LeakyDenoiser(world, vp, 0.6, 1.5)
    y0 = np.full((n, 4) if per_chain else 4, 2.0)
    peak = _traced_peak_bytes(lambda: sample_batch(
        den, y0, SamplerConfig(1.0, 20), vp, n, np.random.default_rng(15)))
    state_bytes = n * world.n_frames * world.frame_dim * 8
    assert peak <= bound * state_bytes, peak / state_bytes


@pytest.mark.parametrize("per_chain, bound", [(False, 1.1), (True, 2.2)],
                         ids=["shared", "per-chain"])
@pytest.mark.parametrize("name", ["exact", "leaky"])
def test_ddim_step_allocates_only_its_output(world, vp, name, per_chain, bound):
    # the step's output is the one (B, N, d) array a shared condition
    # needs; a per-chain condition adds its c y^T term
    n = 4096
    if name == "exact":
        den = ExactDenoiser(world, vp)
    else:
        den = LeakyDenoiser(world, vp, 0.6, 1.5)
    rng = np.random.default_rng(16)
    xt = rng.standard_normal((n, 8, 4))
    y = rng.standard_normal((n, 4) if per_chain else 4)
    peak = _traced_peak_bytes(lambda: ddim_step(den, xt, y, 0.6, 0.4, vp))
    assert peak <= bound * xt.nbytes, peak / xt.nbytes
