import re
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.stats import multivariate_normal

import toydiffusion as td
from toydiffusion.analytic_init import (
    DataMoments,
    InitDistribution,
    estimate_moments,
    exact_moments,
    gaussian_kl,
    optimal_init,
    standard_init,
    verify_optimality,
)
from toydiffusion.world import FrameGaussian, kron_cov, marginal_moments_at


def _dense(q):
    """The (N d, 1) dense law of a frame law q, through kron_cov."""
    return FrameGaussian(q.mean.reshape(-1, 1), kron_cov(q.cov, q.mean.shape[1]))


def _q_moments(world, schedule, M):
    return _dense(marginal_moments_at(world, schedule, M))


def test_kl_zero_on_identical_gaussians():
    mu = np.array([0.3, -1.0, 2.0])
    init = InitDistribution(mu_p=mu, sigma_p2=1.7, M=1.0)
    q = FrameGaussian(mu.reshape(-1, 1), 1.7 * np.eye(3))
    assert gaussian_kl(q, init) == pytest.approx(0.0, abs=1e-12)


def test_kl_matches_diagonal_closed_form():
    # independent derivation for diagonal q: KL(N(m, diag(v)) || N(mp, s2 I))
    # = 1/2 sum_i [ v_i/s2 + (m_i - mp_i)^2/s2 - 1 + ln(s2/v_i) ]
    rng = np.random.default_rng(0)
    m = rng.standard_normal(6)
    v = rng.uniform(0.2, 3.0, 6)
    mp = rng.standard_normal(6)
    s2 = 1.9
    expected = 0.5 * np.sum(v / s2 + (m - mp) ** 2 / s2 - 1.0 + np.log(s2 / v))
    init = InitDistribution(mu_p=mp, sigma_p2=s2, M=0.5)
    q = FrameGaussian(m.reshape(-1, 1), np.diag(v))
    assert gaussian_kl(q, init) == pytest.approx(expected, rel=1e-12)


def test_kl_matches_monte_carlo():
    rng = np.random.default_rng(1)
    d = 5
    a = rng.standard_normal((d, d))
    sigma_q = a @ a.T + 0.5 * np.eye(d)
    mu_q = rng.standard_normal(d)
    init = InitDistribution(mu_p=rng.standard_normal(d), sigma_p2=1.3, M=0.8)
    exact = gaussian_kl(FrameGaussian(mu_q.reshape(-1, 1), sigma_q), init)
    x = rng.multivariate_normal(mu_q, sigma_q, size=400_000)
    log_q = multivariate_normal(mu_q, sigma_q).logpdf(x)
    log_p = multivariate_normal(init.mu_p, init.sigma_p2 * np.eye(d)).logpdf(x)
    assert exact == pytest.approx(np.mean(log_q - log_p), rel=0.02)


def test_kl_requires_positive_definite_q():
    init = InitDistribution(mu_p=np.zeros(2), sigma_p2=1.0, M=1.0)
    with pytest.raises(np.linalg.LinAlgError):
        gaussian_kl(FrameGaussian(np.zeros((2, 1)), np.array([[1.0, 2.0], [2.0, 1.0]])),
                    init)
    # the same indefinite matrix as the frame factor of a 2 x 3 video
    init = InitDistribution(mu_p=np.zeros(6), sigma_p2=1.0, M=1.0)
    with pytest.raises(np.linalg.LinAlgError):
        gaussian_kl(FrameGaussian(np.zeros((2, 3)), np.array([[1.0, 2.0], [2.0, 1.0]])),
                    init)


def test_kl_rejects_mean_not_a_whole_number_of_frames():
    # a cov or init whose size disagrees with the (N, d) mean, or a flat mean
    init = InitDistribution(mu_p=np.zeros(7), sigma_p2=1.0, M=1.0)
    for q in (FrameGaussian(np.zeros((7, 1)), np.eye(2)),  # cov is not 7 x 7
              FrameGaussian(np.zeros((2, 3)), np.eye(2)),  # init is not 2 x 3
              FrameGaussian(np.zeros(7), np.eye(7))):  # mean is not (N, d)
        with pytest.raises(ValueError):
            gaussian_kl(q, init)
        with pytest.raises(ValueError):
            verify_optimality(q, init)


# the three worlds of acceptance criterion 1
_WORLDS = {
    "default": td.GaussianWorld(),
    "six-frames": td.GaussianWorld(n_frames=6, frame_dim=3, m0=1.0, s0=2.0,
                                   drift=-0.3, s_w=1.2),
    "twelve-frames": td.GaussianWorld(n_frames=12, frame_dim=2,
                                      m0=np.array([1.5, -0.5]), s0=0.7,
                                      drift=0.05, s_w=0.25),
}
# a large-scale world, whose KLs reach 1e16: there the frame factor and the
# dense law agree to 1e-14 relative, where the three worlds above agree to
# 1e-13 absolute
_WIDE = td.GaussianWorld(s_w=1e5)


@pytest.mark.parametrize("schedule_name", ["vp", "ve"])
@pytest.mark.parametrize("world, rtol", [*((w, 0.0) for w in _WORLDS.values()),
                                         (_WIDE, 1e-14)], ids=[*_WORLDS, "wide"])
def test_kl_on_frame_factor_matches_dense_kron(request, world, rtol, schedule_name):
    # the N x N frame factor gives the KL of the dense (N d) x (N d)
    # kron_cov covariance to 1e-13 absolute (the wide world: rtol), at every cell of the
    # optimality grid, and the grid reaches the same verdict
    schedule = request.getfixturevalue(schedule_name)
    moments = exact_moments(world)
    for M in (1.0, 0.96, 0.9, 0.8, 0.5, 0.1):
        q = marginal_moments_at(world, schedule, M)
        standard = standard_init(schedule, M, world.flat_dim)
        want = gaussian_kl(_dense(q), standard)
        assert abs(gaussian_kl(q, standard) - want) <= 1e-13 + rtol * abs(want)
        opt = optimal_init(moments, schedule, M)
        got, want = verify_optimality(q, opt), verify_optimality(_dense(q), opt)
        assert got["passed"] == want["passed"]
        np.testing.assert_allclose([c["kl"] for c in got["grid"]],
                                   [c["kl"] for c in want["grid"]],
                                   rtol=rtol, atol=1e-13)


def test_optimum_agrees_with_numerical_minimizer(world, vp):
    # brute force over (mu, log s2) must land on the closed-form optimum
    M = 0.9
    q = _q_moments(world, vp, M)
    opt = optimal_init(exact_moments(world), vp, M)

    def objective(theta):
        return gaussian_kl(
            q, InitDistribution(mu_p=theta[:-1], sigma_p2=np.exp(theta[-1]), M=M))

    start = np.concatenate([q.mean.ravel() + 0.3, [np.log(2.0)]])
    res = minimize(objective, start, method="BFGS", options={"gtol": 1e-12})
    np.testing.assert_allclose(res.x[:-1], opt.mu_p, atol=1e-6)
    assert np.exp(res.x[-1]) == pytest.approx(opt.sigma_p2, abs=1e-6)
    assert res.fun == pytest.approx(gaussian_kl(q, opt), abs=1e-9)


def test_optimal_init_closed_form(world, vp):
    from toydiffusion.schedule import alpha_sigma

    M = 0.85
    moments = exact_moments(world)
    init = optimal_init(moments, vp, M)
    a, s = alpha_sigma(vp, M)
    np.testing.assert_allclose(init.mu_p, a * moments.mean, rtol=1e-14)
    assert init.sigma_p2 == pytest.approx(a * a * moments.avg_var + s * s, rel=1e-14)
    assert init.M == M
    with pytest.raises(ValueError):
        optimal_init(moments, vp, 0.0)


def test_optimal_init_rejects_a_start_where_no_step_may_start(world, vp):
    # VP's sigma rounds to 0 at M = 1e-20: the fit was returned, and every
    # sampler run from it was rejected
    with pytest.raises(ValueError, match="^no noise to remove at t_from = 1e-20: "
                                         "sigma rounds to 0$"):
        optimal_init(exact_moments(world), vp, 1e-20)


def test_standard_init_by_schedule_kind(vp, ve):
    from toydiffusion.schedule import alpha_sigma

    std_vp = standard_init(vp, 0.9, 12)
    assert std_vp.sigma_p2 == 1.0
    np.testing.assert_array_equal(std_vp.mu_p, np.zeros(12))
    std_ve = standard_init(ve, 0.9, 12)
    _, s = alpha_sigma(ve, 0.9)
    assert std_ve.sigma_p2 == pytest.approx(s * s, rel=1e-12)


def test_exact_moments_default_world(world):
    # avg coordinate variance of the walk: s0^2 + s_w^2 (N-1)/2
    m = exact_moments(world)
    assert m.avg_var == pytest.approx(1.0 + 0.25 * 3.5, rel=1e-12)
    assert m.n_samples == 0
    expected_mean = np.repeat(0.2 * np.arange(8.0), 4)
    np.testing.assert_allclose(m.mean, expected_mean, atol=1e-12)


def test_estimate_moments_population_statistics():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((50, 3, 2))
    m = estimate_moments(x)
    flat = x.reshape(50, -1)
    np.testing.assert_allclose(m.mean, flat.mean(axis=0), atol=1e-14)
    assert m.avg_var == pytest.approx(float(flat.var(axis=0).mean()), rel=1e-12)
    assert m.n_samples == 50
    with pytest.raises(ValueError):
        estimate_moments(x[:1])
    # squares of +-1e200 overflow: the fit is rejected without a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="avg_var"):
            estimate_moments(np.stack([np.full((3, 2), 1e200),
                                       np.full((3, 2), -1e200)]))


def test_estimated_moments_converge_to_exact(world):
    rng = np.random.default_rng(3)
    est = estimate_moments(td.sample_videos(world, 200_000, rng))
    exact = exact_moments(world)
    np.testing.assert_allclose(est.mean, exact.mean, atol=0.02)
    assert est.avg_var == pytest.approx(exact.avg_var, rel=0.02)


def test_verify_optimality_accepts_the_optimum(world, vp):
    M = 0.9
    q = _q_moments(world, vp, M)
    init = optimal_init(exact_moments(world), vp, M)
    res = verify_optimality(q, init)
    assert res["passed"]
    assert res["margin"] > 1e-9
    assert res["sigma_formula_gap"] <= 1e-10
    assert len(res["grid"]) == 81
    assert sum(cell["at_optimum"] for cell in res["grid"]) == 1


def test_verify_optimality_rejects_perturbed_inits(world, vp):
    M = 0.9
    q = _q_moments(world, vp, M)
    opt = optimal_init(exact_moments(world), vp, M)
    wide = InitDistribution(mu_p=opt.mu_p, sigma_p2=1.3 * opt.sigma_p2, M=M)
    res = verify_optimality(q, wide)
    assert not res["passed"]
    shifted = InitDistribution(mu_p=opt.mu_p + 0.4, sigma_p2=opt.sigma_p2, M=M)
    res = verify_optimality(q, shifted)
    # some grid cell sits closer to the true optimum than the candidate
    assert res["margin"] < 0.0


@pytest.mark.parametrize("schedule_name", ["vp", "ve"])
@pytest.mark.parametrize("s_w", [1e-3, 1.0, 1e5, 1e12])
def test_verify_optimality_holds_at_every_scale(request, schedule_name, s_w):
    # the grid shifts the mean in units of sqrt(sigma_p2) and reads the
    # sigma-formula gap relative to sigma_p2, so the optimum passes and an
    # init off by 1% in variance or by 0.05 sqrt(sigma_p2) in mean fails at
    # every scale; an absolute shift and gap failed the optimum from s_w = 1e5
    schedule = request.getfixturevalue(schedule_name)
    world = td.GaussianWorld(s_w=s_w)
    moments = exact_moments(world)
    unit = np.random.default_rng(7).standard_normal(world.flat_dim)
    unit /= np.linalg.norm(unit)
    for M in (1.0, 0.96, 0.92, 0.88, 0.84, 0.8):
        q = marginal_moments_at(world, schedule, M)
        opt = optimal_init(moments, schedule, M)
        res = verify_optimality(q, opt)
        assert res["passed"], (M, res["margin"], res["sigma_formula_gap"])
        assert res["margin"] > 1e-9 and res["sigma_formula_gap"] <= 1e-10
        step = 0.05 * np.sqrt(opt.sigma_p2) * unit
        for off in (InitDistribution(opt.mu_p, 1.01 * opt.sigma_p2, M),
                    InitDistribution(opt.mu_p, 0.99 * opt.sigma_p2, M),
                    InitDistribution(opt.mu_p + step, opt.sigma_p2, M),
                    InitDistribution(opt.mu_p - step, opt.sigma_p2, M)):
            assert not verify_optimality(q, off)["passed"]


def test_init_distribution_round_trip_and_validation():
    # the payload round trip of every dataclass is in test_codec.py
    with pytest.raises(ValueError):
        InitDistribution(mu_p=np.zeros(2), sigma_p2=0.0, M=1.0)
    with pytest.raises(ValueError):
        InitDistribution(mu_p=np.zeros(2), sigma_p2=1.0, M=1.2)
    with pytest.raises(ValueError, match="^" + re.escape(
            "mu_p must lie in (-inf, inf), got array([ 0., nan])") + "$"):
        InitDistribution(mu_p=np.array([0.0, np.nan]), sigma_p2=1.0, M=1.0)
    with pytest.raises(ValueError):
        DataMoments(mean=np.zeros(2), avg_var=-1.0, n_samples=3)
    # nan < 0 is False, so a nan avg_var used to be accepted
    for mean, avg_var in ((np.array([0.0, np.inf]), 1.0),
                          (np.array([np.nan, 0.0]), 1.0),
                          (np.zeros(2), np.nan), (np.zeros(2), np.inf)):
        with pytest.raises(ValueError):
            DataMoments(mean=mean, avg_var=avg_var, n_samples=3)


@pytest.mark.parametrize("sigma_p2", [np.inf, np.nan, -np.inf])
def test_init_distribution_rejects_non_finite_variance(sigma_p2):
    # an infinite variance used to pass "not inf > 0" and start every chain
    # at inf, reported as SamplerDiverged at step 0
    with pytest.raises(ValueError,
                       match=rf"^sigma_p2 must lie in \(0, inf\), got {sigma_p2!r}$"):
        InitDistribution(mu_p=np.zeros(2), sigma_p2=sigma_p2, M=1.0)
