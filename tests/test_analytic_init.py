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
from toydiffusion.world import kron_cov, marginal_moments_at


def _q_moments(world, schedule, M):
    mean, cov_factor = marginal_moments_at(world, schedule, M)
    return mean, kron_cov(cov_factor, world.frame_dim)


def test_kl_zero_on_identical_gaussians():
    mu = np.array([0.3, -1.0, 2.0])
    init = InitDistribution(mu_p=mu, sigma_p2=1.7, M=1.0)
    assert gaussian_kl(mu, 1.7 * np.eye(3), init) == pytest.approx(0.0, abs=1e-12)


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
    assert gaussian_kl(m, np.diag(v), init) == pytest.approx(expected, rel=1e-12)


def test_kl_matches_monte_carlo():
    rng = np.random.default_rng(1)
    d = 5
    a = rng.standard_normal((d, d))
    sigma_q = a @ a.T + 0.5 * np.eye(d)
    mu_q = rng.standard_normal(d)
    init = InitDistribution(mu_p=rng.standard_normal(d), sigma_p2=1.3, M=0.8)
    exact = gaussian_kl(mu_q, sigma_q, init)
    x = rng.multivariate_normal(mu_q, sigma_q, size=400_000)
    log_q = multivariate_normal(mu_q, sigma_q).logpdf(x)
    log_p = multivariate_normal(init.mu_p, init.sigma_p2 * np.eye(d)).logpdf(x)
    assert exact == pytest.approx(np.mean(log_q - log_p), rel=0.02)


def test_kl_requires_positive_definite_q():
    init = InitDistribution(mu_p=np.zeros(2), sigma_p2=1.0, M=1.0)
    with pytest.raises(np.linalg.LinAlgError):
        gaussian_kl(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]), init)
    # the same indefinite matrix as the frame factor of a 2 x 3 video
    init = InitDistribution(mu_p=np.zeros(6), sigma_p2=1.0, M=1.0)
    with pytest.raises(np.linalg.LinAlgError):
        gaussian_kl(np.zeros(6), np.array([[1.0, 2.0], [2.0, 1.0]]), init)


def test_kl_rejects_mean_not_a_whole_number_of_frames():
    init = InitDistribution(mu_p=np.zeros(7), sigma_p2=1.0, M=1.0)
    with pytest.raises(ValueError):
        gaussian_kl(np.zeros(7), np.eye(2), init)  # 7 is not 2 k
    with pytest.raises(ValueError):
        verify_optimality(np.zeros(7), np.eye(2), init)


# the three worlds of acceptance criterion 1
_WORLDS = {
    "default": td.GaussianWorld(),
    "six-frames": td.GaussianWorld(n_frames=6, frame_dim=3, m0=1.0, s0=2.0,
                                   drift=-0.3, s_w=1.2),
    "twelve-frames": td.GaussianWorld(n_frames=12, frame_dim=2,
                                      m0=np.array([1.5, -0.5]), s0=0.7,
                                      drift=0.05, s_w=0.25),
}


@pytest.mark.parametrize("schedule_name", ["vp", "ve"])
@pytest.mark.parametrize("world", _WORLDS.values(), ids=_WORLDS.keys())
def test_kl_on_frame_factor_matches_dense_kron(request, world, schedule_name):
    # the N x N frame factor gives the KL of the dense (N d) x (N d)
    # kron_cov covariance to 1e-13 absolute, at every cell of the
    # optimality grid, and the grid reaches the same verdict
    schedule = request.getfixturevalue(schedule_name)
    moments = exact_moments(world)
    for M in (1.0, 0.96, 0.9, 0.8, 0.5, 0.1):
        mu_q, cov_f = marginal_moments_at(world, schedule, M)
        dense = kron_cov(cov_f, world.frame_dim)
        standard = standard_init(schedule, M, world.flat_dim)
        assert abs(gaussian_kl(mu_q, cov_f, standard)
                   - gaussian_kl(mu_q, dense, standard)) <= 1e-13
        opt = optimal_init(moments, schedule, M)
        got, want = verify_optimality(mu_q, cov_f, opt), verify_optimality(
            mu_q, dense, opt)
        assert got["passed"] == want["passed"]
        np.testing.assert_allclose([c["kl"] for c in got["grid"]],
                                   [c["kl"] for c in want["grid"]], rtol=0, atol=1e-13)


def test_optimum_agrees_with_numerical_minimizer(world, vp):
    # brute force over (mu, log s2) must land on the closed-form optimum
    M = 0.9
    mu_q, sigma_q = _q_moments(world, vp, M)
    opt = optimal_init(exact_moments(world), vp, M)

    def objective(theta):
        return gaussian_kl(
            mu_q,
            sigma_q,
            InitDistribution(mu_p=theta[:-1], sigma_p2=np.exp(theta[-1]), M=M),
        )

    start = np.concatenate([mu_q + 0.3, [np.log(2.0)]])
    res = minimize(objective, start, method="BFGS", options={"gtol": 1e-12})
    np.testing.assert_allclose(res.x[:-1], opt.mu_p, atol=1e-6)
    assert np.exp(res.x[-1]) == pytest.approx(opt.sigma_p2, abs=1e-6)
    assert res.fun == pytest.approx(gaussian_kl(mu_q, sigma_q, opt), abs=1e-9)


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


def test_estimated_moments_converge_to_exact(world):
    rng = np.random.default_rng(3)
    est = estimate_moments(td.sample_videos(world, 200_000, rng))
    exact = exact_moments(world)
    np.testing.assert_allclose(est.mean, exact.mean, atol=0.02)
    assert est.avg_var == pytest.approx(exact.avg_var, rel=0.02)


def test_verify_optimality_accepts_the_optimum(world, vp):
    M = 0.9
    mu_q, sigma_q = _q_moments(world, vp, M)
    init = optimal_init(exact_moments(world), vp, M)
    res = verify_optimality(mu_q, sigma_q, init)
    assert res["passed"]
    assert res["margin"] > 1e-9
    assert res["sigma_formula_gap"] <= 1e-10
    assert len(res["grid"]) == 81
    assert sum(cell["at_optimum"] for cell in res["grid"]) == 1


def test_verify_optimality_rejects_perturbed_inits(world, vp):
    M = 0.9
    mu_q, sigma_q = _q_moments(world, vp, M)
    opt = optimal_init(exact_moments(world), vp, M)
    wide = InitDistribution(mu_p=opt.mu_p, sigma_p2=1.3 * opt.sigma_p2, M=M)
    res = verify_optimality(mu_q, sigma_q, wide)
    assert not res["passed"]
    shifted = InitDistribution(mu_p=opt.mu_p + 0.4, sigma_p2=opt.sigma_p2, M=M)
    res = verify_optimality(mu_q, sigma_q, shifted)
    # some grid cell sits closer to the true optimum than the candidate
    assert res["margin"] < 0.0


def test_init_distribution_round_trip_and_validation():
    # the payload round trip of every dataclass is in test_codec.py
    with pytest.raises(ValueError):
        InitDistribution(mu_p=np.zeros(2), sigma_p2=0.0, M=1.0)
    with pytest.raises(ValueError):
        InitDistribution(mu_p=np.zeros(2), sigma_p2=1.0, M=1.2)
    with pytest.raises(ValueError):
        DataMoments(mean=np.zeros(2), avg_var=-1.0, n_samples=3)
