import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.stats import norm

import toydiffusion as td
from toydiffusion.schedule import alpha_sigma
from toydiffusion.world import (
    ExactDenoiser,
    GaussianWorld,
    LeakyDenoiser,
    _chol,
    as_eps_prediction,
    broadcast_condition,
    conditional_frame_cov,
    conditional_moments,
    expected_motion_score,
    kron_cov,
    marginal_moments_at,
    prior_frame_cov,
    prior_moments,
    sample_videos,
    x0_from_eps,
)

# ---------------------------------------------------------------------------
# moments


def test_prior_cov_formula_vs_monte_carlo(world):
    rng = np.random.default_rng(0)
    vids = sample_videos(world, 200_000, rng)
    c = prior_frame_cov(world)
    # every coordinate channel is an iid copy of the same N-frame process
    emp = np.zeros_like(c)
    for k in range(world.frame_dim):
        x = vids[:, :, k]
        emp += np.cov(x.T, bias=True)
    emp /= world.frame_dim
    np.testing.assert_allclose(emp, c, atol=0.03)


def test_prior_cov_structure(world):
    c = prior_frame_cov(world)
    # random walk: var grows linearly, first row is flat at s0^2
    np.testing.assert_allclose(np.diag(c), 1.0 + 0.25 * np.arange(8.0), atol=1e-12)
    np.testing.assert_allclose(c[0], np.ones(8), atol=1e-12)


def test_conditional_cov_is_schur_complement(world):
    # conditioning a Gaussian on its first frame: C' = C - C[:,0] C[0,:] / C[0,0]
    c = prior_frame_cov(world)
    schur = c - np.outer(c[:, 0], c[0, :]) / c[0, 0]
    np.testing.assert_allclose(conditional_frame_cov(world), schur, atol=1e-12)


def test_conditional_sampling_matches_closed_form(world):
    rng = np.random.default_rng(1)
    y0 = np.array([0.5, -1.0, 2.0, 0.0])
    vids = sample_videos(world, 200_000, rng, first=y0)
    mean_flat, cov = conditional_moments(world, y0)
    np.testing.assert_allclose(
        vids.reshape(-1, world.flat_dim).mean(axis=0), mean_flat, atol=0.02
    )
    emp = np.zeros_like(cov)
    for k in range(world.frame_dim):
        emp += np.cov(vids[:, :, k].T, bias=True)
    emp /= world.frame_dim
    np.testing.assert_allclose(emp, cov, atol=0.03)
    np.testing.assert_array_equal(vids[:, 0, :], np.broadcast_to(y0, (200_000, 4)))


def test_marginal_moments_at(world, vp):
    t = 0.45
    a, s = alpha_sigma(vp, t)
    mean_t, cov_t = marginal_moments_at(world, vp, t)
    mean0, cov0 = prior_moments(world)
    np.testing.assert_allclose(mean_t, a * mean0, rtol=1e-14)
    np.testing.assert_allclose(cov_t, a * a * cov0 + s * s * np.eye(8), rtol=1e-14)


@given(
    st.integers(2, 10),
    st.floats(0.1, 3.0),
    st.floats(-1.0, 1.0),
    st.floats(0.05, 2.0),
)
def test_prior_cov_positive_semidefinite(n, s0, drift, s_w):
    w = GaussianWorld(n_frames=n, frame_dim=2, s0=s0, drift=drift, s_w=s_w)
    eigs = np.linalg.eigvalsh(prior_frame_cov(w))
    assert eigs.min() > -1e-10


# ---------------------------------------------------------------------------
# motion score


def test_expected_motion_score_closed_form(world):
    # folded-normal oracle: each frame-to-frame increment is N(drift, s_w^2)
    m, s = 0.2, 0.5
    e_abs = s * np.sqrt(2 / np.pi) * np.exp(-(m * m) / (2 * s * s)) + m * (
        1 - 2 * norm.cdf(-m / s)
    )
    assert expected_motion_score(world) == pytest.approx(7 * e_abs, rel=1e-12)
    assert expected_motion_score(world) == pytest.approx(3.0130718586321708, rel=1e-12)


def test_expected_motion_score_vs_monte_carlo(world):
    rng = np.random.default_rng(2)
    ms = td.motion_scores(sample_videos(world, 300_000, rng))
    assert float(ms.mean()) == pytest.approx(expected_motion_score(world), rel=5e-3)


def test_expected_motion_score_vector_drift():
    w = GaussianWorld(n_frames=5, frame_dim=2, drift=np.array([0.1, -0.3]), s_w=0.4)
    per_coord = []
    for m in (0.1, -0.3):
        s = 0.4
        per_coord.append(
            s * np.sqrt(2 / np.pi) * np.exp(-(m * m) / (2 * s * s))
            + m * (1 - 2 * norm.cdf(-m / s))
        )
    expected = 4 * np.mean(per_coord)
    assert expected_motion_score(w) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# denoisers


def _dense_posterior(world, schedule, xt_flat, t, y0=None):
    """Independent oracle: full (N d) x (N d) Gaussian conditioning."""
    a, s = alpha_sigma(schedule, t)
    if y0 is None:
        mean, frame_cov = prior_moments(world)
    else:
        mean, frame_cov = conditional_moments(world, y0)
    sig0 = kron_cov(frame_cov, world.frame_dim)
    sig_t = a * a * sig0 + s * s * np.eye(world.flat_dim)
    return mean + a * sig0 @ np.linalg.solve(sig_t, xt_flat - a * mean)


@pytest.mark.parametrize("t", [0.05, 0.5, 0.95])
@pytest.mark.parametrize("conditional", [True, False])
def test_exact_denoiser_matches_dense_solve(world, vp, t, conditional):
    rng = np.random.default_rng(3)
    y0 = np.array([1.0, 0.0, -2.0, 0.5])
    xt = rng.standard_normal((6, 8, 4))
    den = ExactDenoiser(world, vp, conditional=conditional)
    got = den.predict_x0(xt, y0 if conditional else None, t)
    for i in range(6):
        want = _dense_posterior(
            world, vp, xt[i].ravel(), t, y0 if conditional else None
        )
        np.testing.assert_allclose(got[i].ravel(), want, atol=1e-10)


def test_exact_denoiser_single_and_batched_y(world, vp):
    rng = np.random.default_rng(4)
    den = ExactDenoiser(world, vp)
    xt = rng.standard_normal((3, 8, 4))
    ys = rng.standard_normal((3, 4))
    batched = den.predict_x0(xt, ys, 0.3)
    for i in range(3):
        one = den.predict_x0(xt[i], ys[i], 0.3)
        np.testing.assert_allclose(one, batched[i], atol=1e-12)
        assert one.shape == (8, 4)


def test_exact_denoiser_tweedie_identity(world, vp):
    # E[x0|xt] = (xt + sigma^2 grad log q_t(xt)) / alpha with the Gaussian score
    rng = np.random.default_rng(5)
    t = 0.6
    a, s = alpha_sigma(vp, t)
    y0 = np.array([0.3, 0.3, -0.1, 1.2])
    mean, frame_cov = conditional_moments(world, y0)
    sig_t = a * a * kron_cov(frame_cov, 4) + s * s * np.eye(32)
    xt = rng.standard_normal(32)
    score = -np.linalg.solve(sig_t, xt - a * mean)
    tweedie = (xt + s * s * score) / a
    den = ExactDenoiser(world, vp)
    got = den.predict_x0(xt.reshape(8, 4), y0, t)
    np.testing.assert_allclose(got.ravel(), tweedie, atol=1e-8)


def test_exact_denoiser_is_mse_optimal(world, vp):
    # the posterior mean must beat a perturbed predictor on fresh draws
    rng = np.random.default_rng(6)
    t = 0.5
    y0 = np.zeros(4)
    x0 = sample_videos(world, 20_000, rng, first=y0)
    from toydiffusion.schedule import perturb

    xt, _ = perturb(vp, x0, t, rng)
    den = ExactDenoiser(world, vp)
    pred = den.predict_x0(xt, y0, t)
    mse_exact = float(np.mean((pred - x0) ** 2))
    mse_perturbed = float(np.mean((pred * 1.05 - x0) ** 2))
    assert mse_exact < mse_perturbed


def test_exact_denoiser_validates_inputs(world, vp):
    den = ExactDenoiser(world, vp)
    with pytest.raises(ValueError):
        den.predict_x0(np.zeros((8, 4)), np.zeros(4), 0.0)
    with pytest.raises(ValueError):
        den.predict_x0(np.zeros((8, 4)), None, 0.5)


def test_eps_x0_round_trip(world, vp):
    rng = np.random.default_rng(7)
    xt = rng.standard_normal((8, 4))
    x0_hat = rng.standard_normal((8, 4))
    eps = as_eps_prediction(x0_hat, xt, vp, 0.7)
    np.testing.assert_allclose(x0_from_eps(eps, xt, vp, 0.7), x0_hat, atol=1e-10)
    with pytest.raises(ValueError):
        as_eps_prediction(x0_hat, xt, vp, 0.0)  # sigma = 0, eps undefined


def test_leaky_denoiser_blend(world, vp):
    rng = np.random.default_rng(8)
    y0 = np.array([2.0, -1.0, 0.0, 0.5])
    xt = rng.standard_normal((8, 4))
    t = 0.9
    leaky = LeakyDenoiser(world, vp, lam_max=0.8, p=4.0)
    lam = 0.8 * t**4
    assert leaky.leak(t) == pytest.approx(lam, rel=1e-14)
    exact = ExactDenoiser(world, vp).predict_x0(xt, y0, t)
    expected = (1 - lam) * exact + lam * np.broadcast_to(y0, (8, 4))
    np.testing.assert_allclose(leaky.predict_x0(xt, y0, t), expected, atol=1e-12)
    # lam_max = 0 reduces to the exact denoiser
    plain = LeakyDenoiser(world, vp, lam_max=0.0, p=1.0)
    np.testing.assert_allclose(plain.predict_x0(xt, y0, t), exact, atol=1e-14)
    with pytest.raises(ValueError):
        LeakyDenoiser(world, vp, lam_max=1.5, p=1.0)
    with pytest.raises(ValueError):
        LeakyDenoiser(world, vp, lam_max=0.5, p=0.0)


def test_broadcast_condition_shapes():
    y = np.array([1.0, 2.0])
    np.testing.assert_array_equal(
        broadcast_condition(y, 3), np.tile(y, (3, 1))
    )
    yb = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = broadcast_condition(yb, 3)
    assert out.shape == (2, 3, 2)
    np.testing.assert_array_equal(out[1], np.tile(yb[1], (3, 1)))


def test_chol_jitter_handles_singular_psd():
    from scipy.linalg import cho_solve

    mat = np.ones((3, 3))  # rank one, exactly singular
    factor = _chol(mat)
    x = cho_solve(factor, np.ones(3))
    assert np.all(np.isfinite(x))


# ---------------------------------------------------------------------------
# world plumbing


def test_world_round_trip_and_broadcast():
    w = GaussianWorld(n_frames=5, frame_dim=3, m0=1.0, drift=-0.2)
    assert w.m0.shape == (3,) and w.drift.shape == (3,)
    back = GaussianWorld.from_dict(w.to_dict())
    assert back.n_frames == 5 and back.frame_dim == 3
    np.testing.assert_array_equal(back.m0, w.m0)
    np.testing.assert_array_equal(back.drift, w.drift)
    assert back.s0 == w.s0 and back.s_w == w.s_w
    assert w.flat_dim == 15


def test_world_validation():
    with pytest.raises(ValueError):
        GaussianWorld(n_frames=0)
    with pytest.raises(ValueError):
        GaussianWorld(s0=-1.0)
    with pytest.raises(ValueError):
        GaussianWorld(m0=np.zeros(3), frame_dim=4)


def test_sample_video_shape(world):
    v = sample_videos(world, 1, np.random.default_rng(9))
    assert v.shape == (1, 8, 4)
    # a per-video innovation scale: zero scale leaves pure drift
    v = sample_videos(world, 2, np.random.default_rng(9), s_w=[0.0, 1.0])
    assert v.shape == (2, 8, 4)
    np.testing.assert_allclose(
        np.diff(v[0], axis=0), np.broadcast_to(world.drift, (7, 4)), atol=1e-12
    )
    assert not np.allclose(np.diff(v[1], axis=0), world.drift)
