from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.stats import norm

import toydiffusion as td
from toydiffusion import world as world_module
from toydiffusion.schedule import TIME_CACHE_SIZE, alpha_sigma
from toydiffusion.world import (
    ExactDenoiser,
    GaussianWorld,
    LeakyDenoiser,
    as_eps_prediction,
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
    pinned = replace(world, m0=np.ones(4), s0=0.0)
    np.testing.assert_allclose(prior_frame_cov(pinned), schur, atol=1e-12)


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


@pytest.mark.parametrize("t", [1e-3, 0.05, 0.5, 0.95, 1.0])
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


@pytest.mark.parametrize("t", [1e-6, 0.5, 1.0])
def test_exact_denoiser_handles_singular_conditional_cov(world, vp, t):
    # frame 1 is pinned, so the conditional frame covariance has a zero
    # eigenvalue; the posterior must stay finite and keep frame 1 = y0
    pinned = replace(world, s0=0.0)
    assert np.abs(np.linalg.eigvalsh(prior_frame_cov(pinned))).min() < 1e-12
    rng = np.random.default_rng(10)
    y0 = np.array([0.7, -0.4, 1.5, 0.0])
    xt = rng.standard_normal((5, 8, 4))
    got = ExactDenoiser(world, vp).predict_x0(xt, y0, t)
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got[:, 0, :], np.broadcast_to(y0, (5, 4)), atol=1e-12)
    for i in range(5):
        want = _dense_posterior(world, vp, xt[i].ravel(), t, y0)
        np.testing.assert_allclose(got[i].ravel(), want, atol=1e-10)


def _map_of(den, t):
    """The module cache's (A, c, b) for den at time t."""
    return world_module._affine_map(den.prior, den.schedule, den.lam_max, den.p, t)


def test_exact_denoiser_gain_cache(world, vp):
    # one affine map (A, c, b) per distinct key, in one bounded module
    # cache, read-only
    world_module._affine_map.cache_clear()
    den = ExactDenoiser(world, vp)
    xt = np.random.default_rng(11).standard_normal((3, 8, 4))
    y0 = np.array([0.5, -1.0, 0.0, 2.0])
    for t in (0.3, 0.7, 0.3, np.float64(0.7)):
        den.predict_x0(xt, y0, t)
    info = world_module._affine_map.cache_info()
    assert (info.misses, info.hits, info.maxsize) == (2, 2, TIME_CACHE_SIZE)
    a, c, b = _map_of(den, 0.3)
    assert (a.shape, c.shape, b.shape) == ((8, 8), (8, 1), (8, 4))
    # A xt + c y^T + b is the prediction
    np.testing.assert_array_equal(a @ xt + c * y0 + b, den.predict_x0(xt, y0, 0.3))
    for array in (a, c, b):
        with pytest.raises(ValueError):
            array[0, 0] = 1.0
    # a LeakyDenoiser fills the same cache through the same path
    leaky = LeakyDenoiser(world, vp, 0.5, 2.0)
    leaky.predict_x0(xt, y0, 0.3)
    assert world_module._affine_map.cache_info().currsize == 3
    # two leaks on one world get two maps, and the leak, not the
    # denoiser, picks the map
    other = LeakyDenoiser(world, vp, 0.9, 1.0)
    ours, theirs = _map_of(leaky, 0.3), _map_of(other, 0.3)
    assert not np.array_equal(ours[0], theirs[0])
    borrowed = world_module._affine_map(leaky.prior, vp, other.lam_max, other.p, 0.3)
    for got, want in zip(borrowed, theirs):
        np.testing.assert_array_equal(got, want)
    assert not np.array_equal(leaky.predict_x0(xt, y0, 0.3),
                              other.predict_x0(xt, y0, 0.3))


def test_conditional_denoisers_on_one_world_share_maps(world, vp):
    # the pinned prior is made once per world, so a second conditional
    # denoiser on the world reads the first one's map
    world_module._affine_map.cache_clear()
    xt = np.random.default_rng(12).standard_normal((3, 8, 4))
    y0 = np.array([0.5, -1.0, 0.0, 2.0])
    first, second = ExactDenoiser(world, vp), ExactDenoiser(world, vp)
    assert second.prior is first.prior
    got = [den.predict_x0(xt, y0, 0.5) for den in (first, second)]
    info = world_module._affine_map.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    # the same bytes as a map built on a pinned world of its own
    a, c, b = world_module._affine_map(replace(world, s0=0.0), vp, 0.0, 1.0, 0.5)
    for out in got:
        np.testing.assert_array_equal(out, (a @ xt + c * y0) + b)


def test_exact_prediction_is_a_fresh_array(world, vp):
    # writing into one result changes neither the cache nor the next result
    den = ExactDenoiser(world, vp)
    xt = np.random.default_rng(12).standard_normal((3, 8, 4))
    y0 = np.array([0.5, -1.0, 0.0, 2.0])
    first = den.predict_x0(xt, y0, 0.4)
    kept = first.copy()
    assert first.flags.writeable
    for array in _map_of(den, 0.4):
        assert not np.shares_memory(first, array)
    first[...] = np.nan
    np.testing.assert_array_equal(den.predict_x0(xt, y0, 0.4), kept)


@pytest.mark.parametrize("per_chain", [False, True], ids=["shared", "per-chain"])
@pytest.mark.parametrize("schedule_name", ["vp", "ve"])
def test_leaky_without_leak_is_the_exact_denoiser(request, world, schedule_name,
                                                  per_chain):
    # lam_max = 0 folds a zero leak into the same map, bit for bit
    schedule = request.getfixturevalue(schedule_name)
    rng = np.random.default_rng(13)
    xt = rng.standard_normal((5, 8, 4))
    y0 = rng.standard_normal((5, 4) if per_chain else 4)
    exact = ExactDenoiser(world, schedule)
    for p in (0.5, 1.0, 3.0):
        plain = LeakyDenoiser(world, schedule, lam_max=0.0, p=p)
        for t in (1e-6, 0.3, 1.0):
            np.testing.assert_array_equal(plain.predict_x0(xt, y0, t),
                                          exact.predict_x0(xt, y0, t))


# ---------------------------------------------------------------------------
# world plumbing


def test_world_arrays_are_read_only():
    # denoisers precompute from m0 and drift, so neither may change
    w = GaussianWorld(m0=[0.0, 1.0, 2.0, 3.0], drift=0.1)
    for vec in (w.m0, w.drift):
        with pytest.raises(ValueError):
            vec[0] = 5.0
        with pytest.raises(ValueError):
            vec += 1.0
    # a world built from another's arrays copies them
    assert not np.shares_memory(GaussianWorld(m0=w.m0).m0, w.m0)


def test_world_round_trip_and_broadcast():
    w = GaussianWorld(n_frames=5, frame_dim=3, m0=1.0, drift=-0.2)
    assert w.m0.shape == (3,) and w.drift.shape == (3,)
    # the payload round trip of every dataclass is in test_codec.py
    assert w.flat_dim == 15


def test_world_validation():
    with pytest.raises(ValueError):
        GaussianWorld(n_frames=0)
    with pytest.raises(ValueError):
        GaussianWorld(s0=-1.0)
    with pytest.raises(ValueError):
        GaussianWorld(m0=np.zeros(3), frame_dim=4)
    with pytest.raises(ValueError, match="n_frames"):
        GaussianWorld(n_frames=1)  # one frame has no motion to score
    # non-finite fields, and magnitudes whose prior covariance trace
    # N s0^2 + s_w^2 N (N - 1) / 2 overflows, are rejected by name
    for kwargs, name in [
        (dict(s0=np.nan), "s0"), (dict(s0=1e308), "s0"), (dict(s0=6.4e153), "s0"),
        (dict(s_w=np.inf), "s_w"), (dict(s_w=1e200), "s_w"),
        (dict(drift=np.inf), "drift"), (dict(m0=[0.0, np.nan, 0.0, 0.0]), "m0"),
    ]:
        with pytest.raises(ValueError, match=name):
            GaussianWorld(**kwargs)
    GaussianWorld(s0=1e150)


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
