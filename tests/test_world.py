import math
import re
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
    conditional_moments,
    expected_motion_score,
    kron_cov,
    marginal_moments_at,
    prior_frame_cov,
    prior_moments,
    sample_videos,
    videos_from_noise,
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
    vids = sample_videos(replace(world, m0=y0, s0=0.0), 200_000, rng)
    mean, cov = conditional_moments(world, y0)
    np.testing.assert_allclose(vids.mean(axis=0), mean, atol=0.02)
    emp = np.zeros_like(cov)
    for k in range(world.frame_dim):
        emp += np.cov(vids[:, :, k].T, bias=True)
    emp /= world.frame_dim
    np.testing.assert_allclose(emp, cov, atol=0.03)
    np.testing.assert_array_equal(vids[:, 0, :], np.broadcast_to(y0, (200_000, 4)))
    with pytest.raises(ValueError,
                       match=r"^y0's shape must be one of \(4,\), got \(3,\)$"):
        conditional_moments(world, y0[:3])  # a (3,) frame in a 4-d world


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


@pytest.mark.parametrize("s_w, message", [
    (-0.5, "s_w must lie in (0, inf), got array(-0.5)"),
    (0.0, "s_w must lie in (0, inf), got array(0.)"),
    (np.array([0.5, -0.5]), "s_w must lie in (0, inf), got array([ 0.5, -0.5])"),
], ids=["scalar", "zero", "per-video"])
def test_expected_motion_score_needs_a_positive_s_w(world, s_w, message):
    # a mean absolute difference came out negative, -3.013 at s_w = -0.5
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        expected_motion_score(world, s_w)


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
    mean, sig0 = mean.ravel(), kron_cov(frame_cov, world.frame_dim)
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
    mean = mean.ravel()
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
    x0 = sample_videos(replace(world, m0=y0, s0=0.0), 20_000, rng)
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
    # the exact family takes one time per call, a per-item t by name
    for t in (np.array([0.1, 0.4, 0.7, 1.0]), np.array([0.5])):
        with pytest.raises(ValueError, match=re.escape(
                f"exact prediction time t's shape must be one of (), got {t.shape}")):
            den.predict_x0(np.zeros((4, 8, 4)), np.zeros(4), t)
    # a transposed 4 x 8 video has the 32 entries of an 8 x 4 one: the
    # trained denoiser read it at that width and returned a (3, 4, 8) array
    model = td.MLPDenoiser(world.n_frames, world.frame_dim, hidden=8)
    trained = td.TrainedDenoiser(model, model.init_params(np.random.default_rng(0)), vp)
    # one input rule for both families: a condition is one frame or one per
    # video, never another shape that numpy would broadcast or fail on
    for den in (den, LeakyDenoiser(world, vp, 0.8, 4.0), trained):
        with pytest.raises(ValueError, match=re.escape(
                "video batch's shape must be one of (3, 8, 4), got (3, 4, 8)")):
            den.predict_x0(np.zeros((3, 4, 8)), np.zeros(4), 0.5)
        for xt, y, allowed in (((3, 8, 4), (8,), "(4,), (3, 4)"),
                               ((5, 8, 4), (3, 4), "(4,), (5, 4)"),
                               ((8, 4), (5, 4), "(4,)"),  # one video: one frame
                               ((2, 5, 8, 4), (5, 4), "(4,), (2, 5, 4)")):
            with pytest.raises(ValueError, match=re.escape(
                    f"condition's shape must be one of {allowed}, got {y}")):
                den.predict_x0(np.zeros(xt), np.zeros(y), 0.5)
    # the trained family's time and motion are one value or one per video,
    # checked before any input row is written
    xt, y = np.zeros((5, 8, 4)), np.zeros((5, 4))
    t = np.linspace(0.2, 1.0, 5)
    with pytest.raises(ValueError, match=re.escape(
            "time's shape must be one of (), (5,), got (3,)")):
        trained.predict_x0(xt, y, t[:3])
    mf = td.MLPDenoiser(world.n_frames, world.frame_dim, hidden=8, motion_feature=True)
    mf_params = mf.init_params(np.random.default_rng(0))
    with pytest.raises(ValueError, match=re.escape(
            "motion's shape must be one of (), (5,), got (3,)")):
        td.TrainedDenoiser(mf, mf_params, vp, motion_value=[1.0, 2.0, 3.0]).predict_x0(
            xt, y, 0.5)
    # one per video over a (2, 5) grid of videos is each video's own
    grid = np.random.default_rng(1).standard_normal((2, 5, 8, 4))
    got = td.TrainedDenoiser(mf, mf_params, vp, motion_value=np.full((2, 5), 1.5)
                             ).predict_x0(grid, np.zeros((2, 5, 4)), t * np.ones((2, 1)))
    flat = td.TrainedDenoiser(mf, mf_params, vp, motion_value=1.5).predict_x0(
        grid.reshape(10, 8, 4), np.zeros(4), np.tile(t, 2))
    np.testing.assert_array_equal(got, flat.reshape(grid.shape))


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


@pytest.mark.parametrize("p", [math.inf, -math.inf, math.nan])
def test_leaky_denoiser_rejects_a_non_finite_exponent(world, vp, p):
    # p = inf made the leak 0 below t = 1 and lam_max at t = 1
    with pytest.raises(ValueError, match=rf"^p must lie in \(0, inf\), got {p!r}$"):
        LeakyDenoiser(world, vp, lam_max=0.5, p=p)


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


def test_step_map_rejects_the_times_prediction_and_ddim_step_reject(world, vp, ve):
    # step_map(0.3, 0.5) returned an upward map, and step_map(0.0) a map on
    # VE and numpy's "Singular matrix" on VP; an invalid time is not cached
    world_module._affine_map.cache_clear()
    for schedule in (vp, ve):
        den = ExactDenoiser(world, schedule)
        for t, t_to in ((0.3, 0.5), (0.5, -0.1), (0.5, math.nan)):
            with pytest.raises(ValueError, match=re.escape(
                    "need 0 <= t_to <= t_from <= 1")):
                den.step_map(t, t_to)
            with pytest.raises(ValueError, match=re.escape(
                    "need 0 <= t_to <= t_from <= 1")):
                td.ddim_step(den, np.zeros((8, 4)), np.zeros(4), t, t_to, schedule)
        for t in (0.0, -0.1, 1.5, math.nan):
            with pytest.raises(ValueError, match=re.escape(
                    "exact prediction time t must lie in (0, 1], got")):
                den.step_map(t)
    assert world_module._affine_map.cache_info().currsize == 0


def test_step_map_from_a_noiseless_time_is_rejected_before_the_solve(world, vp):
    # the exact map raised numpy's "Singular matrix" and the leaky step
    # ZeroDivisionError; neither named the time
    world_module._affine_map.cache_clear()
    for den, times in ((ExactDenoiser(world, vp), (1e-20,)),
                       (LeakyDenoiser(world, vp, 0.6, 1.5), (1e-20, 5e-21))):
        with pytest.raises(ValueError, match=r"^no noise to remove at t_from = 1e-20"):
            den.step_map(*times)
    assert world_module._affine_map.cache_info().currsize == 0


def test_exact_denoiser_gain_cache(world, vp):
    # one affine map W = [A | c | beta] per distinct key, in one bounded
    # module cache, read-only
    world_module._affine_map.cache_clear()
    den = ExactDenoiser(world, vp)
    xt = np.random.default_rng(11).standard_normal((3, 8, 4))
    y0 = np.array([0.5, -1.0, 0.0, 2.0])
    for t in (0.3, 0.7, 0.3, np.float64(0.7)):
        den.predict_x0(xt, y0, t)
    info = world_module._affine_map.cache_info()
    assert (info.misses, info.hits, info.maxsize) == (2, 2, TIME_CACHE_SIZE)
    w = den.step_map(0.3)
    assert w.shape == (8, 10)
    # A xt + c y^T + beta drift^T is the prediction
    np.testing.assert_array_equal(
        w[:, :8] @ xt + w[:, 8:9] * y0 + w[:, 9:] * world.drift,
        den.predict_x0(xt, y0, 0.3))
    with pytest.raises(ValueError):
        w[0, 0] = 1.0
    # a LeakyDenoiser fills the same cache through the same path
    leaky = LeakyDenoiser(world, vp, 0.5, 2.0)
    leaky.predict_x0(xt, y0, 0.3)
    assert world_module._affine_map.cache_info().currsize == 3
    # two leaks on one world get two maps, and the leak value, not the
    # denoiser, picks the map: 0.4 * 0.5 and 0.8 * 0.5^2 are one double
    other = LeakyDenoiser(world, vp, 0.9, 1.0)
    assert not np.array_equal(leaky.step_map(0.3), other.step_map(0.3))
    assert not np.array_equal(leaky.predict_x0(xt, y0, 0.3),
                              other.predict_x0(xt, y0, 0.3))
    linear = LeakyDenoiser(world, vp, 0.4, 1.0)
    square = LeakyDenoiser(world, vp, 0.8, 2.0)
    assert linear.leak(0.5) == square.leak(0.5)
    assert square.step_map(0.5) is linear.step_map(0.5)


def test_conditional_denoisers_on_one_world_share_maps(world, vp):
    # maps are keyed by world, not by denoiser, so a second conditional
    # denoiser on the world, and a leaky one without leak, read the first
    # one's map
    world_module._affine_map.cache_clear()
    xt = np.random.default_rng(12).standard_normal((3, 8, 4))
    y0 = np.array([0.5, -1.0, 0.0, 2.0])
    dens = (ExactDenoiser(world, vp), ExactDenoiser(world, vp),
            LeakyDenoiser(world, vp, 0.0, 2.0))
    got = [den.predict_x0(xt, y0, 0.5) for den in dens]
    info = world_module._affine_map.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    # the same bytes as the map of a world pinned at frame 1 on its own
    pinned = ExactDenoiser(replace(world, s0=0.0), vp, conditional=False)
    w = pinned.step_map(0.5)
    for out in got:
        np.testing.assert_array_equal(
            out, (w[:, :8] @ xt + w[:, 8:9] * y0) + w[:, 9:] * world.drift)


def test_exact_prediction_is_a_fresh_array(world, vp):
    # writing into one result changes neither the cache nor the next result
    den = ExactDenoiser(world, vp)
    xt = np.random.default_rng(12).standard_normal((3, 8, 4))
    y0 = np.array([0.5, -1.0, 0.0, 2.0])
    first = den.predict_x0(xt, y0, 0.4)
    kept = first.copy()
    assert first.flags.writeable
    assert not np.shares_memory(first, den.step_map(0.4))
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
        (dict(frame_dim=0), "frame_dim"), (dict(s_w=0.0), "s_w"),
    ]:
        with pytest.raises(ValueError, match=name):
            GaussianWorld(**kwargs)
    GaussianWorld(s0=1e150, s_w=1e143)


def test_overflowing_frame_means_are_rejected():
    # frame N's mean is m0 + (N - 1) drift; a drift of 3e307 over 7 frames
    # used to write inf into the last frames of a sample
    merged = re.escape("m0 and drift overflow the frame means m0 + (i - 1) * drift")
    with pytest.raises(ValueError, match=f"^{merged}$"):
        GaussianWorld(drift=[3e307, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match=f"^{merged}$"):
        GaussianWorld(n_frames=3, drift=-1e308)
    with pytest.raises(ValueError, match="m0 and drift overflow"):
        GaussianWorld(m0=[0.0, 1.7e308, 0.0, 0.0], drift=[0.0, 1e307, 0.0, 0.0])
    # finite offsets and means are kept, however large, while the frames
    # move by the drift
    world = GaussianWorld(drift=[1.5e307, 0.0, 0.0, 0.0])
    assert np.isfinite(sample_videos(world, 2, np.random.default_rng(0))).all()
    GaussianWorld(m0=-1.7e308, drift=2.5e307)


def test_a_world_whose_frames_would_not_move_is_rejected():
    # next to an m0 of 1e307 the increments drift + s_w z rounded away, so
    # every video was static, prop1-check failed its grid and motion-sweep
    # reported an output motion of 1.8e305 against an input motion of 3
    for kwargs in (dict(m0=1e307), dict(m0=[0.0, 0.0, -1e17, 0.0]),
                   dict(m0=1e306, drift=[0.0, 1e300, 0.0, 0.0])):
        with pytest.raises(ValueError, match=r"increments, of scale \|drift\| \+ s_w, "
                                             "round away next to the frame means"):
            GaussianWorld(**kwargs)
    # at 1e15 the spacing of doubles is 1/8, so the frames still move
    videos = sample_videos(GaussianWorld(m0=1e15), 2, np.random.default_rng(0))
    assert (np.diff(videos, axis=1) != 0).any(axis=(1, 2)).all()


def test_a_world_whose_s_w_rounds_away_next_to_s0_is_rejected():
    # at s0 = 1e9 the prior frame covariance had rank one, all its entries
    # equal, and every command ran on it and exited 0
    for kwargs, values in [(dict(s0=1e9), "s_w = 0.5 rounds away next to s0 = 1000000000.0"),
                           (dict(s_w=1e-150), "s_w = 1e-150 rounds away next to s0 = 1.0")]:
        with pytest.raises(ValueError, match="^" + re.escape(
                f"{values} in the prior frame covariance: s0^2 + s_w^2 == s0^2") + "$"):
            GaussianWorld(**kwargs)
    cov = prior_frame_cov(GaussianWorld(s0=1e9, s_w=1e2))
    assert cov[1, 1] > cov[0, 0]


def test_wrong_length_mean_vectors_are_rejected():
    # a 3-vector m0 in a 4-dimensional world failed inside numpy's
    # broadcast with no field named
    for name in ("m0", "drift"):
        for value in ([1.0, 2.0, 3.0], np.zeros(5), np.zeros((1, 4))):
            with pytest.raises(ValueError, match="^" + re.escape(
                    f"{name}'s shape must be one of (), (1,), (4,), got {np.shape(value)}")):
                GaussianWorld(**{name: value})
        for value in (0.5, [0.5], [0.1, 0.2, 0.3, 0.4]):
            vec = getattr(GaussianWorld(**{name: value}), name)
            np.testing.assert_array_equal(vec, np.broadcast_to(value, (4,)))


def test_sample_video_shape(world):
    v = sample_videos(world, 1, np.random.default_rng(9))
    assert v.shape == (1, 8, 4)
    # a per-video innovation scale: zero scale leaves pure drift
    inc = np.random.default_rng(9).standard_normal((2, 7, 4))
    v = videos_from_noise(world, np.zeros((2, 4)), inc, s_w=[0.0, 1.0])
    assert v.shape == (2, 8, 4)
    np.testing.assert_allclose(
        np.diff(v[0], axis=0), np.broadcast_to(world.drift, (7, 4)), atol=1e-12
    )
    assert not np.allclose(np.diff(v[1], axis=0), world.drift)
    # one scale per video or one for all: a list of another length is
    # rejected, not broadcast
    for s_w in ([0.1, 0.2], [0.1]):
        with pytest.raises(ValueError, match=re.escape(
                f"per-item coefficient's shape must be one of (5,), got ({len(s_w)},)")):
            videos_from_noise(world, np.zeros((5, 4)), np.ones((5, 7, 4)), s_w=s_w)
