import numpy as np
import pytest

import toydiffusion as td
from toydiffusion.timenoise import constant_beta
from toydiffusion.train import (
    CDM_FIXED,
    CONSTANT_BETA,
    EDM_LOGNORMAL,
    F_TIME,
    NAIVE,
    TIMENOISE,
    Batch,
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
    time_features,
    train,
)

TN = td.TimeNoiseParams(beta_m=2.0, a=5.0)


def test_time_features_layout():
    f = time_features(0.0)
    assert f.shape == (1, F_TIME)
    # [t, sin(2 pi k t) x4, cos(2 pi k t) x4] at t=0
    np.testing.assert_allclose(f[0], [0, 0, 0, 0, 0, 1, 1, 1, 1], atol=1e-15)
    f = time_features([0.25, 0.5])
    assert f.shape == (2, F_TIME)
    np.testing.assert_allclose(
        f[0], [0.25, 1, 0, -1, 0, 0, -1, 0, 1], atol=1e-12
    )


def test_build_inputs_layout(world):
    model = MLPDenoiser(world.n_frames, world.frame_dim)
    assert model.in_dim == 32 + 4 + F_TIME
    rng = np.random.default_rng(0)
    xt = rng.standard_normal((3, 8, 4))
    y = rng.standard_normal((3, 4))
    x, single = model.build_inputs(xt, y, 0.3)
    assert not single and x.shape == (3, model.in_dim)
    np.testing.assert_array_equal(x[:, :32], xt.reshape(3, -1))
    np.testing.assert_array_equal(x[:, 32:36], y)
    np.testing.assert_allclose(x[:, 36:], np.broadcast_to(time_features(0.3), (3, 9)))


def test_forward_shapes_and_single_item(world):
    model = MLPDenoiser(world.n_frames, world.frame_dim)
    params = model.init_params(np.random.default_rng(1))
    xt = np.random.default_rng(2).standard_normal((5, 8, 4))
    y = np.zeros(4)
    out = model.forward(params, xt, y, 0.5)
    assert out.shape == (5, 8, 4)
    one = model.forward(params, xt[0], y, 0.5)
    np.testing.assert_allclose(one, out[0], atol=1e-12)


def test_init_params_bounds_and_count(world):
    model = MLPDenoiser(world.n_frames, world.frame_dim, hidden=16)
    params = model.init_params(np.random.default_rng(3))
    assert params.size == model.n_params
    w1, b1, w2, b2, w3, b3 = model.unpack(params)
    assert w1.shape == (model.in_dim, 16) and w3.shape == (16, 32)
    assert np.abs(w1).max() <= 1 / np.sqrt(model.in_dim)
    assert np.abs(w2).max() <= 1 / np.sqrt(16)


@pytest.mark.parametrize("mode", [NAIVE, TIMENOISE, CDM_FIXED, CONSTANT_BETA])
def test_manual_gradient_matches_finite_differences(world, vp, mode):
    cfg = TrainConfig(
        mode=mode,
        batch_size=8,
        timenoise=TN if mode in (TIMENOISE, CONSTANT_BETA) else None,
        cdm_beta=0.3 if mode == CDM_FIXED else None,
    )
    model = MLPDenoiser(world.n_frames, world.frame_dim, hidden=12)
    rng = np.random.default_rng(4)
    params = model.init_params(rng)
    batch = make_training_batch(world, vp, cfg, rng)
    _, grad = batch_loss_and_gradient(model, params, batch)
    h = 1e-6
    for _ in range(8):
        u = rng.standard_normal(params.size)
        u /= np.linalg.norm(u)
        fd = (
            batch_loss(model, params + h * u, batch)
            - batch_loss(model, params - h * u, batch)
        ) / (2 * h)
        assert abs(grad @ u - fd) <= 1e-5 * max(1e-8, abs(fd))


def test_loss_value_consistent(world, vp):
    cfg = TrainConfig(mode=NAIVE, batch_size=16)
    model = MLPDenoiser(world.n_frames, world.frame_dim)
    rng = np.random.default_rng(5)
    params = model.init_params(rng)
    batch = make_training_batch(world, vp, cfg, rng)
    loss, grad = batch_loss_and_gradient(model, params, batch)
    assert loss == pytest.approx(batch_loss(model, params, batch), rel=1e-14)
    assert grad.shape == params.shape


def test_uniform_time_sampler_range(vp):
    cfg = TrainConfig(mode=NAIVE, t_floor=1e-3)
    t = sample_training_times(vp, cfg, 10_000, np.random.default_rng(6))
    assert t.min() >= 1e-3 and t.max() < 1.0
    # roughly uniform: mean near 1/2
    assert t.mean() == pytest.approx(0.5, abs=0.02)


def test_edm_time_sampler_ve_median(ve):
    # log sigma ~ N(p_mean, p_std); for the geometric ve schedule the median
    # time is (p_mean - ln sigma_min) / ln(sigma_max / sigma_min)
    cfg = TrainConfig(mode=NAIVE, t_sampler=EDM_LOGNORMAL, p_mean=-1.2, p_std=1.2)
    t = sample_training_times(ve, cfg, 100_000, np.random.default_rng(7))
    expected = (-1.2 - np.log(0.002)) / np.log(700 / 0.002)
    assert np.median(t) == pytest.approx(expected, abs=0.01)
    assert t.min() >= cfg.t_floor and t.max() <= 1.0


def test_zero_corruption_matches_naive_stream(world, vp):
    naive = TrainConfig(mode=NAIVE, batch_size=32)
    noisy = TrainConfig(mode=TIMENOISE, batch_size=32, timenoise=TN)
    a = make_training_batch(world, vp, naive, np.random.default_rng(8))
    b = make_training_batch(world, vp, noisy, np.random.default_rng(8), beta_override=0.0)
    np.testing.assert_array_equal(a.xt, b.xt)
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.t, b.t)
    np.testing.assert_array_equal(a.target, b.target)


def test_cdm_batch_replay(world, vp):
    # replay the documented draw order by hand: videos, times, condition
    # noise, forward noise
    cfg = TrainConfig(mode=CDM_FIXED, batch_size=16, cdm_beta=0.7)
    got = make_training_batch(world, vp, cfg, np.random.default_rng(9))
    rng = np.random.default_rng(9)
    x0 = td.sample_videos(world, 16, rng)
    t = rng.uniform(cfg.t_floor, 1.0, 16)
    eps_y = rng.standard_normal((16, 4))
    from toydiffusion.schedule import perturb

    xt, eps = perturb(vp, x0, t, rng)
    np.testing.assert_allclose(got.y, x0[:, 0, :] + 0.7 * eps_y, atol=1e-15)
    np.testing.assert_allclose(got.xt, xt, atol=1e-15)
    np.testing.assert_allclose(got.target, eps, atol=1e-15)


def test_constant_mode_tracks_center_curve(world, vp):
    cfg = TrainConfig(mode=CONSTANT_BETA, batch_size=16, timenoise=TN)
    got = make_training_batch(world, vp, cfg, np.random.default_rng(10))
    rng = np.random.default_rng(10)
    x0 = td.sample_videos(world, 16, rng)
    t = rng.uniform(cfg.t_floor, 1.0, 16)
    eps_y = rng.standard_normal((16, 4))
    level = constant_beta(TN, t)[:, None]
    np.testing.assert_allclose(got.y, x0[:, 0, :] + level * eps_y, atol=1e-15)


def test_constant_mode_uses_interpolation_variant(world, vp):
    tn = td.TimeNoiseParams(beta_m=1.0, a=5.0, variant="interpolation")
    cfg = TrainConfig(mode=CONSTANT_BETA, batch_size=16, timenoise=tn)
    got = make_training_batch(world, vp, cfg, np.random.default_rng(10))
    rng = np.random.default_rng(10)
    x0 = td.sample_videos(world, 16, rng)
    t = rng.uniform(cfg.t_floor, 1.0, 16)
    eps_y = rng.standard_normal((16, 4))
    level = constant_beta(tn, t)[:, None]
    np.testing.assert_allclose(
        got.y, (1.0 - level) * x0[:, 0, :] + level * eps_y, atol=1e-15
    )


def test_per_item_s_w_batch_replay(world, vp):
    # replay the documented draw order by hand: scale pick, first frames,
    # increments, frame choice, times, forward noise
    cfg = TrainConfig(
        mode=NAIVE, batch_size=16, motion_feature=True, s_w_choices=(0.25, 1.0),
        cond_frame="random", t_sampler=EDM_LOGNORMAL,
    )
    got = make_training_batch(world, vp, cfg, np.random.default_rng(16))
    rng = np.random.default_rng(16)
    s_w = np.array([0.25, 1.0])[rng.integers(0, 2, size=16)]
    first = world.m0 + world.s0 * rng.standard_normal((16, 1, 4))
    z = rng.standard_normal((16, 7, 4))
    inc = world.drift + s_w[:, None, None] * z
    x0 = np.concatenate([first, first + np.cumsum(inc, axis=1)], axis=1)
    idx = rng.integers(0, 8, size=16)
    t = np.clip(
        td.sigma_to_t(vp, np.exp(rng.normal(cfg.p_mean, cfg.p_std, 16))),
        cfg.t_floor, 1.0,
    )
    from toydiffusion.schedule import perturb

    xt, eps = perturb(vp, x0, t, rng)
    np.testing.assert_array_equal(got.y, x0[np.arange(16), idx, :])
    np.testing.assert_array_equal(got.t, t)
    np.testing.assert_array_equal(got.xt, xt)
    np.testing.assert_array_equal(got.target, eps)
    motion = {
        s: td.expected_motion_score(td.GaussianWorld(s_w=s)) for s in (0.25, 1.0)
    }
    np.testing.assert_array_equal(got.motion, [motion[s] for s in s_w])


def test_motion_feature_plumbing(world, vp):
    cfg = TrainConfig(
        mode=NAIVE, batch_size=8, motion_feature=True, s_w_choices=(0.25, 1.0)
    )
    batch = make_training_batch(world, vp, cfg, np.random.default_rng(11))
    assert batch.motion is not None and batch.motion.shape == (8,)
    expected = {
        td.expected_motion_score(td.GaussianWorld(s_w=0.25)),
        td.expected_motion_score(td.GaussianWorld(s_w=1.0)),
    }
    assert set(np.round(batch.motion, 12)) <= set(np.round(sorted(expected), 12))
    model = MLPDenoiser(world.n_frames, world.frame_dim, motion_feature=True)
    assert model.in_dim == 32 + 4 + F_TIME + 1
    params = model.init_params(np.random.default_rng(12))
    with pytest.raises(ValueError):
        model.forward(params, batch.xt, batch.y, batch.t)  # feature missing


def test_training_improves_heldout_loss(world, vp):
    cfg = TrainConfig(mode=NAIVE, steps=1000, seed=0)
    _, history = train(world, vp, cfg, return_history=True)
    assert history["final_heldout"] < 0.5 * history["initial_heldout"]


def test_training_is_deterministic(world, vp):
    cfg = TrainConfig(mode=TIMENOISE, steps=120, seed=5, timenoise=TN)
    a = train(world, vp, cfg)
    b = train(world, vp, cfg)
    assert a["parameters"] == b["parameters"]
    assert a["final_loss"] == b["final_loss"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_training_divergence_is_reported(world, vp):
    # absurd step size overflows the squared loss within a step or two
    cfg = TrainConfig(mode=NAIVE, steps=10, lr=1e200, seed=0)
    with pytest.raises(TrainingDiverged) as err:
        train(world, vp, cfg)
    assert err.value.step >= 1


def test_checkpoint_round_trip(tmp_path, world, vp):
    cfg = TrainConfig(mode=NAIVE, steps=40, seed=1)
    ckpt = train(world, vp, cfg)
    path = tmp_path / "ck.json"
    save_checkpoint(path, ckpt)
    model, params, w2, sch2, cfg2 = load_checkpoint(path)
    np.testing.assert_array_equal(params, np.asarray(ckpt["parameters"]))
    assert sch2 == vp
    assert cfg2 == cfg
    np.testing.assert_array_equal(w2.m0, world.m0)
    den = TrainedDenoiser(model, params, sch2)
    out = den.predict_x0(np.zeros((8, 4)), np.zeros(4), 0.5)
    assert out.shape == (8, 4) and np.all(np.isfinite(out))


def test_checkpoint_version_guard(tmp_path, world, vp):
    ckpt = train(world, vp, TrainConfig(mode=NAIVE, steps=2))
    ckpt["format_version"] = 999
    with pytest.raises(ValueError):
        load_checkpoint(ckpt)


def test_trained_denoiser_spaces_agree(world, vp):
    model = MLPDenoiser(world.n_frames, world.frame_dim)
    params = model.init_params(np.random.default_rng(13))
    den = TrainedDenoiser(model, params, vp)
    xt = np.random.default_rng(14).standard_normal((8, 4))
    from toydiffusion.world import x0_from_eps

    np.testing.assert_allclose(
        den.predict_x0(xt, np.zeros(4), 0.4),
        x0_from_eps(den.predict_eps(xt, np.zeros(4), 0.4), xt, vp, 0.4),
        atol=1e-12,
    )


def test_train_config_round_trip_and_validation():
    cfg = TrainConfig(mode=TIMENOISE, steps=7, timenoise=TN, s_w_choices=[0.1, 0.9])
    back = TrainConfig.from_dict(cfg.to_dict())
    assert back == cfg
    with pytest.raises(ValueError):
        TrainConfig(mode="sgd")
    with pytest.raises(ValueError):
        TrainConfig(mode=TIMENOISE)  # missing timenoise params
    with pytest.raises(ValueError):
        TrainConfig(mode=CDM_FIXED)  # missing cdm_beta
    with pytest.raises(ValueError):
        TrainConfig(mode=NAIVE, t_floor=0.0)
    with pytest.raises(ValueError):
        TrainConfig(mode=NAIVE, lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(mode=NAIVE, cond_frame="last")


def test_batch_container_fields(world, vp):
    cfg = TrainConfig(mode=NAIVE, batch_size=4)
    batch = make_training_batch(world, vp, cfg, np.random.default_rng(15))
    assert isinstance(batch, Batch)
    assert batch.xt.shape == (4, 8, 4)
    assert batch.y.shape == (4, 4)
    assert batch.t.shape == (4,)
    assert batch.target.shape == (4, 8, 4)
    assert batch.motion is None
