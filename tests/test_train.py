import importlib
import re
from dataclasses import replace

import numpy as np
import pytest

import toydiffusion as td
from toydiffusion.codec import ConfigError
from toydiffusion.schedule import perturb
from toydiffusion.timenoise import constant_beta, corrupt, sample_beta
from toydiffusion.world import first_frames
from toydiffusion.train import (
    BLOCK_STEPS,
    CDM_FIXED,
    CONSTANT_BETA,
    EDM_LOGNORMAL,
    F_TIME,
    MODES,
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

train_module = importlib.import_module("toydiffusion.train")

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
    x = model.build_inputs(xt, y, 0.3)
    assert x.shape == (3, model.in_dim)
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


STAGES = ("picks", "first", "increments", "frames", "times", "levels", "condition",
          "noise")


def _streams(rng):
    """The stage streams a batch builder spawns from rng, by stage name."""
    return dict(zip(STAGES, rng.spawn(len(STAGES))))


def _videos(world, streams, b, s_w=None):
    """b videos by hand from the first-frame and increment streams: frame 1
    m0 + s0 z, later frames frame 1 + cumsum(drift + s_w z)."""
    first = first_frames(world, b, streams["first"])[:, None]
    z = streams["increments"].standard_normal((b, world.n_frames - 1, world.frame_dim))
    s_w = world.s_w if s_w is None else np.asarray(s_w)[:, None, None]
    return np.concatenate([first, first + np.cumsum(world.drift + s_w * z, axis=1)],
                          axis=1)


def test_modes_on_one_seed_share_videos_times_and_noise(world, vp):
    # only the levels and the condition noise differ between modes, so every
    # mode trains on the same videos, times and forward noise; a cdm run at
    # level 0 corrupts nothing and has the naive conditions too
    configs = {
        "naive": TrainConfig(mode=NAIVE, batch_size=32),
        "timenoise": TrainConfig(mode=TIMENOISE, batch_size=32, timenoise=TN),
        "cdm": TrainConfig(mode=CDM_FIXED, batch_size=32, cdm_beta=0.7),
        "constant": TrainConfig(mode=CONSTANT_BETA, batch_size=32, timenoise=TN),
        "cdm0": TrainConfig(mode=CDM_FIXED, batch_size=32, cdm_beta=0.0),
    }
    batches = {name: make_training_batch(world, vp, cfg, np.random.default_rng(8))
               for name, cfg in configs.items()}
    naive = batches.pop("naive")
    for name, batch in batches.items():
        for field in ("xt", "t", "target"):
            assert np.array_equal(getattr(batch, field), getattr(naive, field)), name
        assert np.array_equal(batch.y, naive.y) == (name == "cdm0"), name


def test_cdm_batch_replay(world, vp):
    # replay the stages by hand, each from its own stream: videos, times,
    # condition noise, forward noise
    cfg = TrainConfig(mode=CDM_FIXED, batch_size=16, cdm_beta=0.7)
    got = make_training_batch(world, vp, cfg, np.random.default_rng(9))
    streams = _streams(np.random.default_rng(9))
    x0 = _videos(world, streams, 16)
    t = streams["times"].uniform(cfg.t_floor, 1.0, 16)
    eps_y = streams["condition"].standard_normal((16, 4))
    xt, eps = perturb(vp, x0, t, streams["noise"])
    np.testing.assert_allclose(got.y, x0[:, 0, :] + 0.7 * eps_y, atol=1e-15)
    np.testing.assert_allclose(got.xt, xt, atol=1e-15)
    np.testing.assert_allclose(got.target, eps, atol=1e-15)


def test_constant_mode_tracks_center_curve(world, vp):
    cfg = TrainConfig(mode=CONSTANT_BETA, batch_size=16, timenoise=TN)
    got = make_training_batch(world, vp, cfg, np.random.default_rng(10))
    streams = _streams(np.random.default_rng(10))
    x0 = _videos(world, streams, 16)
    t = streams["times"].uniform(cfg.t_floor, 1.0, 16)
    eps_y = streams["condition"].standard_normal((16, 4))
    level = constant_beta(TN, t)[:, None]
    np.testing.assert_allclose(got.y, x0[:, 0, :] + level * eps_y, atol=1e-15)


def test_constant_mode_uses_interpolation_variant(world, vp):
    tn = td.TimeNoiseParams(beta_m=1.0, a=5.0, variant="interpolation")
    cfg = TrainConfig(mode=CONSTANT_BETA, batch_size=16, timenoise=tn)
    got = make_training_batch(world, vp, cfg, np.random.default_rng(10))
    streams = _streams(np.random.default_rng(10))
    x0 = _videos(world, streams, 16)
    t = streams["times"].uniform(cfg.t_floor, 1.0, 16)
    eps_y = streams["condition"].standard_normal((16, 4))
    level = constant_beta(tn, t)[:, None]
    np.testing.assert_allclose(
        got.y, (1.0 - level) * x0[:, 0, :] + level * eps_y, atol=1e-15
    )


def test_per_item_s_w_batch_replay(world, vp):
    # replay the stages by hand, each from its own stream: scale picks,
    # first frames and increments, frame choice, times, forward noise
    cfg = TrainConfig(
        mode=NAIVE, batch_size=16, motion_feature=True, s_w_choices=(0.25, 1.0),
        cond_frame="random", t_sampler=EDM_LOGNORMAL,
    )
    got = make_training_batch(world, vp, cfg, np.random.default_rng(16))
    streams = _streams(np.random.default_rng(16))
    s_w = np.array([0.25, 1.0])[streams["picks"].integers(0, 2, size=16)]
    x0 = _videos(world, streams, 16, s_w)
    idx = streams["frames"].integers(0, 8, size=16)
    t = np.clip(
        td.sigma_to_t(vp, np.exp(streams["times"].normal(cfg.p_mean, cfg.p_std, 16))),
        cfg.t_floor, 1.0,
    )
    xt, eps = perturb(vp, x0, t, streams["noise"])
    np.testing.assert_array_equal(got.y, x0[np.arange(16), idx, :])
    np.testing.assert_array_equal(got.t, t)
    np.testing.assert_array_equal(got.xt, xt)
    np.testing.assert_array_equal(got.target, eps)
    motion = {
        s: td.expected_motion_score(td.GaussianWorld(s_w=s)) for s in (0.25, 1.0)
    }
    np.testing.assert_array_equal(got.motion, [motion[s] for s in s_w])


def test_expected_motion_score_per_video_matches_world_override(vp):
    # the builder's scores: one per video from a per-video s_w, each equal
    # to the score of the world at that scale; a batch's motion feature
    # is its own writable array
    world = td.GaussianWorld()
    for s_w in (0.25, [0.25], [0.25, 1.0, 0.5]):
        want = [td.expected_motion_score(replace(world, s_w=s)) for s in np.ravel(s_w)]
        got = td.expected_motion_score(world, s_w)
        assert np.shape(got) == np.shape(s_w)
        assert np.ravel(got).tolist() == want
    assert isinstance(td.expected_motion_score(world, 0.25), float)
    for choices in ((0.25, 1.0), None):
        cfg = TrainConfig(batch_size=8, motion_feature=True, s_w_choices=choices)
        rng = np.random.default_rng(3)
        batches = [make_training_batch(world, vp, cfg, rng) for _ in range(2)]
        batches[0].motion[:] = 0.0
        assert np.all(batches[1].motion > 0.0)


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


def test_checkpoint_with_null_levels_loads(tmp_path, world, vp):
    # checkpoints written before the levels had field defaults store null
    # levels for the modes that read none; such a file still loads, and
    # predicts as the same checkpoint with its levels stored
    ckpt = train(world, vp, TrainConfig(mode=NAIVE, steps=40, seed=1))
    path = tmp_path / "ck.json"
    save_checkpoint(path, {**ckpt, "config": {**ckpt["config"], "train": {
        **ckpt["config"]["train"], "timenoise": None, "cdm_beta": None}}})
    *_, cfg = load_checkpoint(path)
    assert cfg.timenoise is None and cfg.cdm_beta is None
    assert replace(cfg, timenoise=td.TimeNoiseParams(), cdm_beta=0.2) == (
        load_checkpoint(ckpt)[-1])
    rng = np.random.default_rng(2)
    xt, y, t = rng.standard_normal((5, 8, 4)), rng.standard_normal((5, 4)), rng.random(5)
    old, new = (TrainedDenoiser(*load_checkpoint(source)[:2], vp)
                for source in (path, ckpt))
    assert np.array_equal(old.predict_x0(xt, y, t), new.predict_x0(xt, y, t))


def test_checkpoint_version_guard(tmp_path, world, vp):
    ckpt = train(world, vp, TrainConfig(mode=NAIVE, steps=2))
    # layer shapes that disagree with the stored config, and a parameter
    # list cut short, are each reported with the checkpoint's path
    path = tmp_path / "ck.json"
    for key, value, message in (
        ("layer_shapes", [[1, 1], *ckpt["layer_shapes"][1:]], "layer shapes"),
        ("parameters", ckpt["parameters"][:-1], "parameter count"),
    ):
        save_checkpoint(path, {**ckpt, key: value})
        with pytest.raises(ConfigError, match=re.escape(f"checkpoint {path} {message}")):
            load_checkpoint(path)
    # a checkpoint's own keys and its stored world have no default
    for message, edited in (
        ("missing keys at the top level: ['parameters']",
         {k: v for k, v in ckpt.items() if k != "parameters"}),
        ("missing keys in config: ['world']",
         {**ckpt, "config": {k: v for k, v in ckpt["config"].items() if k != "world"}}),
    ):
        save_checkpoint(path, edited)
        with pytest.raises(ConfigError, match=re.escape(f"checkpoint {path}: {message}")):
            load_checkpoint(path)
    ckpt["format_version"] = 999
    with pytest.raises(ValueError):
        load_checkpoint(ckpt)


def test_trained_denoiser_spaces_agree(world, vp):
    model = MLPDenoiser(world.n_frames, world.frame_dim)
    params = model.init_params(np.random.default_rng(13))
    den = TrainedDenoiser(model, params, vp)
    xt = np.random.default_rng(14).standard_normal((8, 4))
    from toydiffusion.schedule import x0_from_eps

    np.testing.assert_allclose(
        den.predict_x0(xt, np.zeros(4), 0.4),
        x0_from_eps(den.predict_eps(xt, np.zeros(4), 0.4), xt, vp, 0.4),
        atol=1e-12,
    )


def test_trained_denoiser_takes_per_item_times(world, vp):
    # a time per video: each row is bit for bit that row of a call at its
    # own time alone
    model = MLPDenoiser(world.n_frames, world.frame_dim)
    den = TrainedDenoiser(model, model.init_params(np.random.default_rng(13)), vp)
    rng = np.random.default_rng(14)
    xt, y = rng.standard_normal((5, 8, 4)), rng.standard_normal((5, 4))
    t = np.array([0.05, 0.3, 0.7, 0.9, 1.0])
    got = den.predict_x0(xt, y, t)
    for i, ti in enumerate(t):
        np.testing.assert_array_equal(got[i], den.predict_x0(xt, y, ti)[i])


def test_train_config_round_trip_and_validation():
    # the payload round trip of every dataclass is in test_codec.py
    with pytest.raises(ValueError):
        TrainConfig(mode="sgd")
    # the levels default on the fields; a mode that reads one takes no null
    assert TrainConfig(mode=TIMENOISE).timenoise == td.TimeNoiseParams()
    assert TrainConfig(mode=CDM_FIXED).cdm_beta == 0.2
    with pytest.raises(ValueError, match="requires timenoise parameters"):
        TrainConfig(mode=TIMENOISE, timenoise=None)
    with pytest.raises(ValueError, match="requires timenoise parameters"):
        TrainConfig(mode=CONSTANT_BETA, timenoise=None)
    with pytest.raises(ValueError, match="requires cdm_beta"):
        TrainConfig(mode=CDM_FIXED, cdm_beta=None)
    with pytest.raises(ValueError):
        TrainConfig(mode=NAIVE, t_floor=0.0)
    with pytest.raises(ValueError):
        TrainConfig(mode=NAIVE, lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(mode=NAIVE, cond_frame="last")
    # only the motion feature reads s_w_choices, and a choice is an s_w > 0
    for kwargs in (dict(s_w_choices=(0.1, 5.0)),
                   dict(motion_feature=True, s_w_choices=(0.5, 0.0)),
                   dict(motion_feature=True, s_w_choices=(-1.0,))):
        with pytest.raises(ValueError, match="s_w_choices"):
            TrainConfig(mode=NAIVE, **kwargs)


@pytest.mark.parametrize("build, field", [
    (lambda: TrainConfig(mode=CDM_FIXED, cdm_beta=np.nan), "cdm_beta"),
    (lambda: TrainConfig(mode=CDM_FIXED, cdm_beta=np.inf), "cdm_beta"),
    (lambda: TrainConfig(mode=CDM_FIXED, cdm_beta=-0.5), "cdm_beta"),
    (lambda: TrainConfig(mode=NAIVE, lr=np.inf), "lr"),
    (lambda: TrainConfig(mode=NAIVE, lr=np.nan), "lr"),
    (lambda: TrainConfig(mode=NAIVE, p_std=-1.0), "p_std"),
    (lambda: TrainConfig(mode=NAIVE, p_std=np.inf), "p_std"),
    (lambda: TrainConfig(mode=NAIVE, p_mean=np.nan), "p_mean"),
    (lambda: TrainConfig(mode=NAIVE, hidden=0), "hidden"),
    (lambda: TrainConfig(mode=NAIVE, motion_feature=True, s_w_choices=(np.inf,)),
     "s_w_choices"),
    (lambda: td.TimeNoiseParams(beta_m=np.inf, a=5.0), "beta_m"),
    (lambda: td.TimeNoiseParams(beta_m=2.0, a=np.inf), "a"),
    (lambda: td.TimeNoiseParams(beta_m=np.nan, a=5.0), "beta_m"),
    (lambda: TrainConfig(mode=NAIVE, steps=-1), "steps"),
    (lambda: TrainConfig(mode=NAIVE, batch_size=0), "batch_size"),
    (lambda: TrainConfig(mode=NAIVE, t_sampler="bogus"), "t_sampler"),
], ids=["cdm_beta-nan", "cdm_beta-inf", "cdm_beta-negative", "lr-inf", "lr-nan",
        "p_std-negative", "p_std-inf", "p_mean-nan", "hidden-zero", "s_w_choices-inf",
        "beta_m-inf", "a-inf", "beta_m-nan", "steps-negative", "batch_size-zero",
        "t_sampler-unknown"])
def test_training_inputs_are_rejected_at_construction(build, field):
    # these trained into a non-finite loss (nan cdm_beta, infinite lr), ran
    # (a negative cdm_beta) or failed at the first draw (a negative p_std,
    # no hidden units); an input error names its field instead of
    # surfacing as a numerical failure
    with pytest.raises(ValueError, match=rf"^{field} must be"):
        build()


def test_zero_cdm_level_and_p_std_are_accepted():
    TrainConfig(mode=CDM_FIXED, cdm_beta=0.0)
    TrainConfig(mode=NAIVE, t_sampler=EDM_LOGNORMAL, p_std=0.0)


def test_batch_container_fields(world, vp):
    cfg = TrainConfig(mode=NAIVE, batch_size=4)
    batch = make_training_batch(world, vp, cfg, np.random.default_rng(15))
    assert isinstance(batch, Batch)
    assert batch.xt.shape == (4, 8, 4)
    assert batch.y.shape == (4, 4)
    assert batch.t.shape == (4,)
    assert batch.target.shape == (4, 8, 4)
    assert batch.motion is None


def _reference_train(world, schedule, cfg, losses=None):
    """The allocating loop the in-place one must reproduce bit for bit:
    layer views unpacked on every call, inputs and gradient concatenated,
    Adam on fresh arrays, and each step's batch replayed stage by stage.
    Each step's training loss, batch_loss of the parameters before its
    update on its batch, is appended to the list losses when one is given."""
    model = MLPDenoiser(world.n_frames, world.frame_dim, hidden=cfg.hidden,
                        motion_feature=cfg.motion_feature)
    init_rng, heldout_rng, data_rng = np.random.default_rng(cfg.seed).spawn(3)
    params = model.init_params(init_rng)
    heldout = _replay_batch(world, schedule, cfg, _streams(heldout_rng))
    streams = _streams(data_rng)

    def unpack(p):
        views, start = [], 0
        for shape in model.shapes:
            size = int(np.prod(shape))
            views.append(p[start : start + size].reshape(shape))
            start += size
        return views

    def loss_and_gradient(p, batch):
        b = batch.t.shape[0]
        angles = 2.0 * np.pi * batch.t[:, None] * np.arange(1.0, 5.0)
        parts = [batch.xt.reshape(b, -1), batch.y, batch.t[:, None],
                 np.sin(angles), np.cos(angles)]
        if cfg.motion_feature:
            parts.append(batch.motion[:, None])
        x = np.concatenate(parts, axis=1)
        w1, b1, w2, b2, w3, b3 = unpack(p)
        h1 = np.tanh(x @ w1 + b1)
        h2 = np.tanh(h1 @ w2 + b2)
        out = h2 @ w3 + b3
        diff = out - batch.target.reshape(out.shape)
        dout = (2.0 / diff.size) * diff
        dz2 = (dout @ w3.T) * (1.0 - h2 * h2)
        dz1 = (dz2 @ w2.T) * (1.0 - h1 * h1)
        grads = (x.T @ dz1, dz1.sum(axis=0), h1.T @ dz2, dz2.sum(axis=0),
                 h2.T @ dout, dout.sum(axis=0))
        return float(np.mean(diff * diff)), np.concatenate([g.ravel() for g in grads])

    beta1, beta2, adam_eps = 0.9, 0.999, 1e-8
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    for step in range(cfg.steps):
        batch = _replay_batch(world, schedule, cfg, streams)
        if losses is not None:
            losses.append(batch_loss(model, params, batch))
        _, grad = loss_and_gradient(params, batch)
        m = beta1 * m + (1.0 - beta1) * grad
        v = beta2 * v + (1.0 - beta2) * grad * grad
        m_hat = m / (1.0 - beta1 ** (step + 1))
        v_hat = v / (1.0 - beta2 ** (step + 1))
        params = params - cfg.lr * m_hat / (np.sqrt(v_hat) + adam_eps)
    return params, loss_and_gradient(params, heldout)[0]


REFERENCE_CASES = {
    "naive": dict(mode=NAIVE),
    "timenoise-additive": dict(mode=TIMENOISE, timenoise=TN),
    "timenoise-interpolation": dict(
        mode=TIMENOISE,
        timenoise=td.TimeNoiseParams(beta_m=1.0, a=5.0, variant="interpolation"),
    ),
    "cdm": dict(mode=CDM_FIXED, cdm_beta=0.3),
    "constant": dict(mode=CONSTANT_BETA, timenoise=TN),
    "motion-random-frame-edm": dict(
        mode=TIMENOISE, timenoise=TN, motion_feature=True, s_w_choices=(0.25, 1.0),
        cond_frame="random", t_sampler=EDM_LOGNORMAL,
    ),
}


@pytest.mark.parametrize("schedule_name", ["vp", "ve"])
@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_train_matches_reference_loop(world, request, schedule_name, case):
    schedule = request.getfixturevalue(schedule_name)
    cfg = TrainConfig(steps=40, seed=3, **REFERENCE_CASES[case])
    ckpt = train(world, schedule, cfg)
    params, final_loss = _reference_train(world, schedule, cfg)
    assert np.array_equal(np.asarray(ckpt["parameters"]), params)
    assert ckpt["final_loss"] == final_loss


def test_gradients_are_owned_by_the_caller(world, vp):
    cfg = TrainConfig(mode=TIMENOISE, batch_size=8, timenoise=TN)
    model = MLPDenoiser(world.n_frames, world.frame_dim, hidden=12)
    rng = np.random.default_rng(17)
    params = model.init_params(rng)
    batch = make_training_batch(world, vp, cfg, rng)
    _, first = batch_loss_and_gradient(model, params, batch)
    kept = first.copy()
    _, second = batch_loss_and_gradient(model, params, batch)
    assert not np.shares_memory(first, second)
    assert not np.shares_memory(first, params)
    np.testing.assert_array_equal(first, kept)


@pytest.mark.parametrize("b", [1, 7, 2000])
def test_forward_matches_plain_numpy_at_any_batch_size(world, b):
    model = MLPDenoiser(world.n_frames, world.frame_dim)
    rng = np.random.default_rng(18)
    params = model.init_params(rng)
    w1, b1, w2, b2, w3, b3 = model.unpack(params)
    xt = rng.standard_normal((b, 8, 4))
    y = rng.standard_normal((b, 4))
    t = rng.uniform(0.01, 1.0, b)

    def plain(y_rows, t_feats):
        x = np.concatenate([xt.reshape(b, -1), y_rows, t_feats], axis=1)
        out = np.tanh(np.tanh(x @ w1 + b1) @ w2 + b2) @ w3 + b3
        return out.reshape(b, 8, 4)

    per_item = model.forward(params, xt, y, t)
    assert np.array_equal(per_item, plain(y, time_features(t)))
    # the inference form: one condition and one time for the whole batch
    shared = model.forward(params, xt, y[0], 0.3)
    expected = plain(np.broadcast_to(y[0], (b, 4)), np.repeat(time_features(0.3), b, 0))
    assert np.array_equal(shared, expected)
    assert not np.shares_memory(shared, model.forward(params, xt, y[0], 0.3))


@pytest.mark.parametrize("steps", [25, 0])
def test_train_builds_batches_one_block_at_a_time(world, vp, monkeypatch, steps):
    # train() draws the held-out batch as a one-step block, then one block
    # of up to BLOCK_STEPS steps per call of the builder; it assembles each
    # block's input rows in one build_inputs call and runs the loss and
    # gradient once per step on that step's rows
    calls = {"_training_rows": [], "make_training_batch": 0,
             "batch_loss_and_gradient": 0, "build_inputs": [], "_loss_and_gradient": []}
    originals = {name: getattr(train_module, name)
                 for name in calls if name != "build_inputs"}

    def rows(*args):
        calls["_training_rows"].append(args[-1])
        return originals["_training_rows"](*args)

    def loss_and_gradient(model, work, x, target):
        calls["_loss_and_gradient"].append(x.shape[0])
        return originals["_loss_and_gradient"](model, work, x, target)

    def counted(name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return originals[name](*args, **kwargs)
        return wrapper

    build_inputs = MLPDenoiser.build_inputs

    def inputs(self, xt, *args):
        calls["build_inputs"].append(xt.shape[0])
        return build_inputs(self, xt, *args)

    monkeypatch.setattr(train_module, "_training_rows", rows)
    monkeypatch.setattr(train_module, "_loss_and_gradient", loss_and_gradient)
    monkeypatch.setattr(train_module, "make_training_batch",
                        counted("make_training_batch"))
    monkeypatch.setattr(train_module, "batch_loss_and_gradient",
                        counted("batch_loss_and_gradient"))
    monkeypatch.setattr(MLPDenoiser, "build_inputs", inputs)
    td.train(world, vp, TrainConfig(mode=NAIVE, steps=steps, batch_size=4))
    full, rest = divmod(steps, BLOCK_STEPS)
    blocks = [BLOCK_STEPS] * full + [rest] * (rest > 0)
    assert calls == {
        "_training_rows": [1] + blocks,
        "make_training_batch": 1,
        "batch_loss_and_gradient": 0,
        # one per block and the held-out loss after training; the one
        # before training is evaluated only for return_history
        "build_inputs": [4 * s for s in blocks] + [4],
        "_loss_and_gradient": [4] * steps,
    }


PARTIAL_BLOCK_STEPS = (0, 1, BLOCK_STEPS - 1, BLOCK_STEPS + 1, 43)


@pytest.mark.parametrize("steps", PARTIAL_BLOCK_STEPS)
@pytest.mark.parametrize("schedule_name", ["vp", "ve"])
@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_train_matches_reference_loop_at_any_step_count(world, request, schedule_name,
                                                        case, steps):
    # runs that end inside a block, or before the first one, keep the bytes
    # of the step-by-step reference, and so does the returned history
    schedule = request.getfixturevalue(schedule_name)
    cfg = TrainConfig(steps=steps, seed=3, **REFERENCE_CASES[case])
    ckpt, history = train(world, schedule, cfg, return_history=True)
    losses = []
    params, final_loss = _reference_train(world, schedule, cfg, losses)
    assert np.array_equal(np.asarray(ckpt["parameters"]), params)
    assert ckpt["final_loss"] == history["final_heldout"] == final_loss
    assert history["initial_heldout"] == _reference_train(
        world, schedule, replace(cfg, steps=0))[1]
    logged = sorted({0, steps - 1}) if steps else []
    assert history["loss_history"] == [(step, losses[step]) for step in logged]


# Levels beta_m t^a round to zero for every item of a step whose times all
# lie below about 0.69, so about half the steps of these runs corrupt
# nothing; they still draw their condition noise, as every constant step does.
ZERO_LEVEL_CASES = {
    "additive": dict(timenoise=td.TimeNoiseParams(beta_m=2.0, a=100.0), batch_size=2),
    "interpolation": dict(
        timenoise=td.TimeNoiseParams(beta_m=1.0, a=100.0, variant="interpolation"),
        batch_size=3,
    ),
}


@pytest.mark.parametrize("schedule_name", ["vp", "ve"])
@pytest.mark.parametrize("case", sorted(ZERO_LEVEL_CASES))
def test_steps_without_condition_noise_match_reference_loop(world, request,
                                                            schedule_name, case):
    schedule = request.getfixturevalue(schedule_name)
    cfg = TrainConfig(mode=CONSTANT_BETA, steps=43, seed=3, **ZERO_LEVEL_CASES[case])
    streams = _streams(np.random.default_rng(cfg.seed).spawn(3)[2])
    zero = [
        not constant_beta(cfg.timenoise, _replay_batch(world, schedule, cfg,
                                                       streams).t).any()
        for _ in range(cfg.steps)
    ]
    # both kinds of step, and a zero-level step inside the first block
    assert any(zero) and not all(zero) and any(zero[1:BLOCK_STEPS])
    ckpt = train(world, schedule, cfg)
    params, final_loss = _reference_train(world, schedule, cfg)
    assert np.array_equal(np.asarray(ckpt["parameters"]), params)
    assert ckpt["final_loss"] == final_loss


def _replay_batch(world, schedule, cfg, streams):
    """One batch drawn stage by stage through the public draw functions,
    each stage from its own stream of _streams: s_w picks, videos, frame
    choice, times, condition level and noise (none for naive and cdm level
    0), forward noise."""
    b, motion, s_w = cfg.batch_size, None, None
    if cfg.s_w_choices:
        s_w = np.asarray(cfg.s_w_choices)[
            streams["picks"].integers(0, len(cfg.s_w_choices), size=b)]
        motion = np.array([td.expected_motion_score(replace(world, s_w=s)) for s in s_w])
    elif cfg.motion_feature:
        motion = np.full(b, td.expected_motion_score(world))
    x0 = _videos(world, streams, b, s_w)
    if cfg.cond_frame == "random":
        y0 = x0[np.arange(b), streams["frames"].integers(0, world.n_frames, size=b)]
    else:
        y0 = x0[:, 0]
    t = sample_training_times(schedule, cfg, b, streams["times"])
    y = y0
    if cfg.mode == CDM_FIXED:
        if cfg.cdm_beta:  # level 0 corrupts nothing, like naive
            y = corrupt(y0, cfg.cdm_beta, streams["condition"])
    elif cfg.mode != NAIVE:
        level = (constant_beta(cfg.timenoise, t) if cfg.mode == CONSTANT_BETA
                 else sample_beta(cfg.timenoise, t, streams["levels"]))
        y = corrupt(y0, level, streams["condition"], cfg.timenoise.variant)
    xt, eps = perturb(schedule, x0, t, streams["noise"])
    return Batch(xt=xt, y=y, t=t, target=eps, motion=motion)


BATCH_CASES = [
    *(REFERENCE_CASES[name] for name in sorted(REFERENCE_CASES)),
    *(dict(mode=CONSTANT_BETA, **ZERO_LEVEL_CASES[name])
      for name in sorted(ZERO_LEVEL_CASES)),
    dict(mode=CDM_FIXED, cdm_beta=0.0),
    dict(mode=CDM_FIXED, cdm_beta=0.5, t_sampler=EDM_LOGNORMAL, motion_feature=True),
]


@pytest.mark.parametrize("schedule_name", ["vp", "ve"])
@pytest.mark.parametrize("case", BATCH_CASES)
def test_batches_replay_the_per_step_draws(world, request, schedule_name, case):
    schedule = request.getfixturevalue(schedule_name)
    # each call spawns its own stage streams from the rng and draws nothing
    # from the rng itself
    cfg = TrainConfig(seed=3, **{"batch_size": 5, **case})
    got_rng, want_rng = np.random.default_rng(22), np.random.default_rng(22)
    for _ in range(20):
        got = make_training_batch(world, schedule, cfg, got_rng)
        want = _replay_batch(world, schedule, cfg, _streams(want_rng))
        for field in ("xt", "y", "t", "target", "motion"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert got_rng.bit_generator.seed_seq.n_children_spawned == 20 * len(STAGES)


@pytest.mark.parametrize("case", BATCH_CASES)
def test_block_rows_are_consecutive_batches(world, vp, case):
    # a block's rows are the batches of its steps replayed one after
    # another on the same stage streams, and it leaves each stream where
    # those batches leave it; every block has all the steps it was asked
    # for, zero-level steps included
    cfg = TrainConfig(seed=3, **{"batch_size": 5, **case})
    b = cfg.batch_size
    block_streams = list(_streams(np.random.default_rng(21)).values())
    step_streams = _streams(np.random.default_rng(21))
    for _ in range(4):
        block = train_module._training_rows(world, vp, cfg, block_streams, BLOCK_STEPS)
        assert block.t.shape[0] == BLOCK_STEPS * b
        for k in range(BLOCK_STEPS):
            batch = _replay_batch(world, vp, cfg, step_streams)
            rows = slice(k * b, (k + 1) * b)
            for field in ("xt", "y", "t", "target", "motion"):
                want, got = getattr(batch, field), getattr(block, field)
                assert (got is None) == (want is None)
                if want is not None:
                    assert np.array_equal(got[rows], want), field
        assert ([s.bit_generator.state for s in block_streams]
                == [s.bit_generator.state for s in step_streams.values()])


@pytest.mark.parametrize("batch_size", [3, 5])
@pytest.mark.parametrize("case", [
    dict(mode=NAIVE), dict(mode=TIMENOISE, timenoise=TN),
    dict(mode=CDM_FIXED, cdm_beta=0.3), dict(mode=CONSTANT_BETA, timenoise=TN),
], ids=MODES)
def test_checkpoints_do_not_depend_on_the_block_size(world, vp, monkeypatch, case,
                                                      batch_size):
    # each stage draws a block's rows in one call, the integer picks and
    # frames too, and a generator's draws continue across calls, so blocks
    # of any length give the parameters of building each batch alone
    cfg = TrainConfig(steps=11, seed=4, batch_size=batch_size, motion_feature=True,
                      s_w_choices=(0.25, 0.5, 1.0), cond_frame="random",
                      t_sampler=EDM_LOGNORMAL, **case)
    params = []
    for block_steps in (1, 3, 8):
        monkeypatch.setattr(train_module, "BLOCK_STEPS", block_steps)
        params.append(np.asarray(train(world, vp, cfg)["parameters"]))
    assert all(np.array_equal(p, params[0]) for p in params[1:])


@pytest.mark.parametrize("case", sorted(ZERO_LEVEL_CASES))
def test_draws_do_not_depend_on_the_levels(world, vp, case):
    # the levels decide no draw: a = 100 makes about half the steps' levels
    # round to zero, a = 5 hardly any, and both draw alike, so the two
    # runs stay in step
    zero = TrainConfig(mode=CONSTANT_BETA, **ZERO_LEVEL_CASES[case])
    noisy = replace(zero, timenoise=replace(zero.timenoise, a=5.0))
    zero_rng, noisy_rng = np.random.default_rng(23), np.random.default_rng(23)
    zero_steps = 0
    for _ in range(20):
        got = make_training_batch(world, vp, zero, zero_rng)
        want = make_training_batch(world, vp, noisy, noisy_rng)
        assert np.array_equal(got.target, want.target)
        zero_steps += not constant_beta(zero.timenoise, got.t).any()
    assert zero_rng.bit_generator.state == noisy_rng.bit_generator.state
    assert 0 < zero_steps < 20


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_is_reported_at_the_reference_step(world, vp):
    # a cdm level near the largest double overflows the condition of any
    # item whose noise exceeds about 4 to infinity; its gradient is NaN, so
    # the loss of the next step is.  With this seed the first such noise is
    # drawn at step 93, inside the twelfth block.
    cfg = TrainConfig(mode=CDM_FIXED, cdm_beta=4.5e307, steps=100, seed=5)
    with pytest.raises(TrainingDiverged) as err:
        train(world, vp, cfg)
    losses = []
    _reference_train(world, vp, cfg, losses)
    first = next(step for step, loss in enumerate(losses) if not np.isfinite(loss))
    assert BLOCK_STEPS < first
    assert err.value.step == first
