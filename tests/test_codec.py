import json
import math
import re
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

import toydiffusion as td
from toydiffusion.cli import DiagnosticsConfig, ExperimentConfig
from toydiffusion.codec import (ConfigError, check_choice, check_range, check_same,
                                from_payload, read_videos, to_payload, write_json,
                                write_videos)

TN = td.TimeNoiseParams(beta_m=2.0, a=5.0)
INIT = td.InitDistribution(mu_p=np.array([1.0, 2.0]), sigma_p2=0.5, M=0.9)


def _same(a, b) -> bool:
    """Field-by-field equality that also requires equal types, so an int
    read back where a float was written counts as a difference."""
    if is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype
                and np.array_equal(a, b))
    return type(a) is type(b) and a == b


CASES = {
    "GaussianWorld": td.GaussianWorld(n_frames=5, frame_dim=3, m0=1.0,
                                      drift=[0.1, -0.2, 0.3], s0=0.5, s_w=0.25),
    "NoiseSchedule": td.NoiseSchedule.ve(0.01, 50.0),
    "TimeNoiseParams": td.TimeNoiseParams(beta_m=1.0, a=3.0, variant="interpolation"),
    "TrainConfig": td.TrainConfig(mode="timenoise", steps=7, timenoise=TN,
                                  s_w_choices=[0.1, 0.9], motion_feature=True),
    "InitDistribution": INIT,
    "SamplerConfig": td.SamplerConfig(start_time=0.9, steps=50, init=INIT,
                                      inference_beta=0.25),
    "DataMoments": td.DataMoments(mean=np.array([0.5, -1.0]), avg_var=2.0,
                                  n_samples=3),
    "DiagnosticsConfig": DiagnosticsConfig(eval_videos=3, t_grid=(0.5, 1.0),
                                           m_grid=(0.9,), n_chains=2,
                                           targets=(1.5,)),
    "ExperimentConfig": from_payload(ExperimentConfig, {
        "train": {"mode": "cdm", "cdm_beta": 0.3, "s_w_choices": [0.5],
                  "motion_feature": True},
        "sampler": {"start_time": 0.9, "init": to_payload(INIT)}, "seed": 4}),
}


@pytest.mark.parametrize("obj", CASES.values(), ids=CASES.keys())
def test_payload_round_trip(obj):
    # through JSON text, so the payload is JSON-ready as well as complete
    payload = json.loads(json.dumps(to_payload(obj)))
    assert _same(from_payload(type(obj), payload), obj)


def test_int_in_float_field_is_written_as_float():
    world = td.GaussianWorld(s0=2, s_w=1)
    payload = to_payload(world)
    assert payload["s0"] == 2.0 and isinstance(payload["s0"], float)
    back = from_payload(td.GaussianWorld, payload)
    assert _same(back, td.GaussianWorld(s0=2.0, s_w=1.0))
    train = to_payload(td.TrainConfig(lr=1, cdm_beta=1))
    assert isinstance(train["lr"], float) and isinstance(train["cdm_beta"], float)
    assert isinstance(train["steps"], int)


def test_checkpoint_keys_in_written_order():
    ckpt = td.train(td.GaussianWorld(), td.NoiseSchedule.vp(),
                    td.TrainConfig(steps=1, timenoise=TN))
    assert list(ckpt) == ["format_version", "config", "seed", "layer_shapes",
                          "parameters", "final_loss"]
    assert list(ckpt["config"]) == ["train", "world", "schedule"]
    assert list(ckpt["config"]["train"]) == [f.name for f in fields(td.TrainConfig)]


@pytest.mark.parametrize("payload, key", [
    ({"lr": float("inf")}, "lr"),
    ({"s_w_choices": [0.5, float("nan")]}, "s_w_choices"),
    ({"s_w_choices": [0.5, True]}, "s_w_choices"),
], ids=["float-inf", "list-nan", "list-bool"])
def test_numbers_must_be_finite_and_not_bool(payload, key):
    with pytest.raises(ConfigError, match=f"^{key} at the top level must be"):
        from_payload(td.TrainConfig, payload)


@pytest.mark.parametrize("payload, key", [
    ({"steps": 10**400}, "steps"),
    ({"lr": -10**400}, "lr"),
    ({"lr": float("nan")}, "lr"),
    ({"s_w_choices": [0.5, 10**400]}, "s_w_choices"),
], ids=["int-huge", "float-huge", "float-nan", "list-huge"])
def test_a_number_no_double_holds_is_named_by_that_rule(payload, key):
    # the type test reported it, "steps ... must be int, got 1000...0",
    # although the value is an int
    with pytest.raises(ConfigError, match=f"^{key} at the top level must be finite and "
                                          "within a double's range, got "):
        from_payload(td.TrainConfig, payload)


BIG = 10**400  # no double holds it, but it is finite


@pytest.mark.parametrize("value, bounds, message", [
    # closed finite ends take their end points
    (0.0, dict(low=0.0, high=1.0), None),
    (1.0, dict(low=0.0, high=1.0), None),
    (-0.5, dict(low=0.0, high=1.0), "x must lie in [0, 1], got -0.5"),
    (1.5, dict(low=0.0, high=1.0), "x must lie in [0, 1], got 1.5"),
    # open finite ends do not
    (0.5, dict(low=0.0, high=1.0, low_open=True, high_open=True), None),
    (0.0, dict(low=0.0, high=1.0, low_open=True, high_open=True),
     "x must lie in (0, 1), got 0.0"),
    (1.0, dict(low=0.0, high=1.0, low_open=True, high_open=True),
     "x must lie in (0, 1), got 1.0"),
    (1.0, dict(low=0.0, high=1.0, low_open=True), None),
    (1e-300, dict(low=0.0, high=1.0, low_open=True), None),
    # the infinite defaults: any finite number, and no infinity or NaN
    (-1e308, {}, None),
    (math.inf, {}, "x must lie in (-inf, inf), got inf"),
    (-math.inf, {}, "x must lie in (-inf, inf), got -inf"),
    (math.nan, {}, "x must lie in (-inf, inf), got nan"),
    (math.nan, dict(low=0.0, high=1.0), "x must lie in [0, 1], got nan"),
    # an infinite end is open whatever its flag says
    (math.inf, dict(low=0.0, high=math.inf, high_open=False),
     "x must lie in [0, inf), got inf"),
    (-math.inf, dict(high=0.0), "x must lie in (-inf, 0], got -inf"),
    # ints, one of them no double holds, compare exactly
    (3, dict(low=0), None),
    (BIG, dict(low=0), None),
    (-1, dict(low=0), "x must lie in [0, inf), got -1"),
    (1, dict(low=2), "x must lie in [2, inf), got 1"),
    (BIG, dict(high=1.0), f"x must lie in (-inf, 1], got {BIG!r}"),
    # an array passes when every entry does, and is named by its repr
    (np.array([[0.0, 0.5], [1.0, 0.25]]), dict(low=0.0, high=1.0), None),
    (np.array([0.5, math.nan]), dict(low=0.0, high=1.0),
     "x must lie in [0, 1], got array([0.5, nan])"),
    (np.array([0.5, 0.0]), dict(low=0.0, high=1.0, low_open=True),
     "x must lie in (0, 1], got array([0.5, 0. ])"),
    (np.array([2.0]), dict(low=0.0, high=1.0), "x must lie in [0, 1], got array([2.])"),
    (np.asarray(0.5), dict(low=0.0, high=1.0), None),
    (np.asarray(1.5), dict(low=0.0, high=1.0), "x must lie in [0, 1], got array(1.5)"),
], ids=["closed-low", "closed-high", "below-closed", "above-closed", "open-inside",
        "open-low", "open-high", "half-open-high", "half-open-tiny", "default-finite",
        "default-inf", "default-minus-inf", "default-nan", "closed-nan",
        "infinite-end-open", "infinite-low-open", "int", "big-int", "int-below",
        "int-below-two", "big-int-above", "array-inside", "array-nan",
        "array-open-end", "array-one-entry", "array-0d-inside", "array-0d-above"])
def test_check_range_is_one_rule_for_a_number_range(value, bounds, message):
    if message is None:
        assert check_range(value, "x", **bounds) is value
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_range(value, "x", **bounds)


@pytest.mark.parametrize("check, message", [
    # a member comes back as the object passed, not the equal choice
    (lambda value: check_choice(value, "kind", (td.VP, td.VE)), None),
    (lambda value: check_choice(value.upper(), "kind", (td.VP, td.VE)),
     "kind must be one of 'vp', 've', got 'VE'"),
    (lambda value: from_payload(ExperimentConfig, {"schedule": {"kind": "VP"}}),
     "kind must be one of 'vp', 've', got 'VP' in schedule"),
], ids=["member", "not-a-member", "from-payload"])
def test_check_choice_is_one_rule_for_a_named_choice(check, message):
    value = "".join(["v", "e"])
    if message is None:
        assert check(value) is value
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check(value)


@pytest.mark.parametrize("call, message", [
    (lambda world: td.GaussianWorld(n_frames=8.5), "n_frames must be an integer, got 8.5"),
    (lambda world: td.GaussianWorld(n_frames=8.0), "n_frames must be an integer, got 8.0"),
    (lambda world: td.GaussianWorld(frame_dim=True), "frame_dim must be an integer, got True"),
    (lambda world: td.TrainConfig(steps=3.0), "steps must be an integer, got 3.0"),
    (lambda world: td.TrainConfig(batch_size=3.5), "batch_size must be an integer, got 3.5"),
    (lambda world: td.TrainConfig(seed=1.0), "seed must be an integer, got 1.0"),
    (lambda world: td.TrainConfig(hidden=8.0), "hidden must be an integer, got 8.0"),
    (lambda world: td.SamplerConfig(steps=2.5), "steps must be an integer, got 2.5"),
    (lambda world: DiagnosticsConfig(eval_videos=3.0), "eval_videos must be an integer, got 3.0"),
    (lambda world: DiagnosticsConfig(n_chains=2.5), "n_chains must be an integer, got 2.5"),
    (lambda world: ExperimentConfig(seed=1.5), "seed must be an integer, got 1.5"),
    (lambda world: td.sample_batch(
        td.ExactDenoiser(world, td.NoiseSchedule.vp()), np.zeros(4), td.SamplerConfig(),
        td.NoiseSchedule.vp(), 2.0, np.random.default_rng(0)),
     "n must be an integer, got 2.0"),
    # numpy integers are integers
    (lambda world: td.GaussianWorld(n_frames=np.int64(5), frame_dim=np.int32(2)), None),
], ids=["n_frames", "n_frames-whole", "frame_dim-bool", "train-steps", "batch_size",
        "train-seed", "hidden", "sampler-steps", "eval_videos", "n_chains",
        "experiment-seed", "sample_batch-n", "numpy-integers"])
def test_each_count_is_checked_by_check_integer(world, call, message):
    # a non-integer count passed its range check and failed later, inside a
    # run, as "TypeError: 'float' object cannot be interpreted as an integer"
    if message is None:
        call(world)
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(world)


def _trained(world, motion_value=None):
    model = td.MLPDenoiser(world.n_frames, world.frame_dim, hidden=8,
                           motion_feature=motion_value is not None)
    return td.TrainedDenoiser(model, model.init_params(np.random.default_rng(0)),
                              td.NoiseSchedule.vp(), motion_value=motion_value)


@pytest.mark.parametrize("call, message", [
    (lambda world: td.GaussianWorld(m0=[1.0, 2.0, 3.0]),
     "m0's shape must be one of (), (1,), (4,), got (3,)"),
    (lambda world: td.GaussianWorld(drift=np.zeros((1, 4))),
     "drift's shape must be one of (), (1,), (4,), got (1, 4)"),
    (lambda world: td.conditional_moments(world, np.zeros(3)),
     "y0's shape must be one of (4,), got (3,)"),
    (lambda world: td.ExactDenoiser(world, td.NoiseSchedule.vp()).predict_x0(
        np.zeros((5, 4, 8)), np.zeros(4), 0.5),
     "video batch's shape must be one of (5, 8, 4), got (5, 4, 8)"),
    (lambda world: td.ExactDenoiser(world, td.NoiseSchedule.vp()).predict_x0(
        np.zeros((6, 8, 4)), np.zeros((5, 4)), 0.5),
     "condition's shape must be one of (4,), (6, 4), got (5, 4)"),
    (lambda world: _trained(world).predict_x0(np.zeros((6, 8, 4)), np.zeros(4),
                                              np.full(5, 0.5)),
     "time's shape must be one of (), (6,), got (5,)"),
    (lambda world: _trained(world, motion_value=[1.0] * 5).predict_x0(
        np.zeros((6, 8, 4)), np.zeros(4), 0.5),
     "motion's shape must be one of (), (6,), got (5,)"),
    (lambda world: td.ExactDenoiser(world, td.NoiseSchedule.vp()).predict_x0(
        np.zeros((4, 8, 4)), np.zeros(4), np.full(4, 0.5)),
     "exact prediction time t's shape must be one of (), got (4,)"),
    (lambda world: td.draw_initial(
        td.SamplerConfig(init=td.InitDistribution(np.zeros(31), 1.0, 1.0)),
        td.NoiseSchedule.vp(), (2, 8, 4), np.random.default_rng(0)),
     "init mu_p's shape must be one of (32,), got (31,)"),
    (lambda world: td.x0_from_eps(np.zeros((5, 8, 4)), np.zeros((5, 8, 4)),
                                  td.NoiseSchedule.vp(), np.full(2, 0.5)),
     "per-item coefficient's shape must be one of (5,), got (2,)"),
    (lambda world: td.motion_scores(np.zeros((3, 1, 4))),
     "motion score's frame count must lie in [2, inf), got 1"),
    # two allowed shapes that coincide are named once
    (lambda world: td.ExactDenoiser(world, td.NoiseSchedule.vp()).predict_x0(
        np.zeros((8, 4)), np.zeros((5, 4)), 0.5),
     "condition's shape must be one of (4,), got (5, 4)"),
    (lambda world: _trained(world).predict_x0(np.zeros((8, 4)), np.zeros(4),
                                              np.full(3, 0.5)),
     "time's shape must be one of (), got (3,)"),
    (lambda world: td.GaussianWorld(frame_dim=1, m0=[1.0, 2.0]),
     "m0's shape must be one of (), (1,), got (2,)"),
], ids=["m0", "drift", "conditional_moments-y0", "video-batch", "condition", "time",
        "motion", "exact-time", "draw_initial-mu_p", "per-item", "motion_scores",
        "condition-one-video", "time-one-video", "m0-one-entry"])
def test_each_shape_is_checked_by_check_choice(world, call, message):
    # each site wrote its own message: "m0 must be a scalar or frame_dim = 4
    # entries", "video of shape ... is not (..., 8, 4)", and so on
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(world)


@pytest.mark.parametrize("call, message", [
    (lambda world, rng: td.perturb(td.NoiseSchedule.vp(), np.zeros((3, 8, 4)), 1.5, rng),
     "time must lie in [0, 1], got array(1.5)"),
    (lambda world, rng: td.perturb(td.NoiseSchedule.vp(), np.zeros((3, 8, 4)),
                                   np.array([0.5, 0.5]), rng),
     "per-item coefficient's shape must be one of (3,), got (2,)"),
    (lambda world, rng: td.corrupt(np.zeros((3, 4)), np.array([0.1, 0.2]), rng),
     "per-item coefficient's shape must be one of (3,), got (2,)"),
    (lambda world, rng: td.sample_beta(td.TimeNoiseParams(), 1.5, rng),
     "time must lie in [0, 1], got array(1.5)"),
    (lambda world, rng: td.draw_initial(
        td.SamplerConfig(init=td.InitDistribution(np.zeros(24), 1.0, 1.0)),
        td.NoiseSchedule.vp(), (3, 8, 4), rng),
     "init mu_p's shape must be one of (32,), got (24,)"),
    (lambda world, rng: td.sample_batch(
        td.ExactDenoiser(world, td.NoiseSchedule.vp()), np.zeros(3), td.SamplerConfig(),
        td.NoiseSchedule.vp(), 6, rng),
     "condition's shape must be one of (4,), (6, 4), got (3,)"),
    (lambda world, rng: td.sample_batch(
        td.ExactDenoiser(world, td.NoiseSchedule.vp()), np.array([0.0, np.nan, 0.0, 0.0]),
        td.SamplerConfig(), td.NoiseSchedule.vp(), 6, rng),
     "y0 must lie in (-inf, inf), got array([ 0., nan,  0.,  0.])"),
], ids=["perturb-time", "perturb-per-item", "corrupt-per-item", "sample_beta-time",
        "draw_initial-mu_p", "sample_batch-condition", "sample_batch-nan"])
def test_a_rejected_call_leaves_the_generator_as_it_was(world, call, message):
    # each call drew before its check, so a rejected call still advanced
    # the caller's generator
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(world, rng)
    assert rng.bit_generator.state == state


def test_check_same_is_one_rule_for_two_parts_that_must_agree():
    # the same object passes without a payload, which a plain object has not
    stub = object()
    assert check_same("world", stub, stub) is None
    # an equal world built twice is the same world
    world = td.GaussianWorld(n_frames=2, frame_dim=1)
    assert check_same("world", world, td.GaussianWorld(n_frames=2, frame_dim=1)) is None
    other = td.GaussianWorld(n_frames=2, frame_dim=1, s_w=2.0)
    payload = "{'n_frames': 2, 'frame_dim': 1, 'm0': [0.0], 's0': 1.0, 'drift': [0.2], "
    for kwargs, message in [
        ({}, f"denoiser world {payload}'s_w': 2.0}} differs from the run's world "
             f"{payload}'s_w': 0.5}}"),
        (dict(whose="checkpoint", where="the config"),
         f"checkpoint world {payload}'s_w': 2.0}} differs from the config world "
         f"{payload}'s_w': 0.5}}"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_same("world", other, world, **kwargs)


def test_an_infinite_motion_target_is_rejected():
    # "not inf > 0.0" is False, so a target of inf used to pass
    with pytest.raises(ValueError,
                       match=r"^targets entries must lie in \(0, inf\), got inf$"):
        DiagnosticsConfig(targets=(math.inf,))


@pytest.mark.parametrize("write", [
    write_json, td.save_checkpoint, lambda path, row: td.write_csv(path, [row])],
    ids=["write_json", "save_checkpoint", "write_csv"])
@pytest.mark.parametrize("value", [math.nan, math.inf, np.float64(-np.inf)])
def test_a_non_finite_number_is_refused_before_the_file_is_opened(tmp_path, write,
                                                                  value):
    # each writer wrote NaN or Infinity, which from_payload and the CSV
    # readers then refused, and the command exited 0
    path = tmp_path / "out"
    with pytest.raises(FloatingPointError,
                       match=f"^{re.escape(str(path))} would hold a non-finite number$"):
        write(path, {"a": 1.0, "b": value})
    assert not path.exists()


def test_a_video_csv_reads_back_bit_for_bit(tmp_path):
    # floats are written with repr, the shortest decimal that reads back
    # to the same double, so the written stack is the one read
    rng = np.random.default_rng(5)
    videos = rng.standard_normal((3, 4, 2)) * np.logspace(-300, 300, 8).reshape(4, 2)
    videos[0, 0, 0] = 0.1 + 0.2
    path = tmp_path / "videos.csv"
    write_videos(path, videos)
    assert path.read_text().splitlines()[0] == ",".join(f"x{i}" for i in range(8))
    back = read_videos(path, 4, 2)
    assert back.dtype == np.float64
    assert back.tobytes() == videos.tobytes()
    # without its header the file is refused, not read as one video fewer
    path.write_text("".join(path.read_text().splitlines(keepends=True)[1:]))
    with pytest.raises(ConfigError, match="does not start with the video header"):
        read_videos(path, 4, 2)
