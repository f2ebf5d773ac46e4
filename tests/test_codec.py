import json
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

import toydiffusion as td
from toydiffusion.cli import DiagnosticsConfig, ExperimentConfig
from toydiffusion.codec import ConfigError, from_payload, to_payload

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
