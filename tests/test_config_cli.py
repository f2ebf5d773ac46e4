import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

import toydiffusion as td
from toydiffusion.analytic_init import estimate_moments, optimal_init
from toydiffusion.cli import (
    ConfigError,
    ExperimentConfig,
    _build_denoiser,
    load_config,
    main,
    save_config,
)
from toydiffusion.codec import from_payload, to_payload
from toydiffusion.world import first_frames


def small_config(tmp_path):
    """A full config with sizes turned down for fast end-to-end runs."""
    payload = to_payload(load_config(None))
    payload["diagnostics"].update(
        {"eval_videos": 24, "n_chains": 12, "t_grid": [0.3, 0.9],
         "m_grid": [1.0, 0.9]}
    )
    payload["sampler"]["steps"] = 5
    payload["train"]["steps"] = 25
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def _header(columns):
    """The header line write_videos writes over `columns` columns."""
    return ",".join(f"x{i}" for i in range(columns)) + "\n"


# ---------------------------------------------------------------------------
# config handling


def test_default_config_round_trip():
    payload = to_payload(load_config(None))
    assert to_payload(from_payload(ExperimentConfig, payload)) == payload
    assert to_payload(from_payload(ExperimentConfig, {})) == payload
    # the section defaults live on the dataclass fields; these are the
    # values every manifest has recorded for an empty config
    assert payload == {
        "world": {"n_frames": 8, "frame_dim": 4, "m0": [0.0, 0.0, 0.0, 0.0],
                  "s0": 1.0, "drift": [0.2, 0.2, 0.2, 0.2], "s_w": 0.5},
        "schedule": {"kind": "vp", "beta_min": 0.1, "beta_max": 20.0,
                     "sigma_min": 0.002, "sigma_max": 700.0},
        "train": {"mode": "naive", "steps": 20000, "batch_size": 64, "lr": 0.001,
                  "seed": 0, "hidden": 64, "t_sampler": "uniform", "p_mean": -1.2,
                  "p_std": 1.2, "t_floor": 0.0001,
                  "timenoise": {"beta_m": 2.0, "a": 5.0, "variant": "additive"},
                  "cdm_beta": 0.2, "motion_feature": False, "s_w_choices": None,
                  "cond_frame": "first"},
        "sampler": {"start_time": 1.0, "steps": 50, "init": None,
                    "inference_beta": None},
        "diagnostics": {"eval_videos": 256,
                        "t_grid": [0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75,
                                   0.85, 0.95],
                        "m_grid": [1.0, 0.96, 0.92, 0.88, 0.84, 0.8],
                        "n_chains": 2000, "targets": []},
        "seed": 0, "output_dir": "out",
    }


def test_left_out_keys_take_the_field_defaults():
    cfg = from_payload(ExperimentConfig, {"schedule": {"beta_max": 15.0}})
    assert cfg.schedule.kind == "vp" and cfg.schedule.beta_max == 15.0
    cfg = from_payload(ExperimentConfig, {"train": {"timenoise": {"a": 3.0}}})
    assert cfg.train.timenoise.beta_m == 2.0 and cfg.train.timenoise.a == 3.0
    assert cfg.train.cdm_beta == 0.2
    # the default beta_m = 2 does not fit the interpolating variant
    with pytest.raises(ConfigError, match=r"^interpolation variant requires "
                                          r"beta_m = 1 in train.timenoise$"):
        from_payload(ExperimentConfig,
                     {"train": {"timenoise": {"variant": "interpolation"}}})


def test_save_config_is_byte_deterministic(tmp_path):
    cfg = load_config(None)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_config(a, cfg)
    save_config(b, cfg)
    assert a.read_bytes() == b.read_bytes()
    assert to_payload(load_config(a)) == to_payload(cfg)


def test_save_config_bytes_are_pinned(tmp_path):
    # the defaults are saved as these bytes; a change of number format in
    # the codec, or of a default, shows here
    path = tmp_path / "defaults.json"
    save_config(path, load_config(None))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "b007a32f11c97f66ea441f5fc61c342d9da6d8b64f18b1f4c0ac796a652cfa1c")


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        from_payload(ExperimentConfig, {"worlds": {}})
    with pytest.raises(ConfigError):
        from_payload(ExperimentConfig, {"world": {"frames": 3}})
    with pytest.raises(ConfigError):
        from_payload(ExperimentConfig, {"schedule": []})
    with pytest.raises(ConfigError):
        from_payload(ExperimentConfig, {"schedule": {"kind": "cosine"}})
    with pytest.raises(ConfigError):
        from_payload(ExperimentConfig, {"train": {"mode": "sgd"}})
    with pytest.raises(ConfigError):
        from_payload(ExperimentConfig,
                     {"train": {"timenoise": {"beta_m": 2, "a": 5, "bogus": 1}}})
    # the levels live under train; a top-level section is an unknown key
    with pytest.raises(ConfigError, match=r"^unknown keys at the top level: "
                                          r"\['timenoise'\]$"):
        from_payload(ExperimentConfig, {"timenoise": {"a": 3.0}})
    # values must have the JSON type of the dataclass field annotation:
    # each of these used to run (truncated, coerced) or fail inside numpy
    for section, key, value in [
        ("sampler", "steps", 2.5), (None, "seed", 1.9), ("train", "hidden", 8.7),
        ("train", "motion_feature", "no"), ("world", "n_frames", 2.5),
        ("train", "batch_size", 4.5), ("diagnostics", "n_chains", 3.5),
        ("world", "frame_dim", True), ("world", "s0", True), ("world", "s_w", "0.5"),
        ("world", "m0", ["a"]), ("diagnostics", "t_grid", [0.5, None]),
        ("train", "timenoise", 3), ("sampler", "init", []),
    ]:
        payload = {key: value} if section is None else {section: {key: value}}
        with pytest.raises(ConfigError, match=key):
            from_payload(ExperimentConfig, payload)
    # a nested section must still name every field that has no default
    with pytest.raises(ConfigError, match=r"missing keys in sampler.init: \['M'\]"):
        from_payload(ExperimentConfig,
                     {"sampler": {"init": {"mu_p": [0.0], "sigma_p2": 1.0}}})
    # ints are accepted for float fields, and null where the field allows it
    cfg = from_payload(ExperimentConfig,
                       {"world": {"s0": 2}, "train": {"cdm_beta": None}})
    assert cfg.world.s0 == 2 and cfg.train.cdm_beta is None


def test_invalid_json_reported(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


# ---------------------------------------------------------------------------
# CLI end to end (direct main() calls; every command takes --out)


def test_world_sample_deterministic(tmp_path):
    cfgp = small_config(tmp_path)
    out = tmp_path / "videos.csv"
    assert main(["world-sample", "--config", cfgp, "--n", "12",
                 "--out", str(out)]) == 0
    first = out.read_bytes()
    manifest_first = (tmp_path / "videos.csv.manifest.json").read_bytes()
    assert main(["world-sample", "--config", cfgp, "--n", "12",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == first
    assert (tmp_path / "videos.csv.manifest.json").read_bytes() == manifest_first
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape == (12, 32)


def test_estimate_init_matches_library(tmp_path):
    cfgp = small_config(tmp_path)
    data = tmp_path / "videos.csv"
    init_path = tmp_path / "init.json"
    assert main(["world-sample", "--config", cfgp, "--n", "64",
                 "--out", str(data)]) == 0
    assert main(["estimate-init", "--config", cfgp, "--data", str(data),
                 "--M", "0.9", "--out", str(init_path)]) == 0
    payload = json.loads(init_path.read_text())
    videos = np.loadtxt(data, delimiter=",", skiprows=1).reshape(-1, 8, 4)
    expected = optimal_init(estimate_moments(videos), td.NoiseSchedule.vp(), 0.9)
    np.testing.assert_allclose(payload["init"]["mu_p"], expected.mu_p, atol=1e-12)
    assert payload["init"]["sigma_p2"] == pytest.approx(expected.sigma_p2, rel=1e-12)
    assert payload["moments"]["n_samples"] == 64


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_estimate_init_names_the_data_file_on_a_non_finite_value(tmp_path, capsys,
                                                                 value):
    # a nan in the data used to exit 2 as "mu_p must be finite", a field of
    # the fitted init that the user never wrote
    cfgp = small_config(tmp_path)
    data = tmp_path / "videos.csv"
    assert main(["world-sample", "--config", cfgp, "--n", "4",
                 "--out", str(data)]) == 0
    lines = data.read_text().splitlines()
    lines[2] = ",".join([value, *lines[2].split(",")[1:]])
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "init.json"
    capsys.readouterr()
    assert main(["estimate-init", "--config", cfgp, "--data", str(data),
                 "--M", "0.9", "--out", str(out)]) == 2
    assert _one_config_error(capsys) == f"data file {data} holds a non-finite value"
    assert not out.exists()


def test_prop1_check_cli(tmp_path):
    cfgp = small_config(tmp_path)
    out = tmp_path / "prop1.json"
    assert main(["prop1-check", "--config", cfgp, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert len(report["reports"]) == 2  # one per configured start time


@pytest.mark.parametrize("s_w", [1e5, 1e6])
def test_prop1_check_cli_passes_a_wide_world(tmp_path, s_w):
    # the optimum of a world with variances up to 1e13 used to exit 4
    cfgp = small_config(tmp_path)
    payload = json.loads(pathlib.Path(cfgp).read_text())
    payload["world"]["s_w"] = s_w
    payload["diagnostics"]["m_grid"] = [1.0, 0.96, 0.92, 0.88, 0.84, 0.8]
    pathlib.Path(cfgp).write_text(json.dumps(payload))
    out = tmp_path / "prop1.json"
    assert main(["prop1-check", "--config", cfgp, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["passed"] is True


def test_train_and_sample_round_trip(tmp_path):
    cfgp = small_config(tmp_path)
    ck = tmp_path / "ck.json"
    assert main(["train", "--config", cfgp, "--mode", "naive", "--steps", "25",
                 "--seed", "1", "--out", str(ck)]) == 0
    first = ck.read_bytes()
    assert main(["train", "--config", cfgp, "--mode", "naive", "--steps", "25",
                 "--seed", "1", "--out", str(ck)]) == 0
    assert ck.read_bytes() == first  # training is byte-reproducible

    out = tmp_path / "samples.csv"
    argv = ["sample", "--config", cfgp, "--denoiser", f"ckpt:{ck}",
            "--n", "6", "--steps", "4", "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    summary = json.loads((tmp_path / "samples.csv.summary.json").read_text())
    assert summary["n"] == 6
    assert np.isfinite(summary["mean_motion"])
    assert main(argv) == 0
    assert out.read_bytes() == first


def test_motion_feature_checkpoint_samples_and_probes(tmp_path):
    # the checkpoint is conditioned on the world's expected motion score;
    # sample and diagnose leakage used to exit 2 for want of a value
    cfgp = small_config(tmp_path)
    payload = json.loads((tmp_path / "config.json").read_text())
    payload["train"]["motion_feature"] = True
    (tmp_path / "config.json").write_text(json.dumps(payload))
    ck = tmp_path / "mf.json"
    assert main(["train", "--config", cfgp, "--mode", "naive", "--steps", "5",
                 "--out", str(ck)]) == 0
    out = tmp_path / "samples.csv"
    assert main(["sample", "--config", cfgp, "--denoiser", f"ckpt:{ck}",
                 "--n", "6", "--out", str(out)]) == 0
    assert main(["diagnose", "leakage", "--config", cfgp, "--denoiser", f"ckpt:{ck}",
                 "--out", str(tmp_path / "leakage.csv")]) == 0
    cfg = load_config(cfgp)
    model, params, *_ = td.load_checkpoint(str(ck))
    den = td.TrainedDenoiser(model, params, cfg.schedule,
                             motion_value=td.expected_motion_score(cfg.world))
    y0 = first_frames(cfg.world, 6, np.random.default_rng([cfg.seed, 0, 1]))
    want = td.sample_batch(den, y0, cfg.sampler, cfg.schedule, 6,
                           np.random.default_rng([cfg.seed, 0, 2]))
    got = np.loadtxt(out, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(got, want.reshape(6, -1))


def test_train_cdm_gets_default_level(tmp_path):
    cfgp = small_config(tmp_path)
    payload = json.loads((tmp_path / "config.json").read_text())
    payload["train"]["timenoise"]["beta_m"] = 1.0  # a level read off beta_m moves
    (tmp_path / "config.json").write_text(json.dumps(payload))
    ck = tmp_path / "cdm.json"
    assert main(["train", "--config", cfgp, "--mode", "cdm", "--steps", "5",
                 "--out", str(ck)]) == 0
    payload = json.loads(ck.read_text())
    # the field default, whatever the timenoise levels are
    assert payload["config"]["train"]["cdm_beta"] == 0.2


def test_sample_with_analytic_init(tmp_path):
    cfgp = small_config(tmp_path)
    out = tmp_path / "ana.csv"
    assert main(["sample", "--config", cfgp, "--denoiser", "exact",
                 "--init", "analytic", "--M", "0.9", "--steps", "4",
                 "--n", "4", "--out", str(out)]) == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape == (4, 32)


def test_sample_with_init_file(tmp_path):
    cfgp = small_config(tmp_path)
    data = tmp_path / "videos.csv"
    init_path = tmp_path / "init.json"
    main(["world-sample", "--config", cfgp, "--n", "64", "--out", str(data)])
    main(["estimate-init", "--config", cfgp, "--data", str(data), "--M", "0.9",
          "--out", str(init_path)])
    out = tmp_path / "fitted.csv"
    assert main(["sample", "--config", cfgp, "--denoiser", "exact",
                 "--init", f"analytic:{init_path}", "--M", "0.9",
                 "--steps", "4", "--n", "4", "--out", str(out)]) == 0


def test_diagnose_leakage_oracle_flat(tmp_path):
    cfgp = small_config(tmp_path)
    out = tmp_path / "leak.csv"
    assert main(["diagnose", "leakage", "--config", cfgp, "--denoiser", "oracle",
                 "--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    np.testing.assert_allclose(rows[:, 1], 1.0, atol=1e-9)


def test_diagnose_init_ablation(tmp_path):
    cfgp = small_config(tmp_path)
    out = tmp_path / "ablation.csv"
    assert main(["diagnose", "init-ablation", "--config", cfgp,
                 "--out", str(out)]) == 0
    with open(out) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "M,init,kl,mean_output_ms,mean_err,cov_err"
    assert len(lines) == 1 + 4  # 2 start times x 2 init modes
    for line in lines[1:]:
        m_start, init, *numbers = line.split(",")
        assert init in ("standard", "analytic")
        assert all(np.isfinite(float(x)) for x in [m_start, *numbers])


def test_init_ablation_chains_see_the_clean_condition(tmp_path):
    # sampler.inference_beta noises motion-sweep's conditions but not the
    # ablation's, whose moment errors are against the clean-frame law
    payload = json.loads(pathlib.Path(small_config(tmp_path)).read_text())
    written = {}
    for beta in (None, 0.3):
        payload["sampler"]["inference_beta"] = beta
        cfgp = tmp_path / f"beta_{beta}.json"
        cfgp.write_text(json.dumps(payload))
        for command in ("init-ablation", "motion-sweep"):
            out = tmp_path / f"{command}_{beta}.csv"
            assert main(["diagnose", command, "--config", str(cfgp),
                         "--out", str(out)]) == 0
            written[command, beta] = out.read_bytes()
    assert written["init-ablation", None] == written["init-ablation", 0.3]
    assert written["motion-sweep", None] != written["motion-sweep", 0.3]


def test_diagnose_motion_sweep(tmp_path):
    cfgp = small_config(tmp_path)
    out = tmp_path / "sweep.csv"
    assert main(["diagnose", "motion-sweep", "--config", cfgp,
                 "--denoiser", "exact", "--out", str(out)]) == 0
    with open(out) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "input_ms,output_ms_mean,error"
    assert len(lines) == 2


def test_error_paths_exit_codes(tmp_path, capsys):
    assert main(["world-sample", "--config", str(tmp_path / "missing.json")]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"]["type"] == "config"

    cfgp = small_config(tmp_path)
    assert main(["sample", "--config", cfgp, "--denoiser", "bogus",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["sample", "--config", cfgp, "--denoiser", "oracle",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["diagnose", "leakage", "--config", cfgp,
                 "--denoiser", "ckpt:" + str(tmp_path / "no_ck.json"),
                 "--out", str(tmp_path / "x.csv")]) == 2

    # a config file that is not an object, an unknown --init, and data files
    # with rows one column short of the world's N * d = 32, a non-numeric
    # cell and rows of changing width, each named by the data file's path
    (tmp_path / "list.json").write_text("[]")
    data = {name: tmp_path / f"{name}.csv" for name in ("short", "text", "ragged")}
    data["short"].write_text(_header(31) + ",".join(["0.5"] * 31) + "\n")
    data["text"].write_text(_header(32) + ",".join(["0.5"] * 31 + ["a"]) + "\n")
    data["ragged"].write_text(_header(2) + "1,2\n1,2,3\n")
    # init files fitted at M = 0.9 for a video, and at the config's
    # start_time 1.0 with one entry too few
    init_m09, init_short = tmp_path / "init_m09.json", tmp_path / "init_short.json"
    for path, size, m in ((init_m09, 32, 0.9), (init_short, 31, 1.0)):
        init = td.InitDistribution(np.zeros(size), 1.0, m)
        path.write_text(json.dumps(to_payload(init)))
    for argv, message in [
        (["world-sample", "--config", str(tmp_path / "list.json")],
         "expected a JSON object at the top level, got list"),
        (["sample", "--config", cfgp, "--n", "2", "--init", "bogus"],
         "init must be one of 'standard', 'analytic', got 'bogus'"),
        (["estimate-init", "--config", cfgp, "--data", str(data["short"]), "--M", "0.9"],
         f"data file {data['short']} has 31 columns, world needs 32"),
        (["estimate-init", "--config", cfgp, "--data", str(data["text"]), "--M", "0.9"],
         f"data file {data['text']}: could not convert string 'a' to float64 "
         "at row 0, column 32."),
        (["estimate-init", "--config", cfgp, "--data", str(data["ragged"]), "--M", "0.9"],
         f"data file {data['ragged']}: the number of columns changed from 2 to 3 "
         "at row 2; use `usecols` to select a subset and avoid this error"),
        (["sample", "--config", cfgp, "--n", "2",
          "--init", f"analytic:{init_m09}"],
         "init distribution was fitted at M = 0.9, not at start_time = 1.0"),
        (["sample", "--config", cfgp, "--n", "2", "--M", "0.8",
          "--init", f"analytic:{init_m09}"],
         "init distribution was fitted at M = 0.9, not at start_time = 0.8"),
        (["sample", "--config", cfgp, "--n", "2",
          "--init", f"analytic:{init_short}"],
         "init distribution has 31 entries, a video has 32"),
    ]:
        capsys.readouterr()
        assert main([*argv, "--out", str(tmp_path / "x.out")]) == 2
        assert _one_config_error(capsys) == message

    # --n below 1 is named, not surfaced as a numpy reshape error
    for argv in (["world-sample"], ["sample", "--steps", "2"]):
        capsys.readouterr()
        assert main(argv + ["--config", cfgp, "--n", "0",
                            "--out", str(tmp_path / "x.csv")]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["message"] == "--n must lie in [1, inf), got 0"

    # a float where the schema wants an int is a config error, not truncated
    payload = json.loads((tmp_path / "config.json").read_text())
    payload["sampler"]["steps"] = 2.5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["sample", "--config", str(bad), "--n", "2",
                 "--out", str(tmp_path / "x.csv")]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == {"type": "config",
                            "message": "steps in sampler must be int, got 2.5"}

    # an --out that names a directory, or passes through a file, is the
    # caller's input at fault, not a bug
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("")
    for out in (tmp_path / "adir", tmp_path / "afile" / "x.csv"):
        capsys.readouterr()
        assert main(["world-sample", "--config", cfgp, "--n", "2",
                     "--out", str(out)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["type"] == "config"

    # samples whose motion summary overflows are a numerical failure, found
    # before any file is written: no CSV, summary or manifest
    payload["sampler"] = {"inference_beta": 1e308}
    huge = tmp_path / "huge_beta.json"
    huge.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["sample", "--config", str(huge), "--n", "3", "--steps", "2",
                 "--out", str(tmp_path / "huge.csv")]) == 3
    lines = capsys.readouterr().err.strip().splitlines()
    assert [json.loads(line) for line in lines] == [{"error": {
        "type": "numerical",
        "message": f"{tmp_path}/huge.csv.summary.json would hold a non-finite number"}}]
    assert not list(tmp_path.glob("huge.csv*"))


@pytest.mark.parametrize("kind, content, key", [
    ("init", {"mu_p": [0.0] * 32, "M": 0.9}, "sigma_p2"),
    ("ckpt", {"format_version": 1}, "config"),
], ids=["init-without-sigma_p2", "checkpoint-without-config"])
def test_malformed_input_file_names_path_and_key(tmp_path, capsys, kind, content,
                                                 key):
    cfgp = small_config(tmp_path)
    path = tmp_path / f"malformed_{kind}.json"
    path.write_text(json.dumps(content))
    flag = (["--init", f"analytic:{path}", "--M", "0.9"] if kind == "init"
            else ["--denoiser", f"ckpt:{path}"])
    assert main(["sample", "--config", cfgp, "--n", "2", *flag,
                 "--out", str(tmp_path / "x.csv")]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"]["type"] == "config"
    assert str(path) in err["error"]["message"]
    assert f"'{key}'" in err["error"]["message"]


@pytest.mark.parametrize("flag", ["--denoiser=ckpt:{}", "--init=analytic:{}"])
def test_input_file_that_is_not_json_is_named(tmp_path, capsys, flag):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["sample", "--n", "2", "--M", "0.9", flag.format(path),
                 "--out", str(tmp_path / "x.csv")]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert err["type"] == "config"
    assert f"{path} is not valid JSON" in err["message"]


_NO_HEADER = "does not start with the video header x0,x1,...: its first line is "


@pytest.mark.parametrize("content, message", [
    ("{bad\n", _NO_HEADER + "'{bad\\n'"),
    # a video file without its header lost its first video to the header
    (",".join(["0.5"] * 32) + "\n", _NO_HEADER + "'0.5,0.5,0.5,...0.5,0.5,0.5\\n'"),
    (_header(2), "has no data rows"),
    ("", "has no data rows"),
], ids=["not-csv", "headerless", "header-only", "empty"])
def test_estimate_init_without_data_rows_is_one_json_line(tmp_path, content, message):
    # a real process, so a warning numpy prints on stderr is seen too; a
    # first line that is not the x0,x1,... header write_videos writes is
    # refused, not skipped
    data = tmp_path / "data.csv"
    data.write_text(content)
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", "from toydiffusion.cli import entry; entry()",
         "estimate-init", "--data", str(data), "--M", "0.9",
         "--out", str(tmp_path / "init.json")],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert json.loads(lines[0]) == {"error": {
        "type": "config", "message": f"data file {data} {message}"}}


@pytest.mark.parametrize("command", ["sample", "train", "estimate-init"])
def test_numerical_failure_is_one_json_line(tmp_path, command):
    # a real process, so a warning numpy prints on stderr is seen too: a
    # start mean of 1e308 overflows the sampler's state, and a step size
    # of 1e300 the training loss, each of which the run reports itself;
    # finite data rows of +-1e200 overflow their moments, which is an input
    # error that names the data file
    cfgp = small_config(tmp_path)
    code, kind = 3, "numerical"
    if command == "estimate-init":
        (tmp_path / "videos.csv").write_text("".join(
            f"{row}\n" for row in (_header(32).strip(), ",".join(["1e200"] * 32),
                                    ",".join(["-1e200"] * 32))))
        args = ["estimate-init", "--data", "videos.csv", "--M", "0.9"]
        code, kind = 2, "config"
        message = "data file videos.csv: avg_var must lie in [0, inf), got inf"
    elif command == "sample":
        (tmp_path / "init.json").write_text(json.dumps(
            {"mu_p": [1e308] * 32, "sigma_p2": 1.0, "M": 1.0}))
        args = ["sample", "--n", "3", "--M", "1.0", "--init", "analytic:init.json"]
        message = "non-finite sampler state at step 4 (t=0)"
    else:
        payload = json.loads(pathlib.Path(cfgp).read_text())
        payload["train"]["lr"] = 1e300
        pathlib.Path(cfgp).write_text(json.dumps(payload))
        args = ["train", "--mode", "naive"]
        message = "non-finite training loss at step 1: inf"
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", "from toydiffusion.cli import entry; entry()",
         *args, "--config", cfgp, "--out", str(tmp_path / "out")],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == code
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert json.loads(lines[0]) == {"error": {"type": kind, "message": message}}


@pytest.mark.parametrize("block, key, value", [
    ("world", "s0", True), ("world", "s0", "1.0"), ("world", "m0", "0"),
    ("train", "hidden", 64.0), ("world", "bogus", 1.0),
], ids=["world.s0-bool", "world.s0-string", "world.m0-string",
        "train.hidden-float", "world-unknown-key"])
def test_mistyped_checkpoint_names_path_and_key(tmp_path, capsys, block, key,
                                                value):
    # a checkpoint's stored config goes through the config's own type checks
    cfgp = small_config(tmp_path)
    ck = tmp_path / "ck.json"
    assert main(["train", "--config", cfgp, "--mode", "naive", "--steps", "2",
                 "--out", str(ck)]) == 0
    payload = json.loads(ck.read_text())
    payload["config"][block][key] = value
    ck.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["diagnose", "leakage", "--config", cfgp,
                 "--denoiser", f"ckpt:{ck}", "--out", str(tmp_path / "x.csv")]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    assert err["type"] == "config"
    assert str(ck) in err["message"] and key in err["message"]


@pytest.mark.parametrize("exc_type", [TypeError, KeyError])
def test_bug_in_a_command_is_not_a_config_error(tmp_path, monkeypatch, exc_type):
    # only malformed input maps to exit 2; a TypeError or KeyError raised by
    # package code inside a command is a bug and must surface as one
    def broken(*args, **kwargs):
        raise exc_type("injected")

    monkeypatch.setattr("toydiffusion.cli.sample_videos", broken)
    with pytest.raises(exc_type, match="injected"):
        main(["world-sample", "--config", small_config(tmp_path),
              "--out", str(tmp_path / "x.csv")])


def test_outputs_identical_across_blas_thread_counts(tmp_path):
    # byte-determinism holds per machine, numpy/BLAS build and thread count;
    # on one machine, train and sample outputs must not depend on how many
    # threads BLAS uses
    cfgp = small_config(tmp_path)
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    written = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")])
        )
        run_dir = tmp_path / f"threads_{threads}"
        run_dir.mkdir()
        for argv in (
            ["train", "--mode", "timenoise", "--steps", "300", "--out", "ck.json"],
            ["sample", "--denoiser", "exact", "--n", "3000", "--steps", "50",
             "--out", "samples.csv"],
        ):
            subprocess.run(
                [sys.executable, "-c", "from toydiffusion.cli import entry; entry()",
                 *argv, "--config", cfgp],
                cwd=run_dir, env=env, check=True, capture_output=True,
            )
        written[threads] = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    assert len(written["1"]) == 5  # checkpoint, samples, summary, 2 manifests
    assert written["1"] == written["2"]


@pytest.mark.parametrize("section, override, named", [
    ("schedule", {"kind": "ve"}, "'kind': 've'"),
    ("world", {"s_w": 2.0}, "'s_w': 2.0"),
], ids=["schedule", "world"])
def test_checkpoint_must_match_config(tmp_path, capsys, section, override, named):
    # a checkpoint trained under another schedule or world must not be run
    # under the config's: that silently samples from the wrong process
    cfgp = small_config(tmp_path)
    payload = json.loads((tmp_path / "config.json").read_text())
    payload[section].update(override)
    other = tmp_path / "other.json"
    other.write_text(json.dumps(payload))
    ck = tmp_path / "ck.json"
    assert main(["train", "--config", str(other), "--mode", "naive",
                 "--steps", "5", "--out", str(ck)]) == 0
    for argv in (["sample", "--n", "4", "--steps", "3"], ["diagnose", "leakage"]):
        capsys.readouterr()
        assert main(argv + ["--config", cfgp, "--denoiser", f"ckpt:{ck}",
                            "--out", str(tmp_path / "x.csv")]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "config"
        message = err["error"]["message"]
        assert f"checkpoint {section}" in message and named in message
        assert f"config {section}" in message


def _one_config_error(capsys):
    """The single JSON error line on stderr, which must be a config error."""
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    assert err["type"] == "config"
    return err["message"]


def test_top_level_timenoise_section_is_rejected(tmp_path, capsys):
    # the levels are train.timenoise; a top-level section is an unknown key,
    # for every command
    cfgp = tmp_path / "config.json"
    cfgp.write_text(json.dumps({"timenoise": {"a": 3.0}}))
    for argv in (["train", "--mode", "timenoise", "--steps", "2"],
                 ["world-sample", "--n", "2"]):
        capsys.readouterr()
        assert main([*argv, "--config", str(cfgp),
                     "--out", str(tmp_path / "x.out")]) == 2
        assert _one_config_error(capsys) == (
            "unknown keys at the top level: ['timenoise']")
        assert not (tmp_path / "x.out").exists()


@pytest.mark.parametrize("mode", ["timenoise", "constant", "cdm"])
def test_checkpoint_config_trains_the_checkpoint_again(tmp_path, mode):
    # a checkpoint stores the levels it trained with in every mode, so its
    # config (train section, world and schedule) is a config that trains
    # the same checkpoint byte for byte
    cfgp = small_config(tmp_path)
    payload = json.loads((tmp_path / "config.json").read_text())
    payload["train"].update(
        timenoise={"beta_m": 1.0, "a": 3.0, "variant": "interpolation"}, cdm_beta=0.35)
    (tmp_path / "config.json").write_text(json.dumps(payload))
    first, again, second = (tmp_path / f for f in ("first.json", "again.json",
                                                  "second.json"))
    assert main(["train", "--config", cfgp, "--mode", mode, "--out", str(first)]) == 0
    stored = json.loads(first.read_text())["config"]
    assert stored["train"]["timenoise"]["a"] == 3.0
    assert stored["train"]["cdm_beta"] == 0.35
    again.write_text(json.dumps(stored))
    assert main(["train", "--config", str(again), "--mode", mode,
                 "--out", str(second)]) == 0
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("section, key, value, argv", [
    ("sampler", "inference_beta", float("nan"), ["sample", "--n", "4"]),
    ("train", "lr", float("inf"), ["train", "--mode", "naive"]),
    ("train", "p_std", float("nan"), ["train", "--mode", "naive"]),
    ("train", "cdm_beta", float("inf"), ["train", "--mode", "cdm"]),
    ("train.timenoise", "beta_m", float("inf"), ["train", "--mode", "timenoise"]),
    ("world", "s0", 10**400, ["train", "--mode", "naive"]),
    ("world", "n_frames", 10**400, ["train", "--mode", "naive"]),
    ("train", "steps", 10**400, ["train", "--mode", "naive"]),
    ("diagnostics", "t_grid", [0.5, 10**400], ["train", "--mode", "naive"]),
], ids=["inference_beta-nan", "lr-inf", "p_std-nan", "cdm_beta-inf", "beta_m-inf",
        "s0-huge-int", "n_frames-huge-int", "steps-huge-int", "t_grid-huge-int"])
def test_non_finite_number_is_a_config_error(tmp_path, capsys, section, key, value,
                                             argv):
    # NaN and Infinity are JSON numbers to Python's reader, but no field
    # takes one: the key is named and the run exits 2, not 3; nor does any
    # take an integer too large for a double, which exited 3 when converted
    cfgp = small_config(tmp_path)
    payload = json.loads((tmp_path / "config.json").read_text())
    where = payload
    for name in section.split("."):
        where = where[name]
    where[key] = value
    payload["train"]["t_sampler"] = "edm"  # the sampler that reads p_std
    (tmp_path / "config.json").write_text(json.dumps(payload))
    capsys.readouterr()
    assert main([*argv, "--config", cfgp, "--steps", "3",
                 "--out", str(tmp_path / "x.out")]) == 2
    assert f"{key} in {section} must be" in _one_config_error(capsys)


@pytest.mark.parametrize("section, values, argv, name", [
    ("world", {"drift": [3e307, 0.0, 0.0, 0.0]}, ["world-sample", "--n", "2"], "drift"),
    *(("world", {"m0": 1e307}, argv, "round away next to the frame means")
      for argv in (["diagnose", "leakage"], ["diagnose", "init-ablation"],
                   ["diagnose", "motion-sweep"], ["prop1-check"])),
    ("train", {"cdm_beta": -0.5}, ["train", "--mode", "cdm", "--steps", "2"],
     "cdm_beta"),
    ("world", {}, ["diagnose", "leakage", "--denoiser", "leaky", "--p", "inf"],
     "p must lie in (0, inf), got inf"),
    ("diagnostics", {"t_grid": []}, ["diagnose", "leakage"],
     "t_grid and m_grid must be nonempty"),
    ("diagnostics", {"eval_videos": 0}, ["diagnose", "leakage"],
     "eval_videos must lie in [1, inf), got 0 in diagnostics"),
    ("diagnostics", {"t_grid": [1.5]}, ["diagnose", "leakage"],
     "t_grid entries must lie in (0, 1]"),
    ("diagnostics", {"m_grid": [0.0]}, ["diagnose", "init-ablation"],
     "m_grid entries must lie in (0, 1]"),
    (None, {"output_dir": ""}, ["world-sample", "--n", "2"],
     "output_dir must be a nonempty path at the top level"),
    (None, {}, ["sample", "--n", "2", "--M", "1e-300", "--steps", "2"],
     "no noise to remove at t_from = 1e-300"),
    (None, {}, ["sample", "--n", "2", "--M", "1e-20", "--steps", "1"],
     "no noise to remove at t_from = 1e-20"),
    ("diagnostics", {"t_grid": [1e-20]}, ["diagnose", "leakage"],
     "no noise to remove at t_from = 1e-20"),
    ("diagnostics", {"m_grid": [1e-20]}, ["diagnose", "init-ablation"],
     "no noise to remove at t_from = 1e-20"),
    ("diagnostics", {"m_grid": [1e-20]}, ["prop1-check"],
     "no noise to remove at t_from = 1e-20"),
    *((None, {"world": {"s0": 0.0}, "diagnostics": {"m_grid": [1e-20]}}, argv,
       "no noise to remove at t_from = 1e-20")
      for argv in (["prop1-check"], ["diagnose", "init-ablation"])),
    *(("schedule", {"kind": "ve", "sigma_max": 1e200}, argv,
       "sigma_max's square must be finite, got 1e+200 in schedule")
      for argv in (["prop1-check"], ["sample", "--n", "2"], ["diagnose", "leakage"],
                   ["diagnose", "init-ablation"], ["train", "--mode", "naive"],
                   ["world-sample", "--n", "2"])),
], ids=["world-drift-overflow",
        *(f"world-m0-static-{name}" for name in (
            "leakage", "init-ablation", "motion-sweep", "prop1-check")),
        "cdm_beta-negative", "leaky-p-inf", "t_grid-empty",
        "eval_videos-zero", "t_grid-above-one", "m_grid-zero", "output_dir-empty",
        "sample-noiseless-M-two-steps", "sample-noiseless-M-one-step",
        "t_grid-noiseless", "m_grid-noiseless", "m_grid-noiseless-prop1-check",
        *(f"m_grid-noiseless-s0-zero-{name}" for name in ("prop1-check", "init-ablation")),
        *(f"ve-sigma_max-overflow-{name}" for name in (
            "prop1-check", "sample", "leakage", "init-ablation", "train",
            "world-sample"))])
def test_out_of_range_input_is_a_config_error(tmp_path, capsys, section, values, argv,
                                              name):
    # a drift whose frame offsets overflow wrote inf into the last frames,
    # a negative cdm level trained, and p = inf made a leak of 0 below t = 1;
    # all exited 0, and an empty output_dir was used only without --out.  A
    # noiseless start exited 0 in prop1-check, and 3 ("Matrix is not positive
    # definite") in it and init-ablation when frame 1 has no spread
    cfgp = small_config(tmp_path)
    payload = json.loads((tmp_path / "config.json").read_text())
    (payload if section is None else payload[section]).update(values)
    (tmp_path / "config.json").write_text(json.dumps(payload))
    out = tmp_path / "x.out"
    capsys.readouterr()
    assert main([*argv, "--config", cfgp, "--out", str(out)]) == 2
    assert name in _one_config_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("name", ["m0", "drift"])
def test_wrong_length_world_vector_is_a_config_error(tmp_path, capsys, name):
    # numpy's broadcast error used to be the message, naming neither field
    cfgp = small_config(tmp_path)
    payload = json.loads((tmp_path / "config.json").read_text())
    payload["world"][name] = [1.0, 2.0, 3.0]
    (tmp_path / "config.json").write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["world-sample", "--n", "2", "--config", cfgp,
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert _one_config_error(capsys) == (
        f"{name} must be a scalar or frame_dim = 4 entries, got shape (3,) in world")


def test_negative_seed_is_rejected_at_construction():
    # default_rng refuses a negative seed, so each failed at its first draw
    # with numpy's "expected non-negative integer", naming no key
    with pytest.raises(ValueError, match=r"^seed must lie in \[0, inf\), got -3$"):
        td.TrainConfig(seed=-3)
    with pytest.raises(ConfigError,
                       match=r"^seed must lie in \[0, inf\), got -1 at the top level$"):
        from_payload(ExperimentConfig, {"seed": -1})


@pytest.mark.parametrize("values, argv, message", [
    ({"seed": -1}, ["world-sample", "--n", "2"], "got -1 at the top level"),
    ({"train": {"seed": -3}}, ["train", "--mode", "naive"], "got -3 in train"),
    ({}, ["train", "--mode", "naive", "--seed", "-1"], "got -1"),
], ids=["top-level", "train-section", "train-flag"])
def test_negative_seed_is_a_config_error(tmp_path, capsys, values, argv, message):
    cfgp = small_config(tmp_path)
    payload = json.loads((tmp_path / "config.json").read_text())
    payload["seed"] = values.get("seed", 0)
    payload["train"].update(values.get("train", {}))
    (tmp_path / "config.json").write_text(json.dumps(payload))
    capsys.readouterr()
    out = tmp_path / "x.out"
    assert main([*argv, "--config", cfgp, "--out", str(out)]) == 2
    assert _one_config_error(capsys) == f"seed must lie in [0, inf), {message}"
    assert not out.exists()


def test_train_draws_from_train_seed_alone(tmp_path):
    # train draws from train.seed (or --seed); the top-level seed, which
    # every other command draws from, leaves the checkpoint's bytes alone
    cfgp = small_config(tmp_path)
    payload = json.loads((tmp_path / "config.json").read_text())
    checkpoints = []
    for top, train_seed in ((0, 0), (3, 0), (0, 3)):
        payload["seed"], payload["train"]["seed"] = top, train_seed
        (tmp_path / "config.json").write_text(json.dumps(payload))
        ck = tmp_path / f"ck_{top}_{train_seed}.json"
        assert main(["train", "--config", cfgp, "--mode", "naive", "--steps", "5",
                     "--out", str(ck)]) == 0
        checkpoints.append(ck.read_bytes())
    assert checkpoints[1] == checkpoints[0]
    assert checkpoints[2] != checkpoints[0]


@pytest.mark.parametrize("refused", ["read", "write"])
def test_unreadable_or_unwritable_file_is_a_config_error(tmp_path, capsys,
                                                         monkeypatch, refused):
    # a PermissionError, on the config read or the CSV write (codec opens
    # both), escaped main as a bug with a traceback
    cfgp = small_config(tmp_path)

    def refuse(path, mode="r", *args, **kwargs):
        if refused == "write" and "w" not in mode:
            return open(path, mode, *args, **kwargs)
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr("toydiffusion.codec.open", refuse, raising=False)
    capsys.readouterr()
    out = tmp_path / "videos.csv"
    assert main(["world-sample", "--config", cfgp, "--n", "2", "--out", str(out)]) == 2
    assert "Permission denied" in _one_config_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("target", [0.0, -1.0])
def test_non_positive_motion_target_is_rejected(tmp_path, capsys, target):
    # a target is a motion score, which is positive; 0 divided the sweep's
    # relative error by zero and a negative one ran
    cfgp = small_config(tmp_path)
    payload = json.loads((tmp_path / "config.json").read_text())
    payload["train"]["motion_feature"] = True
    (tmp_path / "config.json").write_text(json.dumps(payload))
    ck = tmp_path / "ck.json"
    assert main(["train", "--config", cfgp, "--mode", "naive", "--steps", "2",
                 "--out", str(ck)]) == 0
    payload["diagnostics"]["targets"] = [1.0, target]
    (tmp_path / "config.json").write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["diagnose", "motion-sweep", "--config", cfgp,
                 "--denoiser", f"ckpt:{ck}", "--out", str(tmp_path / "x.csv")]) == 2
    assert "targets" in _one_config_error(capsys)


@pytest.mark.parametrize("argv", [
    ["sample", "--n", "2"], ["diagnose", "leakage"], ["diagnose", "motion-sweep"],
], ids=["sample", "leakage", "motion-sweep"])
def test_one_frame_world_is_rejected(tmp_path, capsys, argv):
    # a one-frame video has no motion to score; sample used to write its CSV
    # and then fail on the motion summary, with no manifest
    cfgp = small_config(tmp_path)
    payload = json.loads((tmp_path / "config.json").read_text())
    payload["world"]["n_frames"] = 1
    (tmp_path / "config.json").write_text(json.dumps(payload))
    capsys.readouterr()
    assert main([*argv, "--config", cfgp, "--out", str(tmp_path / "x.csv")]) == 2
    assert "n_frames" in _one_config_error(capsys)
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


_VIDEO_COLUMNS = [f"x{i}" for i in range(8 * 4)]


@pytest.mark.parametrize("argv, header", [
    (["world-sample", "--n", "3"], _VIDEO_COLUMNS),
    (["sample", "--n", "3"], _VIDEO_COLUMNS),
    (["diagnose", "leakage"], ["t", "ratio"]),
    (["diagnose", "motion-sweep"], ["input_ms", "output_ms_mean", "error"]),
    (["diagnose", "init-ablation"],
     ["M", "init", "kl", "mean_output_ms", "mean_err", "cov_err"]),
], ids=["world-sample", "sample", "leakage", "motion-sweep", "init-ablation"])
def test_csv_header_columns(tmp_path, argv, header):
    # cli.py states no column list; each header is the keys of the rows
    out = tmp_path / "x.csv"
    assert main([*argv, "--config", small_config(tmp_path), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0].split(",") == header


def test_failed_run_leaves_no_empty_output_dir(tmp_path, monkeypatch):
    # without --out a command writes under output_dir, which main creates;
    # a run that fails before writing anything removes it again
    monkeypatch.chdir(tmp_path)
    assert main(["world-sample", "--n", "0"]) == 2
    assert list(tmp_path.iterdir()) == []
    # a failed acceptance check keeps the report it wrote, a success its output
    monkeypatch.setattr("toydiffusion.cli.verify_optimality",
                        lambda *args: {"passed": False})
    assert main(["prop1-check"]) == 4
    assert main(["world-sample", "--n", "2"]) == 0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "prop1_report.json", "prop1_report.json.manifest.json",
        "videos.csv", "videos.csv.manifest.json"]
    # an empty output_dir that the run did not create stays
    (tmp_path / "other" / "out").mkdir(parents=True)
    monkeypatch.chdir(tmp_path / "other")
    assert main(["world-sample", "--n", "0"]) == 2
    assert (tmp_path / "other" / "out").is_dir()


def test_python_m_toydiffusion_is_the_cli(tmp_path):
    # the package runs as a module, and its error is the one JSON line
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "toydiffusion", "world-sample", "--n", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert json.loads(lines[0]) == {"error": {
        "type": "config", "message": "--n must lie in [1, inf), got 0"}}


_SCIPY_FREE = """
import sys
import numpy as np
import toydiffusion as td
from toydiffusion.cli import main
world, vp = td.GaussianWorld(), td.NoiseSchedule.vp()
rng = np.random.default_rng(0)
y0 = np.zeros(world.frame_dim)
for den in (td.ExactDenoiser(world, vp), td.LeakyDenoiser(world, vp, 0.8, 4.0)):
    td.sample_batch(den, y0, td.SamplerConfig(steps=3), vp, 4, rng)
td.leakage_curve(td.ExactDenoiser(world, vp), td.sample_videos(world, 4, rng),
                 vp, (0.5,), seed=0)
noise = td.TimeNoiseParams(beta_m=2.0, a=5.0)
for mode in ("naive", "constant", "timenoise"):
    td.train(world, vp, td.TrainConfig(mode=mode, steps=2, batch_size=4, hidden=4,
                                       timenoise=noise))
td.train(world, vp, td.TrainConfig(steps=2, batch_size=4, hidden=4, motion_feature=True,
                                   s_w_choices=(0.25, 1.0)))
td.expected_motion_score(world, [0.25, 1.0])
td.pdf(noise, 0.5, [0.5, 1.0])
for argv in (["sample", "--denoiser", "exact", "--n", "2", "--out", "samples.csv"],
             ["train", "--mode", "timenoise", "--out", "ckpt.json"],
             ["diagnose", "motion-sweep", "--out", "sweep.csv"]):
    assert main([*argv, "--config", sys.argv[1]]) == 0, argv
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if "scipy" in m)
"""


def test_no_run_path_loads_scipy(tmp_path):
    # a fresh interpreter: sampling, leakage curves, training in every
    # level mode and with the motion feature, the motion score, the level
    # density and the sample, train and motion-sweep commands run on numpy
    # alone
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")])
    )
    proc = subprocess.run([sys.executable, "-c", _SCIPY_FREE, small_config(tmp_path)],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# fuzzed configs and flags for the cheap commands


_JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
# ints stay at 16 or below so that no world or --n allocates much
_VALUE = st.one_of(
    st.integers(-2, 16), st.floats(), st.lists(st.floats(-2, 2), max_size=5), _JUNK
)


@st.composite
def _payloads(draw):
    """The default config with up to three keys (a field, a section or an
    unknown key, at the top level or in a section) set to a drawn value."""
    payload = to_payload(load_config(None))
    for _ in range(draw(st.integers(0, 3))):
        section = draw(st.sampled_from([None, *payload]))
        target = payload if section is None else payload[section]
        if isinstance(target, dict):
            target[draw(st.sampled_from([*target, "bogus"]))] = draw(_VALUE)
    return payload


_FLAGS = st.one_of(
    st.tuples(st.just("world-sample"), st.integers(-2, 16).map("--n={}".format)),
    st.tuples(st.just("prop1-check")),
    st.tuples(st.just("estimate-init"),
              st.one_of(st.floats(0, 1), st.floats()).map("--M={!r}".format)),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    assert main(["world-sample", "--n", "8", "--out", str(path / "data.csv")]) == 0
    return path


@given(payload=_payloads(), flags=_FLAGS)
def test_fuzzed_config_and_flags_exit_cleanly(fuzz_dir, payload, flags):
    # any config and flag values end in a documented exit code, with exactly
    # one JSON error line on failure; an exception escaping main fails this
    config = fuzz_dir / "config.json"
    config.write_text(json.dumps(payload))
    argv = [*flags, "--config", str(config), "--out", str(fuzz_dir / "out")]
    if flags[0] == "estimate-init":
        argv += ["--data", str(fuzz_dir / "data.csv")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    errors = [json.loads(line)["error"] for line in err.getvalue().splitlines()
              if line.startswith('{"error"')]
    assert len(errors) == (code != 0)
    assert all(e["type"] in ("config", "numerical", "acceptance") for e in errors)


def test_sample_reads_sampler_init_from_the_config(tmp_path, capsys):
    # without --init, sample starts from the config's sampler.init; the flag
    # still decides when given, and an init fitted at another M is rejected
    cfgp = small_config(tmp_path)
    cfg = load_config(cfgp)
    payload = json.loads((tmp_path / "config.json").read_text())
    payload["sampler"].update(start_time=0.9, init=to_payload(
        optimal_init(td.exact_moments(cfg.world), cfg.schedule, 0.9)))
    fitted = tmp_path / "fitted.json"
    fitted.write_text(json.dumps(payload))

    def run(config, *flags):
        out = tmp_path / "s.csv"
        code = main(["sample", "--config", str(config), "--n", "4", *flags,
                     "--out", str(out)])
        if code:
            return code, None
        summary = json.loads((tmp_path / "s.csv.summary.json").read_text())
        return out.read_bytes(), summary["config"]["init"]

    from_config, init = run(fitted)
    assert init == payload["sampler"]["init"]
    assert run(fitted, "--init", "analytic")[0] == from_config
    assert run(cfgp, "--M", "0.9", "--init", "analytic")[0] == from_config
    standard, init = run(fitted, "--init", "standard")
    assert init is None and standard != from_config
    capsys.readouterr()
    assert run(fitted, "--M", "0.8") == (2, None)
    assert _one_config_error(capsys) == (
        "init distribution was fitted at M = 0.9, not at start_time = 0.8")


def test_output_dir_naming_a_file_is_a_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("keep")
    (tmp_path / "c.json").write_text(json.dumps({"output_dir": "afile"}))
    assert main(["world-sample", "--config", "c.json", "--n", "2"]) == 2
    assert "afile" in _one_config_error(capsys)
    assert (tmp_path / "afile").read_text() == "keep"


def test_failed_run_removes_the_parents_it_created(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps({"output_dir": "a/b/c"}))
    assert main(["world-sample", "--config", "c.json", "--n", "0"]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]
    # a parent that was there before the run stays, even when empty
    (tmp_path / "a").mkdir()
    assert main(["world-sample", "--config", "c.json", "--n", "0"]) == 2
    assert list((tmp_path / "a").iterdir()) == []


def test_every_sampling_denoiser_states_shape_and_schedule(tmp_path):
    # the sampler reads the video shape and the schedule from the denoiser
    cfgp = small_config(tmp_path)
    ck = tmp_path / "ck.json"
    assert main(["train", "--config", cfgp, "--mode", "naive", "--steps", "2",
                 "--out", str(ck)]) == 0
    cfg = load_config(cfgp)
    for spec in ("exact", "leaky", f"ckpt:{ck}"):
        args = argparse.Namespace(denoiser=spec, lam_max=0.8, p=4.0)
        den = _build_denoiser(args, cfg)
        assert den.shape == (cfg.world.n_frames, cfg.world.frame_dim)
        assert den.schedule == cfg.schedule


@pytest.mark.parametrize("section, values, argv", [
    ("train", {"lr": 1e200}, ["train", "--mode", "naive", "--steps", "1"]),
    ("schedule", {"beta_max": 1e6}, ["diagnose", "leakage", "--denoiser", "oracle"]),
], ids=["train-final_loss-inf", "oracle-leakage-alpha-zero"])
def test_a_non_finite_output_is_a_numerical_failure(tmp_path, section, values, argv):
    # each wrote Infinity or NaN and exited 0 after a numpy RuntimeWarning,
    # and a checkpoint with an infinite final_loss could not be read back;
    # a real process, so a warning numpy prints on stderr is seen too
    cfgp = small_config(tmp_path)
    payload = json.loads(pathlib.Path(cfgp).read_text())
    payload[section].update(values)
    pathlib.Path(cfgp).write_text(json.dumps(payload))
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "toydiffusion", *argv, "--config", cfgp, "--out", "out"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 3
    assert [json.loads(line) for line in proc.stderr.splitlines()] == [{"error": {
        "type": "numerical", "message": "out would hold a non-finite number"}}]
    assert not list(tmp_path.glob("out*"))
