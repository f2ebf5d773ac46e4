import json

import numpy as np
import pytest

import toydiffusion as td
from toydiffusion.analytic_init import estimate_moments, optimal_init
from toydiffusion.cli import (
    ConfigError,
    config_from_payload,
    config_payload,
    load_config,
    main,
    save_config,
)


def small_config(tmp_path):
    """A full config with sizes turned down for fast end-to-end runs."""
    payload = config_payload(load_config(None))
    payload["diagnostics"].update(
        {"eval_videos": 24, "n_chains": 12, "t_grid": [0.3, 0.9],
         "m_grid": [1.0, 0.9]}
    )
    payload["sampler"]["steps"] = 5
    payload["train"]["steps"] = 25
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


# ---------------------------------------------------------------------------
# config handling


def test_default_config_round_trip():
    cfg = load_config(None)
    payload = config_payload(cfg)
    again = config_payload(config_from_payload(payload))
    assert again == payload
    assert cfg.schedule.kind == "vp"
    assert cfg.timenoise.beta_m == 2.0 and cfg.timenoise.a == 5.0


def test_save_config_is_byte_deterministic(tmp_path):
    cfg = load_config(None)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_config(a, cfg)
    save_config(b, cfg)
    assert a.read_bytes() == b.read_bytes()
    assert config_payload(load_config(a)) == config_payload(cfg)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        config_from_payload({"worlds": {}})
    with pytest.raises(ConfigError):
        config_from_payload({"world": {"frames": 3}})
    with pytest.raises(ConfigError):
        config_from_payload({"schedule": []})
    with pytest.raises(ConfigError):
        config_from_payload({"schedule": {"kind": "cosine"}})
    with pytest.raises(ConfigError):
        config_from_payload({"train": {"mode": "sgd"}})
    with pytest.raises(ConfigError):
        config_from_payload(
            {"train": {"timenoise": {"beta_m": 2, "a": 5, "bogus": 1}}}
        )


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


def test_prop1_check_cli(tmp_path):
    cfgp = small_config(tmp_path)
    out = tmp_path / "prop1.json"
    assert main(["prop1-check", "--config", cfgp, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert len(report["reports"]) == 2  # one per configured start time


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


def test_train_cdm_gets_default_level(tmp_path):
    cfgp = small_config(tmp_path)
    ck = tmp_path / "cdm.json"
    assert main(["train", "--config", cfgp, "--mode", "cdm", "--steps", "5",
                 "--out", str(ck)]) == 0
    payload = json.loads(ck.read_text())
    # 0.1 * beta_m with the default timenoise section
    assert payload["config"]["train"]["cdm_beta"] == pytest.approx(0.2)


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
