import csv
import json

import numpy as np
import pytest

import toydiffusion as td
from toydiffusion.diagnostics import (
    LeakageCurve,
    OracleEps,
    conditional_moment_errors,
    config_digest,
    init_ablation,
    leakage_curve,
    motion_score,
    motion_scores,
    motion_sweep,
    one_step_prediction,
    write_csv,
    write_manifest,
)
from toydiffusion.world import ExactDenoiser, LeakyDenoiser


def test_motion_score_hand_example():
    video = np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 3.0]])
    # per-pair coordinate-mean |diff|: 1 then 2
    assert motion_score(video) == pytest.approx(3.0)
    batch = np.stack([video, 2 * video])
    np.testing.assert_allclose(motion_scores(batch), [3.0, 6.0])
    with pytest.raises(ValueError):
        motion_score(video[:1])


def test_one_step_prediction_replays_corruption(world, vp):
    den = ExactDenoiser(world, vp)
    rng = np.random.default_rng(0)
    x0 = td.sample_videos(world, 5, rng)
    y0 = x0[:, 0, :]
    t = 0.45
    got = one_step_prediction(den, x0, y0, vp, t, np.random.default_rng(1))
    from toydiffusion.schedule import perturb
    from toydiffusion.world import x0_from_eps

    xt, _ = perturb(vp, x0, t, np.random.default_rng(1))
    want = x0_from_eps(den.predict_eps(xt, y0, t), xt, vp, t)
    np.testing.assert_allclose(got, want, atol=1e-12)
    with pytest.raises(ValueError):
        one_step_prediction(den, x0, y0, vp, 0.0, rng)


def test_oracle_curve_is_exactly_flat(world, vp):
    rng = np.random.default_rng(2)
    evs = td.sample_videos(world, 64, rng)
    curve = leakage_curve(OracleEps(), evs, vp, [0.1, 0.5, 0.9, 0.95], seed=7)
    assert isinstance(curve, LeakageCurve)
    np.testing.assert_allclose(curve.ratio, 1.0, atol=1e-10)
    rows = curve.rows()
    assert set(rows[0]) == {"t", "ratio"} and rows[0]["t"] == 0.1


def test_leakage_curve_is_seed_paired(world, vp):
    evs = td.sample_videos(world, 32, np.random.default_rng(3))
    den = ExactDenoiser(world, vp)
    a = leakage_curve(den, evs, vp, [0.3, 0.9], seed=11)
    b = leakage_curve(den, evs, vp, [0.3, 0.9], seed=11)
    np.testing.assert_array_equal(a.ratio, b.ratio)
    c = leakage_curve(den, evs, vp, [0.3, 0.9], seed=12)
    assert not np.array_equal(a.ratio, c.ratio)


def test_leaky_denoiser_suppresses_late_motion(world, vp):
    evs = td.sample_videos(world, 128, np.random.default_rng(4))
    leaky = LeakyDenoiser(world, vp, lam_max=0.8, p=4.0)
    curve = leakage_curve(leaky, evs, vp, [0.3, 0.95], seed=5)
    assert curve.ratio[1] < 0.5 * curve.ratio[0]


def test_conditional_moment_errors_behaviour(world):
    y0 = np.array([0.5, 0.0, -0.5, 1.0])
    vids = td.sample_videos(world, 100_000, np.random.default_rng(5), first=y0)
    mean_err, cov_err = conditional_moment_errors(vids, world, y0)
    assert mean_err < 0.02 and cov_err < 0.02
    shifted_mean_err, _ = conditional_moment_errors(vids + 0.5, world, y0)
    assert shifted_mean_err > 5 * mean_err


def test_motion_sweep_unconditioned(world, vp):
    den = ExactDenoiser(world, vp)
    cfg = td.SamplerConfig(1.0, 25)
    rows = motion_sweep(den, [0, 0], world, vp, cfg, n=200, seed=6)
    gt = td.expected_motion_score(world)
    assert len(rows) == 2
    for row in rows:
        assert row["input_ms"] == pytest.approx(gt)
        assert abs(row["error"]) < 0.2
        assert row["error"] == pytest.approx(
            (row["output_ms_mean"] - gt) / gt, rel=1e-12
        )
    # repeats use independent substreams, so they differ but only slightly
    assert rows[0]["output_ms_mean"] != rows[1]["output_ms_mean"]


def test_motion_sweep_conditioned_requires_feature(world, vp):
    den = ExactDenoiser(world, vp)
    with pytest.raises(ValueError):
        motion_sweep(den, [2.0], world, vp, td.SamplerConfig(1.0, 5), 8, 0,
                     conditioned=True)


def test_motion_sweep_conditioned_with_trained_model(world, vp):
    cfg = td.TrainConfig(
        mode="naive", steps=300, seed=0, motion_feature=True,
        s_w_choices=(0.25, 0.5, 1.0),
    )
    ckpt = td.train(world, vp, cfg)
    model, params, *_ = td.load_checkpoint(ckpt)
    den = td.TrainedDenoiser(model, params, vp)
    rows = motion_sweep(den, [1.0, 3.0], world, vp, td.SamplerConfig(1.0, 20),
                        n=64, seed=1, conditioned=True)
    assert [row["input_ms"] for row in rows] == [1.0, 3.0]
    for row in rows:
        assert np.isfinite(row["output_ms_mean"])


def test_init_ablation_table(world, vp):
    leaky = LeakyDenoiser(world, vp, lam_max=0.8, p=4.0)
    rows = init_ablation(
        world, vp, m_grid=[1.0, 0.9], init_modes=["standard", "analytic"],
        denoiser=leaky, n=64, seed=3,
    )
    assert len(rows) == 4
    assert {(r["M"], r["init"]) for r in rows} == {
        (1.0, "standard"), (1.0, "analytic"), (0.9, "standard"), (0.9, "analytic"),
    }
    # the KL column must equal a direct evaluation against the prior marginal
    from toydiffusion.analytic_init import (
        exact_moments, gaussian_kl, optimal_init, standard_init,
    )
    from toydiffusion.world import kron_cov, marginal_moments_at

    for row in rows:
        mu_q, cov_f = marginal_moments_at(world, vp, row["M"])
        sigma_q = kron_cov(cov_f, world.frame_dim)
        if row["init"] == "standard":
            init = standard_init(vp, row["M"], world.flat_dim)
        else:
            init = optimal_init(exact_moments(world), vp, row["M"])
        assert row["kl"] == pytest.approx(gaussian_kl(mu_q, sigma_q, init), rel=1e-12)
    by = {(r["M"], r["init"]): r for r in rows}
    for m in (1.0, 0.9):
        assert by[(m, "analytic")]["kl"] <= by[(m, "standard")]["kl"]
    with pytest.raises(ValueError):
        init_ablation(world, vp, [1.0], ["bogus"], leaky, 8, 0)


def test_init_ablation_deterministic(world, vp):
    leaky = LeakyDenoiser(world, vp, lam_max=0.5, p=2.0)
    a = init_ablation(world, vp, [1.0], ["standard"], leaky, 32, seed=9)
    b = init_ablation(world, vp, [1.0], ["standard"], leaky, 32, seed=9)
    assert a == b


def test_write_csv_floats_round_trip(tmp_path):
    path = tmp_path / "rows.csv"
    rows = [{"t": 0.1 + 0.2, "ratio": 1 / 3}, {"t": 1e-17, "ratio": -2.5}]
    write_csv(path, ["t", "ratio"], rows)
    with open(path, newline="") as fh:
        got = list(csv.DictReader(fh))
    for want, back in zip(rows, got):
        assert float(back["t"]) == want["t"]  # repr floats survive exactly
        assert float(back["ratio"]) == want["ratio"]
    assert path.read_bytes().endswith(b"\n")


def test_config_digest_canonicalization():
    a = {"x": 1, "y": [1, 2], "z": {"a": 0.5, "b": None}}
    b = {"z": {"b": None, "a": 0.5}, "y": [1, 2], "x": 1}
    assert config_digest(a) == config_digest(b)
    assert config_digest(a) != config_digest({**a, "x": 2})


def test_write_manifest_contents(tmp_path):
    path = tmp_path / "manifest.json"
    payload = {"seed": 3, "world": {"n_frames": 8}}
    write_manifest(path, "leakage", payload, seed=3)
    data = json.loads(path.read_text())
    assert data["experiment"] == "leakage"
    assert data["seed"] == 3
    assert data["config"] == payload
    assert data["config_digest"] == config_digest(payload)
    assert data["version"] == f"toydiffusion-{td.__version__}"
    # byte-deterministic: rewriting produces identical bytes
    first = path.read_bytes()
    write_manifest(path, "leakage", payload, seed=3)
    assert path.read_bytes() == first
