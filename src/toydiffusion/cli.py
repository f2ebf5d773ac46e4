"""Command-line entry point: every experiment as a subcommand.

One JSON config document describes the world, schedules, corruption
parameters, training, sampling, and diagnostics settings; subcommands
override the few fields that vary per run (mode, start time, step count).
Unknown config keys are rejected.  All outputs are CSV/JSON with a
manifest written beside each one, and every command is byte-deterministic
under a fixed seed.

Exit codes: 0 success, 2 config error, 3 numerical failure,
4 acceptance-check failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .analytic_init import (
    InitDistribution,
    estimate_moments,
    exact_moments,
    optimal_init,
    verify_optimality,
)
from .diagnostics import (
    init_ablation,
    leakage_curve,
    motion_scores,
    motion_sweep,
    write_csv,
    write_json,
    write_manifest,
    OracleEps,
)
from .sampler import ANALYTIC, STANDARD, SamplerConfig, SamplerDiverged, sample_batch
from .schedule import NoiseSchedule, VP
from .timenoise import TimeNoiseParams
from .train import (
    CDM_FIXED,
    CONSTANT_BETA,
    MODES,
    NAIVE,
    TIMENOISE,
    TrainConfig,
    TrainedDenoiser,
    TrainingDiverged,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .world import (
    ExactDenoiser,
    GaussianWorld,
    LeakyDenoiser,
    expected_motion_score,
    kron_cov,
    marginal_moments_at,
    sample_videos,
)


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


# ---------------------------------------------------------------------------
# Experiment configuration


@dataclass(frozen=True)
class DiagnosticsConfig:
    """Shared sizes and grids for the diagnostic experiments."""

    eval_videos: int = 256
    t_grid: tuple = (0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95)
    m_grid: tuple = (1.0, 0.96, 0.92, 0.88, 0.84, 0.8)
    n_chains: int = 2000
    targets: tuple = ()

    def __post_init__(self) -> None:
        if self.eval_videos < 1 or self.n_chains < 1:
            raise ConfigError("eval_videos and n_chains must be at least 1")
        if not self.t_grid or not self.m_grid:
            raise ConfigError("t_grid and m_grid must be nonempty")
        for t in self.t_grid:
            if not 0.0 < t <= 1.0:
                raise ConfigError("t_grid entries must lie in (0, 1]")
        for m in self.m_grid:
            if not 0.0 < m <= 1.0:
                raise ConfigError("m_grid entries must lie in (0, 1]")
        object.__setattr__(self, "t_grid", tuple(float(t) for t in self.t_grid))
        object.__setattr__(self, "m_grid", tuple(float(m) for m in self.m_grid))
        object.__setattr__(self, "targets", tuple(float(x) for x in self.targets))


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    world: GaussianWorld
    schedule: NoiseSchedule
    timenoise: TimeNoiseParams
    train: TrainConfig
    sampler: SamplerConfig
    diagnostics: DiagnosticsConfig
    seed: int = 0
    output_dir: str = "out"


def _strict(payload: dict, cls, where: str) -> dict:
    """Reject a section that is not an object or names a field cls lacks."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{where} section must be a JSON object")
    unknown = set(payload) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    return payload


def config_from_payload(payload: dict) -> ExperimentConfig:
    _strict(payload, ExperimentConfig, "config")
    try:
        world = GaussianWorld(
            **_strict(payload.get("world", {}), GaussianWorld, "world")
        )
        schedule = NoiseSchedule(
            **{"kind": VP, **_strict(payload.get("schedule", {}), NoiseSchedule,
                                     "schedule")}
        )
        timenoise = TimeNoiseParams(
            **{"beta_m": 2.0, "a": 5.0,
               **_strict(payload.get("timenoise", {}), TimeNoiseParams, "timenoise")}
        )
        train_section = _strict(payload.get("train", {}), TrainConfig, "train")
        if train_section.get("timenoise") is not None:
            _strict(train_section["timenoise"], TimeNoiseParams, "train.timenoise")
        train_cfg = TrainConfig.from_dict(
            {**TrainConfig().to_dict(), **train_section}
        )
        sampler_cfg = SamplerConfig.from_dict(
            {**SamplerConfig().to_dict(),
             **_strict(payload.get("sampler", {}), SamplerConfig, "sampler")}
        )
        diag = DiagnosticsConfig(
            **_strict(payload.get("diagnostics", {}), DiagnosticsConfig,
                      "diagnostics")
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return ExperimentConfig(
        world=world,
        schedule=schedule,
        timenoise=timenoise,
        train=train_cfg,
        sampler=sampler_cfg,
        diagnostics=diag,
        seed=int(payload.get("seed", 0)),
        output_dir=str(payload.get("output_dir", "out")),
    )


def load_config(path=None) -> ExperimentConfig:
    if path is None:
        return config_from_payload({})
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_payload(payload)


def config_payload(cfg: ExperimentConfig) -> dict:
    """Fully resolved, JSON-ready view of the config (round-trips exactly)."""
    return {
        "world": cfg.world.to_dict(),
        "schedule": asdict(cfg.schedule),
        "timenoise": asdict(cfg.timenoise),
        "train": cfg.train.to_dict(),
        "sampler": cfg.sampler.to_dict(),
        "diagnostics": asdict(cfg.diagnostics),
        "seed": cfg.seed,
        "output_dir": cfg.output_dir,
    }


def save_config(path, cfg: ExperimentConfig) -> None:
    write_json(path, config_payload(cfg))


# ---------------------------------------------------------------------------
# Shared command plumbing


def _out_path(args, default_name: str, cfg: ExperimentConfig) -> str:
    if args.out is not None:
        return args.out
    os.makedirs(cfg.output_dir, exist_ok=True)
    return os.path.join(cfg.output_dir, default_name)


def _clean_args(args) -> dict:
    skip = {"func"}
    out = {}
    for key, value in vars(args).items():
        if key in skip:
            continue
        if value is None or isinstance(value, (str, int, float, bool)):
            out[key] = value
    return out


def _manifest(out: str, experiment: str, cfg: ExperimentConfig, args) -> None:
    write_manifest(
        out + ".manifest.json",
        experiment,
        {"experiment_config": config_payload(cfg), "args": _clean_args(args)},
        cfg.seed,
    )


def _write_videos_csv(path, videos) -> None:
    videos = np.asarray(videos, dtype=np.float64)
    flat = videos.reshape(videos.shape[0], -1)
    header = ",".join(f"x{i}" for i in range(flat.shape[1]))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in flat:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _read_videos_csv(path, world: GaussianWorld):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != world.flat_dim:
        raise ConfigError(
            f"data has {data.shape[1]} columns, world needs {world.flat_dim}"
        )
    return data.reshape(-1, world.n_frames, world.frame_dim)


def _build_denoiser(spec: str, cfg: ExperimentConfig, lam_max: float, p: float):
    """Resolve a --denoiser flag: exact | leaky | oracle | ckpt:PATH."""
    if spec == "exact":
        return ExactDenoiser(cfg.world, cfg.schedule, conditional=True)
    if spec == "leaky":
        return LeakyDenoiser(cfg.world, cfg.schedule, lam_max, p)
    if spec == "oracle":
        return OracleEps()
    if spec.startswith("ckpt:"):
        model, params, ck_world, _, _ = load_checkpoint(spec[len("ckpt:"):])
        if (ck_world.n_frames, ck_world.frame_dim) != (
            cfg.world.n_frames, cfg.world.frame_dim,
        ):
            raise ConfigError("checkpoint world shape does not match the config")
        return TrainedDenoiser(model, params, cfg.schedule)
    raise ConfigError(f"unknown denoiser {spec!r}")


def _load_init(spec: str, m_start: float, cfg: ExperimentConfig):
    """Resolve an --init flag: standard | analytic | analytic:PATH."""
    if spec == "standard":
        return None
    if spec == "analytic":
        return optimal_init(exact_moments(cfg.world), cfg.schedule, m_start)
    if spec.startswith("analytic:"):
        with open(spec[len("analytic:"):]) as fh:
            payload = json.load(fh)
        if "init" in payload:
            payload = payload["init"]
        return InitDistribution.from_dict(payload)
    raise ConfigError(f"unknown init {spec!r}")


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_world_sample(args) -> int:
    cfg = load_config(args.config)
    rng = np.random.default_rng([cfg.seed, 0, 0])
    videos = sample_videos(cfg.world, args.n, rng)
    out = _out_path(args, "videos.csv", cfg)
    _write_videos_csv(out, videos)
    _manifest(out, "world-sample", cfg, args)
    return 0


def _cmd_estimate_init(args) -> int:
    cfg = load_config(args.config)
    videos = _read_videos_csv(args.data, cfg.world)
    moments = estimate_moments(videos)
    init = optimal_init(moments, cfg.schedule, args.M)
    out = _out_path(args, "init.json", cfg)
    write_json(
        out,
        {
            "moments": {
                "mean": moments.mean.tolist(),
                "avg_var": moments.avg_var,
                "n_samples": moments.n_samples,
            },
            "init": init.to_dict(),
        },
    )
    _manifest(out, "estimate-init", cfg, args)
    return 0


def _cmd_prop1_check(args) -> int:
    cfg = load_config(args.config)
    moments = exact_moments(cfg.world)
    reports = []
    for m_start in cfg.diagnostics.m_grid:
        mu_q, frame_cov = marginal_moments_at(cfg.world, cfg.schedule, m_start)
        sigma_q = kron_cov(frame_cov, cfg.world.frame_dim)
        init = optimal_init(moments, cfg.schedule, m_start)
        reports.append(verify_optimality(mu_q, sigma_q, init))
    passed = all(rep["passed"] for rep in reports)
    out = _out_path(args, "prop1_report.json", cfg)
    write_json(out, {"passed": passed, "reports": reports})
    _manifest(out, "prop1-check", cfg, args)
    if not passed:
        _emit_error("acceptance", "optimality grid check failed; see " + out)
        return 4
    return 0


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    mods = {"mode": args.mode}
    if args.mode in (TIMENOISE, CONSTANT_BETA):
        mods["timenoise"] = cfg.timenoise
    if args.mode == CDM_FIXED and cfg.train.cdm_beta is None:
        mods["cdm_beta"] = 0.1 * cfg.timenoise.beta_m
    if args.steps is not None:
        mods["steps"] = args.steps
    if args.seed is not None:
        mods["seed"] = args.seed
    try:
        train_cfg = replace(cfg.train, **mods)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    checkpoint = train(cfg.world, cfg.schedule, train_cfg)
    out = _out_path(args, f"ckpt_{args.mode}.json", cfg)
    save_checkpoint(out, checkpoint)
    _manifest(out, "train", cfg, args)
    return 0


def _cmd_sample(args) -> int:
    cfg = load_config(args.config)
    m_start = cfg.sampler.start_time if args.M is None else args.M
    steps = cfg.sampler.steps if args.steps is None else args.steps
    if args.denoiser == "oracle":
        raise ConfigError("the oracle stub cannot drive a sampler")
    denoiser = _build_denoiser(args.denoiser, cfg, args.lam_max, args.p)
    init = _load_init(args.init, m_start, cfg)
    try:
        run_cfg = SamplerConfig(
            start_time=m_start, steps=steps, init=init,
            inference_beta=cfg.sampler.inference_beta,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    y0 = cfg.world.m0 + cfg.world.s0 * np.random.default_rng(
        [cfg.seed, 0, 1]
    ).standard_normal((args.n, cfg.world.frame_dim))
    rng = np.random.default_rng([cfg.seed, 0, 2])
    videos = sample_batch(denoiser, y0, run_cfg, cfg.schedule, args.n, rng)
    out = _out_path(args, "samples.csv", cfg)
    _write_videos_csv(out, videos)
    ms = motion_scores(videos)
    write_json(
        out + ".summary.json",
        {
            "n": args.n,
            "mean_motion": float(np.mean(ms)),
            "motion_std": float(np.std(ms)),
            "config": run_cfg.to_dict(),
        },
    )
    _manifest(out, "sample", cfg, args)
    return 0


def _cmd_diagnose_leakage(args) -> int:
    cfg = load_config(args.config)
    denoiser = _build_denoiser(args.denoiser, cfg, args.lam_max, args.p)
    eval_videos = sample_videos(
        cfg.world, cfg.diagnostics.eval_videos,
        np.random.default_rng([cfg.seed, 0, 3]),
    )
    curve = leakage_curve(
        denoiser, eval_videos, cfg.schedule, cfg.diagnostics.t_grid, cfg.seed
    )
    out = _out_path(args, "leakage.csv", cfg)
    write_csv(out, ["t", "ratio"], curve.rows())
    _manifest(out, "diagnose-leakage", cfg, args)
    return 0


def _cmd_diagnose_motion_sweep(args) -> int:
    cfg = load_config(args.config)
    if args.denoiser == "oracle":
        raise ConfigError("the oracle stub cannot drive a sampler")
    denoiser = _build_denoiser(args.denoiser, cfg, args.lam_max, args.p)
    targets = cfg.diagnostics.targets or (expected_motion_score(cfg.world),)
    try:
        rows = motion_sweep(
            denoiser, targets, cfg.world, cfg.schedule, cfg.sampler,
            cfg.diagnostics.n_chains, cfg.seed, conditioned=args.conditioned,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = _out_path(args, "motion_sweep.csv", cfg)
    write_csv(out, ["input_ms", "output_ms_mean", "error"], rows)
    _manifest(out, "diagnose-motion-sweep", cfg, args)
    return 0


def _cmd_diagnose_init_ablation(args) -> int:
    cfg = load_config(args.config)
    if args.denoiser == "oracle":
        raise ConfigError("the oracle stub cannot drive a sampler")
    denoiser = _build_denoiser(args.denoiser, cfg, args.lam_max, args.p)
    rows = init_ablation(
        cfg.world, cfg.schedule, cfg.diagnostics.m_grid, (STANDARD, ANALYTIC),
        denoiser, cfg.diagnostics.n_chains, cfg.seed, steps=cfg.sampler.steps,
    )
    out = _out_path(args, "init_ablation.csv", cfg)
    write_csv(
        out, ["M", "init", "kl", "mean_output_ms", "mean_err", "cov_err"], rows
    )
    _manifest(out, "diagnose-init-ablation", cfg, args)
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point


def _add_denoiser_flags(parser, default="exact") -> None:
    parser.add_argument("--denoiser", default=default,
                        help="exact | leaky | oracle | ckpt:PATH")
    parser.add_argument("--lam-max", dest="lam_max", type=float, default=0.8,
                        help="leak ceiling for the leaky denoiser")
    parser.add_argument("--p", type=float, default=4.0,
                        help="leak exponent for the leaky denoiser")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toydiffusion",
        description="Gaussian toy-video diffusion laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ws = sub.add_parser("world-sample", help="sample clean videos to CSV")
    ws.add_argument("--config")
    ws.add_argument("--n", type=int, default=100)
    ws.add_argument("--out")
    ws.set_defaults(func=_cmd_world_sample)

    ei = sub.add_parser("estimate-init",
                        help="method-of-moments fit of the start distribution")
    ei.add_argument("--data", required=True)
    ei.add_argument("--config")
    ei.add_argument("--M", type=float, required=True)
    ei.add_argument("--out")
    ei.set_defaults(func=_cmd_estimate_init)

    pc = sub.add_parser("prop1-check",
                        help="verify the optimal-init claim on a KL grid")
    pc.add_argument("--config")
    pc.add_argument("--out")
    pc.set_defaults(func=_cmd_prop1_check)

    tr = sub.add_parser("train", help="train a denoiser checkpoint")
    tr.add_argument("--config")
    tr.add_argument("--mode", required=True, choices=list(MODES))
    tr.add_argument("--steps", type=int)
    tr.add_argument("--seed", type=int)
    tr.add_argument("--out")
    tr.set_defaults(func=_cmd_train)

    sa = sub.add_parser("sample", help="run reverse chains and save videos")
    sa.add_argument("--config")
    _add_denoiser_flags(sa)
    sa.add_argument("--init", default="standard",
                    help="standard | analytic | analytic:PATH")
    sa.add_argument("--M", type=float)
    sa.add_argument("--steps", type=int)
    sa.add_argument("--n", type=int, default=100)
    sa.add_argument("--out")
    sa.set_defaults(func=_cmd_sample)

    di = sub.add_parser("diagnose", help="run a diagnostic experiment")
    dsub = di.add_subparsers(dest="experiment", required=True)

    dl = dsub.add_parser("leakage", help="one-step prediction motion ratios")
    dl.add_argument("--config")
    _add_denoiser_flags(dl)
    dl.add_argument("--out")
    dl.set_defaults(func=_cmd_diagnose_leakage)

    dm = dsub.add_parser("motion-sweep", help="output motion vs expectation")
    dm.add_argument("--config")
    _add_denoiser_flags(dm)
    dm.add_argument("--conditioned", action="store_true")
    dm.add_argument("--out")
    dm.set_defaults(func=_cmd_diagnose_motion_sweep)

    da = dsub.add_parser("init-ablation",
                         help="start-time x init-mode comparison table")
    da.add_argument("--config")
    _add_denoiser_flags(da, default="leaky")
    da.add_argument("--out")
    da.set_defaults(func=_cmd_diagnose_init_ablation)

    return parser


def _emit_error(kind: str, exc) -> None:
    print(json.dumps({"error": {"type": kind, "message": str(exc)}}),
          file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, KeyError, TypeError) as exc:
        _emit_error("config", exc)
        return 2
    except (TrainingDiverged, SamplerDiverged, np.linalg.LinAlgError,
            FloatingPointError) as exc:
        _emit_error("numerical", exc)
        return 3
    except ValueError as exc:
        _emit_error("config", exc)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
