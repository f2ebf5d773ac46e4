"""Command-line entry point: every experiment as a subcommand.

One JSON config document describes the world, schedule, training (with
its corruption levels), sampling, and diagnostics settings; subcommands
override the few fields that vary per run (mode, start time, step count).
The config, a checkpoint's stored config and an init file are all read by
codec.from_payload, which rejects unknown keys and mistyped values and
names the key (and the file, for checkpoints and init files).  All outputs
are CSV/JSON with a manifest written beside each one, and every command is
byte-deterministic under a fixed seed on one machine, numpy/BLAS build and
thread count.

Exit codes: 0 success, 2 config or input error (a file that cannot be
read or written among them), 3 numerical failure, 4 acceptance-check
failure.  Any other exception is a bug: it propagates with its traceback
and the interpreter exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .analytic_init import (InitDistribution, estimate_moments, optimal_init,
                            verify_optimality)
from .codec import (ConfigError, check_integer, check_range, check_same, from_payload,
                    read_json, read_videos, to_payload, write_csv, write_json,
                    write_manifest, write_videos)
from .diagnostics import (
    init_ablation,
    leakage_curve,
    motion_scores,
    motion_sweep,
    OracleEps,
)
from .sampler import (ANALYTIC, STANDARD, SamplerConfig, SamplerDiverged, named_init,
                      sample_batch)
from .schedule import NoiseSchedule, check_start
from .train import (
    MODES,
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
    first_frames,
    marginal_moments_at,
    sample_videos,
)


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
        for name in ("eval_videos", "n_chains"):
            check_range(check_integer(getattr(self, name), name), name, 1)
        if not self.t_grid or not self.m_grid:
            raise ConfigError("t_grid and m_grid must be nonempty")
        for grid in ("t_grid", "m_grid"):
            object.__setattr__(self, grid, tuple(
                check_start(t, f"{grid} entries") for t in getattr(self, grid)))
        object.__setattr__(self, "targets", tuple(
            check_range(float(x), "targets entries", 0.0, low_open=True)
            for x in self.targets))


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    world: GaussianWorld = GaussianWorld()
    schedule: NoiseSchedule = NoiseSchedule()
    train: TrainConfig = TrainConfig()
    sampler: SamplerConfig = SamplerConfig()
    diagnostics: DiagnosticsConfig = DiagnosticsConfig()
    seed: int = 0
    output_dir: str = "out"

    def __post_init__(self) -> None:
        check_range(check_integer(self.seed, "seed"), "seed", 0)
        if not self.output_dir:
            raise ConfigError("output_dir must be a nonempty path")


def load_config(path=None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    return from_payload(ExperimentConfig, read_json(path, "config"))


def save_config(path, cfg: ExperimentConfig) -> None:
    write_json(path, to_payload(cfg))


# ---------------------------------------------------------------------------
# Shared command plumbing


def _build_denoiser(args, cfg: ExperimentConfig):
    """Resolve a --denoiser flag: exact | leaky | oracle | ckpt:PATH.  A
    checkpoint trained with the motion feature is conditioned on the
    world's expected motion score, the value its training fed without
    s_w_choices."""
    spec = args.denoiser
    if spec == "exact":
        return ExactDenoiser(cfg.world, cfg.schedule, conditional=True)
    if spec == "leaky":
        return LeakyDenoiser(cfg.world, cfg.schedule, args.lam_max, args.p)
    if spec == "oracle":
        return OracleEps()
    if spec.startswith("ckpt:"):
        model, params, *stored, _ = load_checkpoint(spec[len("ckpt:"):])
        for name, theirs, ours in zip(("world", "schedule"), stored,
                                      (cfg.world, cfg.schedule)):
            check_same(name, theirs, ours, whose="checkpoint", where="the config")
        motion = expected_motion_score(cfg.world) if model.motion_feature else None
        return TrainedDenoiser(model, params, cfg.schedule, motion_value=motion)
    raise ConfigError(f"unknown denoiser {spec!r}")


def _load_init(spec: str, m_start: float, cfg: ExperimentConfig):
    """Resolve an --init flag: standard (None, the sampler's default),
    analytic:PATH, or else a name of named_init."""
    if spec == STANDARD:
        return None
    if spec.startswith(ANALYTIC + ":"):
        path = spec[len(ANALYTIC) + 1:]
        payload = read_json(path, "init file")
        if isinstance(payload, dict):
            payload = payload.get("init", payload)
        return from_payload(InitDistribution, payload, f"init file {path}")
    return named_init(spec, cfg.world, cfg.schedule, m_start)


# ---------------------------------------------------------------------------
# Subcommands: each computes and writes its primary output to `out`; main
# loads the config, writes the manifest and chooses the exit code.


def _cmd_world_sample(cfg, args, out):
    check_range(args.n, "--n", 1)
    rng = np.random.default_rng([cfg.seed, 0, 0])
    write_videos(out, sample_videos(cfg.world, args.n, rng))


def _cmd_estimate_init(cfg, args, out):
    videos = read_videos(args.data, cfg.world.n_frames, cfg.world.frame_dim)
    try:
        moments = estimate_moments(videos)
    except ValueError as exc:
        raise ConfigError(f"data file {args.data}: {exc}") from None
    init = optimal_init(moments, cfg.schedule, args.M)
    write_json(out, {"moments": to_payload(moments), "init": to_payload(init)})


def _cmd_prop1_check(cfg, args, out):
    reports = [verify_optimality(marginal_moments_at(cfg.world, cfg.schedule, m),
                                 named_init(ANALYTIC, cfg.world, cfg.schedule, m))
               for m in cfg.diagnostics.m_grid]
    passed = all(rep["passed"] for rep in reports)
    write_json(out, {"passed": passed, "reports": reports})
    if not passed:
        _emit_error("acceptance", "optimality grid check failed; see " + out)
        return 4


def _cmd_train(cfg, args, out):
    run_cfg = replace(cfg.train, mode=args.mode,
                      steps=cfg.train.steps if args.steps is None else args.steps,
                      seed=cfg.train.seed if args.seed is None else args.seed)
    save_checkpoint(out, train(cfg.world, cfg.schedule, run_cfg))


def _cmd_sample(cfg, args, out):
    check_range(args.n, "--n", 1)
    m_start = cfg.sampler.start_time if args.M is None else args.M
    steps = cfg.sampler.steps if args.steps is None else args.steps
    denoiser = _build_denoiser(args, cfg)
    init = cfg.sampler.init
    if args.init is not None:
        init = _load_init(args.init, m_start, cfg)
    run_cfg = replace(cfg.sampler, start_time=m_start, steps=steps, init=init)
    y0 = first_frames(cfg.world, args.n, np.random.default_rng([cfg.seed, 0, 1]))
    rng = np.random.default_rng([cfg.seed, 0, 2])
    videos = sample_batch(denoiser, y0, run_cfg, cfg.schedule, args.n, rng)
    ms = motion_scores(videos)
    write_json(out + ".summary.json", {
        "n": args.n, "mean_motion": float(np.mean(ms)), "motion_std": float(np.std(ms)),
        "config": to_payload(run_cfg)})
    write_videos(out, videos)


def _cmd_diagnose_leakage(cfg, args, out):
    denoiser = _build_denoiser(args, cfg)
    eval_videos = sample_videos(
        cfg.world, cfg.diagnostics.eval_videos,
        np.random.default_rng([cfg.seed, 0, 3]),
    )
    curve = leakage_curve(
        denoiser, eval_videos, cfg.schedule, cfg.diagnostics.t_grid, cfg.seed
    )
    write_csv(out, curve.rows())


def _cmd_diagnose_motion_sweep(cfg, args, out):
    denoiser = _build_denoiser(args, cfg)
    targets = cfg.diagnostics.targets or (expected_motion_score(cfg.world),)
    rows = motion_sweep(
        denoiser, targets, cfg.world, cfg.schedule, cfg.sampler,
        cfg.diagnostics.n_chains, cfg.seed,
    )
    write_csv(out, rows)


def _cmd_diagnose_init_ablation(cfg, args, out):
    denoiser = _build_denoiser(args, cfg)
    rows = init_ablation(
        cfg.world, cfg.schedule, cfg.diagnostics.m_grid, (STANDARD, ANALYTIC),
        denoiser, cfg.diagnostics.n_chains, cfg.seed, steps=cfg.sampler.steps,
    )
    write_csv(out, rows)


# ---------------------------------------------------------------------------
# Parser and entry point


def _command(sub, name: str, func, default_out: str, help: str):
    """Add a subcommand with the --config and --out flags every command
    takes; without --out it writes default_out under the output_dir."""
    parser = sub.add_parser(name, help=help)
    parser.add_argument("--config", help="JSON config (defaults if omitted)")
    parser.add_argument("--out",
                        help=f"output file (default: <output_dir>/{default_out})")
    parser.set_defaults(func=func, default_out=default_out)
    return parser


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

    ws = _command(sub, "world-sample", _cmd_world_sample, "videos.csv",
                  "sample clean videos to CSV")
    ws.add_argument("--n", type=int, default=100)

    ei = _command(sub, "estimate-init", _cmd_estimate_init, "init.json",
                  "method-of-moments fit of the start distribution")
    ei.add_argument("--data", required=True)
    ei.add_argument("--M", type=float, required=True)

    _command(sub, "prop1-check", _cmd_prop1_check, "prop1_report.json",
             "verify the optimal-init claim on a KL grid")

    tr = _command(sub, "train", _cmd_train, "ckpt_{mode}.json",
                  "train a denoiser checkpoint")
    tr.add_argument("--mode", required=True, choices=list(MODES))
    tr.add_argument("--steps", type=int)
    tr.add_argument("--seed", type=int,
                    help="overrides train.seed, the seed train draws from "
                         "(every other command draws from the top-level seed)")

    sa = _command(sub, "sample", _cmd_sample, "samples.csv",
                  "run reverse chains and save videos")
    _add_denoiser_flags(sa)
    sa.add_argument("--init",
                    help="standard | analytic | analytic:PATH "
                         "(default: the config's sampler.init)")
    sa.add_argument("--M", type=float)
    sa.add_argument("--steps", type=int)
    sa.add_argument("--n", type=int, default=100)

    di = sub.add_parser("diagnose", help="run a diagnostic experiment")
    dsub = di.add_subparsers(dest="experiment", required=True)

    dl = _command(dsub, "leakage", _cmd_diagnose_leakage, "leakage.csv",
                  "one-step prediction motion ratios")
    _add_denoiser_flags(dl)

    dm = _command(dsub, "motion-sweep", _cmd_diagnose_motion_sweep,
                  "motion_sweep.csv", "output motion vs expectation")
    _add_denoiser_flags(dm)

    da = _command(dsub, "init-ablation", _cmd_diagnose_init_ablation,
                  "init_ablation.csv", "start-time x init-mode comparison table")
    _add_denoiser_flags(da, default="leaky")

    return parser


def _emit_error(kind: str, exc) -> None:
    print(json.dumps({"error": {"type": kind, "message": str(exc)}}),
          file=sys.stderr)


def main(argv=None) -> int:
    """Parse, load the config, resolve --out, run the command, write the
    manifest; map config and file failures to exit code 2, numerical to 3.
    Any other exception is a bug and propagates.  A failed run removes
    each directory it created for output_dir while that is still empty."""
    args = build_parser().parse_args(argv)
    experiment = args.command + (
        "-" + args.experiment if args.command == "diagnose" else "")
    # the manifest records exactly the parsed flags
    flags = {k: v for k, v in vars(args).items()
             if k not in ("func", "default_out")}
    made, code = [], 1  # code stays 1 when a bug propagates
    try:
        cfg = load_config(args.config)
        out = args.out
        if out is None:
            path = os.path.abspath(cfg.output_dir)
            while not os.path.lexists(path):  # what makedirs creates, deepest first
                made.append(path)
                path = os.path.dirname(path)
            if not os.path.isdir(path):
                raise ConfigError(
                    f"output_dir {cfg.output_dir}: {path} is not a directory")
            os.makedirs(cfg.output_dir, exist_ok=True)
            out = os.path.join(cfg.output_dir, args.default_out.format(**flags))
        with np.errstate(all="ignore"):  # a non-finite output's writer refuses it
            code = args.func(cfg, args, out) or 0
        write_manifest(out + ".manifest.json", experiment,
                       {"experiment_config": to_payload(cfg), "args": flags})
    except (TrainingDiverged, SamplerDiverged, np.linalg.LinAlgError,
            FloatingPointError, OverflowError) as exc:
        _emit_error("numerical", exc)
        code = 3
    except (ValueError, OSError) as exc:
        _emit_error("config", exc)
        code = 2
    finally:
        for path in made if code else ():  # deepest first
            if os.path.isdir(path) and not os.listdir(path):
                os.rmdir(path)
    return code


def entry() -> None:
    raise SystemExit(main())
