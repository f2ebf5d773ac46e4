"""Train small denoisers with and without condition corruption, compare.

Trains three MLP denoisers on the toy world -- naive conditioning, the
time-dependent corruption curriculum, and a fixed-level corruption
baseline -- then compares (a) held-out noise-prediction loss, (b) mean
motion of generated videos against the closed-form target, and (c)
one-step leakage ratios.  The default 20000 steps takes about half a
minute; pass --steps 4000 for a quick look.
"""

import argparse
import time

import numpy as np

import toydiffusion as td
from toydiffusion.diagnostics import leakage_curve, motion_scores
from toydiffusion.sampler import SamplerConfig, sample_batch
from toydiffusion.train import TrainedDenoiser, load_checkpoint
from toydiffusion.world import first_frames


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--steps", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    world = td.GaussianWorld()
    schedule = td.NoiseSchedule.vp()
    noise = td.TimeNoiseParams(beta_m=2.0, a=5.0)
    gt = td.expected_motion_score(world)

    runs = {
        "naive": dict(mode="naive"),
        "timenoise": dict(mode="timenoise", timenoise=noise),
        "cdm": dict(mode="cdm", cdm_beta=0.2),
    }

    denoisers = {}
    for name, kw in runs.items():
        cfg = td.TrainConfig(steps=args.steps, seed=args.seed, **kw)
        t0 = time.perf_counter()
        ckpt, history = td.train(world, schedule, cfg, return_history=True)
        model, params, *_ = load_checkpoint(ckpt)
        denoisers[name] = TrainedDenoiser(model, params, schedule)
        print(f"{name:9s} trained {args.steps} steps in "
              f"{time.perf_counter() - t0:5.1f} s, held-out loss "
              f"{history['initial_heldout']:.4f} -> "
              f"{history['final_heldout']:.4f}")

    eval_videos = td.sample_videos(world, 256, np.random.default_rng(10))
    t_grid = [0.3, 0.6, 0.9, 0.95]
    print(f"\nmean output motion (target {gt:.3f}) and leakage ratios")
    print("  model      out-motion   " + "".join(f"r({t})  " for t in t_grid))
    for name, den in denoisers.items():
        y0 = first_frames(world, 1000, np.random.default_rng([11, args.seed]))
        out = sample_batch(den, y0, SamplerConfig(1.0, 50), schedule, 1000,
                           np.random.default_rng([12, args.seed]))
        curve = leakage_curve(den, eval_videos, schedule, t_grid, seed=10)
        ratios = "".join(f"{r:7.2f} " for r in curve.ratio)
        print(f"  {name:9s}  {np.mean(motion_scores(out)):9.3f}   {ratios}")

    print("\nthe corrupted-condition run should land closest to the motion")
    print("target; late-time ratios of all trained models are dominated by")
    print("amplified fit error (1/alpha_t blow-up), so read them as relative")
    print("fit quality rather than literal condition-reliance there")


if __name__ == "__main__":
    main()
