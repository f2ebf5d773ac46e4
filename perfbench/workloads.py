"""The three benchmark workloads, written against the public package API.

Each workload builds its inputs from the benchmark seed, runs one unit of
work per ``run(i)`` call, and checks that unit's outputs against a closed
form or a dense reference in ``check`` (and, where one unit is too few
samples for a statistical check, all of a process's units in ``finish``).
``work`` is the number of videos that pass through one denoiser evaluation
in a unit, counted from the workload's parameters; it is the numerator of
``denoise_videos_per_s``.  On train-remedy those are the training and
held-out videos, which go through the MLP denoiser once per step.

Sizes come in two presets: ``full`` is what the benchmark measures and
``toy`` is the smoke test's shape, small enough to run in a second.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import replace

import numpy as np
import toydiffusion as td

SIZES = {
    "full": {
        "train_steps": 250,
        "sample_chains": 10_000,
        "sample_steps": 200,
        "ckpt_steps": 1000,
        "eval_videos": 256,
        "t_grid": (0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95),
        "m_grid": (1.0, 0.96, 0.92, 0.88, 0.84, 0.8),
        "diag_chains": 100,
        "diag_steps": 50,
    },
    "toy": {
        "train_steps": 30,
        "sample_chains": 2000,
        "sample_steps": 200,
        "ckpt_steps": 30,
        "eval_videos": 16,
        "t_grid": (0.05, 0.95),
        "m_grid": (1.0, 0.9),
        "diag_chains": 10,
        "diag_steps": 5,
    },
}

# Criterion-4 tolerances of the test suite.
MEAN_TOL, COV_TOL, MOTION_TOL = 0.02, 0.05, 0.05
ORACLE_TOL = 1e-10
DENSE_TOL = 1e-9

# The warm-up runs each workload's code on its full-size arrays but with
# this many training or sampler steps, so it stays short.
WARM_UP_STEPS = 5

# The paper's leaky-denoiser settings, as the CLI defaults them.
LEAK_MAX, LEAK_P = 0.8, 4.0
TIMENOISE = td.TimeNoiseParams(beta_m=2.0, a=5.0)


class Workload:
    setup_layers = {}
    group = 1  # units per round; rates are taken over whole rounds
    probe_parts = ("small",)  # the machine-speed probe's parts; see worker.py
    steps_per_run = 0  # optimizer steps per td.train call
    train_steps = 0  # optimizer steps per unit

    def finish(self):
        """A check over all the units this process ran."""
        return True, {}


class TrainRemedy(Workload):
    """td.train over {naive, timenoise} x two seeds: the criterion-8 remedy
    fixture's shape with fewer steps.  Only the train layer does work.  A
    unit is one td.train call and a round of four units covers every run,
    so the machine-speed probe runs between the calls of a round."""

    def __init__(self, seed, size):
        self.world = td.GaussianWorld()
        self.schedule = td.NoiseSchedule.vp()
        steps = size["train_steps"]
        self.configs = [
            td.TrainConfig(
                mode=mode, steps=steps, batch_size=64, hidden=64, seed=run_seed,
                timenoise=TIMENOISE if mode == "timenoise" else None,
            )
            for mode in ("naive", "timenoise")
            for run_seed in (2 * seed, 2 * seed + 1)
        ]
        self.group = len(self.configs)
        # Each run also evaluates the held-out batch before and after training.
        self.work = (steps + 2) * self.configs[0].batch_size
        self.steps_per_run = self.train_steps = steps

    def run(self, i):
        cfg = self.configs[i % self.group]
        return td.train(self.world, self.schedule, cfg, return_history=True)[1]

    def warm_up(self):
        for cfg in self.configs:
            td.train(self.world, self.schedule, replace(cfg, steps=WARM_UP_STEPS))

    def check(self, history):
        loss = history["final_heldout"]
        ok = np.isfinite(loss) and loss < history["initial_heldout"]
        return bool(ok), {"heldout_loss": loss}


class SampleWide(Workload):
    """td.sample_batch with the exact conditional denoiser, 1e4 chains,
    K=200, M=1 and the standard init: the criterion-4 shape.  The exact
    denoiser's per-element cost dominates; the train layer is not used."""

    def __init__(self, seed, size):
        self.world = td.GaussianWorld()
        self.schedule = td.NoiseSchedule.vp()
        self.seed = seed
        # Criterion 4's condition; the seed sets the chains' noise.
        self.y0 = np.full(self.world.frame_dim, 2.0)
        self.denoiser = td.ExactDenoiser(self.world, self.schedule, conditional=True)
        self.config = td.SamplerConfig(start_time=1.0, steps=size["sample_steps"])
        self.chains = size["sample_chains"]
        self.work = self.chains * self.config.steps
        self.sums = None
        self.probe_parts = ("small", "large")

    def run(self, i, config=None):
        rng = np.random.default_rng([self.seed, 1, i])
        return td.sample_batch(
            self.denoiser, self.y0, config or self.config, self.schedule,
            self.chains, rng,
        )

    def warm_up(self):
        self.run(0, replace(self.config, steps=WARM_UP_STEPS))

    def check(self, out):
        """Finite outputs; the moments are pooled for finish()."""
        sums = (
            len(out), out.sum(axis=0), np.einsum("bik,bjk->ij", out, out),
            float(np.sum(td.motion_scores(out))),
        )
        self.sums = sums if self.sums is None else tuple(
            a + b for a, b in zip(self.sums, sums)
        )
        return bool(np.all(np.isfinite(out))), {}

    def finish(self):
        """Criterion 4 on every chain this process sampled.

        The standard init's start gap leaves a per-frame mean error of
        about 1.7% against the 2% tolerance, and one unit's Monte Carlo
        noise on it is about 0.2%, so one unit in twelve would fail by
        chance; over the six or more units of a run it practically never
        does, while a real error of a few tenths of a percent still shows.
        """
        world = self.world
        n, s1, s2, motion_sum = self.sums
        mean_flat, frame_cov = td.conditional_moments(world, self.y0)
        frame_means = mean_flat.reshape(world.n_frames, world.frame_dim)
        emp = s1 / n
        mean_err = float(np.max(
            np.linalg.norm(emp - frame_means, axis=1)
            / np.linalg.norm(frame_means, axis=1)
        ))
        cov_est = (s2 / n - emp @ emp.T) / world.frame_dim
        cov_err = float(
            np.max(np.abs(cov_est - frame_cov)) / np.max(np.abs(frame_cov))
        )
        gt = td.expected_motion_score(world)
        motion_err = abs(motion_sum / n - gt) / gt
        ok = mean_err < MEAN_TOL and cov_err < COV_TOL and motion_err < MOTION_TOL
        return ok, {"moment_err": max(mean_err, cov_err, motion_err), "chains": n}


class DiagnoseNarrow(Workload):
    """The paper's paired diagnostics at CLI-default sizes: leakage curves
    and motion sweeps for the exact, leaky and trained denoisers, and the
    init ablation with the leaky denoiser.  Many small calls, so per-call
    fixed cost dominates; the only workload with MLP inference."""

    def __init__(self, seed, size):
        self.world = world = td.GaussianWorld()
        self.schedule = schedule = td.NoiseSchedule.vp()
        self.seed = seed
        self.size = size
        self.eval_videos = td.sample_videos(
            world, size["eval_videos"], np.random.default_rng([seed, 2])
        )
        self.exact = td.ExactDenoiser(world, schedule, conditional=True)
        self.leaky = td.LeakyDenoiser(world, schedule, LEAK_MAX, LEAK_P)
        self.trained, self.setup_layers = self._short_checkpoint(seed, size)
        self.sweep_config = td.SamplerConfig(start_time=1.0, steps=size["diag_steps"])
        self.targets = (td.expected_motion_score(world),)
        n, k = size["diag_chains"], size["diag_steps"]
        n_t = len(size["t_grid"])
        self.work = (
            3 * size["eval_videos"] * n_t           # leakage, three denoisers
            + 3 * len(self.targets) * n * k         # motion sweeps
            + 2 * len(size["m_grid"]) * n * k       # init ablation
        )
        rng = np.random.default_rng([seed, 3])
        probe = self.eval_videos[:16]
        self.probe = [
            (t, td.perturb(schedule, probe, t, rng)[0], probe[:, 0, :])
            for t in (0.05, 0.5, 0.95, 1.0)
        ]

    def _short_checkpoint(self, seed, size):
        """Train a short timenoise checkpoint and round-trip it through a
        file in a temporary directory inside the benchmark's own folder."""
        cfg = td.TrainConfig(
            mode="timenoise", steps=size["ckpt_steps"], seed=seed, timenoise=TIMENOISE
        )
        ckpt = td.train(self.world, self.schedule, cfg)
        here = os.path.dirname(os.path.abspath(__file__))
        with tempfile.TemporaryDirectory(dir=here, prefix=".tmp-") as tmp:
            path = os.path.join(tmp, "ckpt.json")
            start = time.perf_counter()
            td.save_checkpoint(path, ckpt)
            model, params, *_ = td.load_checkpoint(path)
            io_s = time.perf_counter() - start
            n_bytes = os.path.getsize(path)
        layers = {"train.checkpoint_bytes": n_bytes, "train.checkpoint_io_ms": 1e3 * io_s}
        return td.TrainedDenoiser(model, params, self.schedule), layers

    def run(self, i):
        world, schedule, size = self.world, self.schedule, self.size
        pass_seed = 1000 * self.seed + i
        t_grid = size["t_grid"]
        denoisers = (self.exact, self.leaky, self.trained)
        oracle = td.leakage_curve(
            td.OracleEps(), self.eval_videos, schedule, t_grid, pass_seed
        )
        curves = [
            td.leakage_curve(d, self.eval_videos, schedule, t_grid, pass_seed)
            for d in denoisers
        ]
        sweeps = [
            td.motion_sweep(
                d, self.targets, world, schedule, self.sweep_config,
                size["diag_chains"], pass_seed,
            )
            for d in denoisers
        ]
        ablation = td.init_ablation(
            world, schedule, size["m_grid"], ("standard", "analytic"), self.leaky,
            size["diag_chains"], pass_seed, steps=size["diag_steps"],
        )
        return oracle, curves, sweeps, ablation

    def warm_up(self):
        self.run(0)

    def check(self, outputs):
        oracle, curves, sweeps, ablation = outputs
        oracle_err = float(np.max(np.abs(oracle.ratio - 1.0)))
        dense_err = max(
            float(np.max(np.abs(self.exact.predict_x0(xt, y, t) - _dense_x0(
                self.world, self.schedule, xt, y, t))))
            for t, xt, y in self.probe
        )
        values = [c.ratio for c in curves]
        values += [row["output_ms_mean"] for rows in sweeps for row in rows]
        values += [row[key] for row in ablation
                   for key in ("kl", "mean_output_ms", "mean_err", "cov_err")]
        finite = all(np.all(np.isfinite(v)) for v in values)
        ok = oracle_err <= ORACLE_TOL and dense_err <= DENSE_TOL and finite
        return ok, {"oracle_err": oracle_err, "dense_err": dense_err}


def _dense_x0(world, schedule, xt, y0, t):
    """Posterior mean E[x0 | xt, frame 1 = y0] from one dense solve on the
    full (N d) x (N d) covariance, batched over videos."""
    alpha, sigma = td.alpha_sigma(schedule, t)
    _, frame_cov = td.conditional_moments(world, y0[0])
    cov = td.kron_cov(frame_cov, world.frame_dim)
    steps = np.arange(world.n_frames)[:, None]
    mean = (y0[:, None, :] + steps * world.drift).reshape(len(y0), -1)
    resid = xt.reshape(len(xt), -1) - alpha * mean
    gain = np.linalg.solve(alpha**2 * cov + sigma**2 * np.eye(cov.shape[0]), resid.T)
    return (mean + alpha * (cov @ gain).T).reshape(xt.shape)


WORKLOADS = {
    "train-remedy": TrainRemedy,
    "sample-wide": SampleWide,
    "diagnose-narrow": DiagnoseNarrow,
}
