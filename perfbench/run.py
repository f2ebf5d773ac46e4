"""toydiffusion benchmark: one workload per call, every metric by name.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Workloads (see workloads.py for why each was chosen):
  train-remedy     td.train, {naive, timenoise} x two seeds
  sample-wide      td.sample_batch, exact denoiser, 1e4 chains, K=200
  diagnose-narrow  leakage curves, motion sweeps and the init ablation

The load is a closed loop with one client.  The workload runs in REPEATS
fresh single-threaded worker processes, back to back.  Each sets up
(import, inputs, an untimed warm-up); setup_s is the median of the
set-ups.  The last one then runs units of work for S seconds, and
denoise_videos_per_s is the work of one round of units (one unit, or on
train-remedy the four training runs) over the median round time.

Both times are normalised for the speed of the shared machine.  A fixed
numpy probe that uses nothing from the package measures how slowly the
machine runs against a nominal time: after each set-up (median of three
probes) and between units.  A set-up's wall time is divided by the
slowness after it, a unit's by the mean slowness on either side of it.
The probe's work is matched to the workload's array sizes (worker.py).
On the two-vCPU VM the benchmark was written on, other tenants' load
moved wall-clock throughput by 20-30% (interquartile range over ten runs)
and the normalised figure by 2-7%.  The wall-clock figures are printed
as well.

--trace 0 reports the end-to-end metrics, measured untraced.  --trace 1
measures half the time untraced and half with spans around the package's
public callables, and reports the per-layer metrics plus the tracing
overhead.  Every unit's outputs are checked; a unit that raises or fails
its check is counted as failed.  Human-readable lines come first; the last
line of stdout is the JSON result.  --smoke runs every workload at toy
size in both modes and checks the metric names and units against
BENCHMARK.json.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train-remedy", "sample-wide", "diagnose-narrow")
REPEATS = 3
WORKER_TIMEOUT_S = 55

END_TO_END = {
    "setup_s": "s",
    "denoise_videos_per_s": "videos/s",
    "peak_rss_mb": "MiB",
}

# Per-call layers: median, tail percentile and call count.
CALL_LAYERS = (
    "train.make_training_batch_us",
    "train.batch_loss_and_gradient_us",
    "train.build_inputs_us",
    "world.sample_videos_us",
    "timenoise.sample_beta_us",
    "schedule.perturb_us",
    "world.ExactDenoiser.predict_x0_us",
    "world.LeakyDenoiser.predict_x0_self_us",
    "train.TrainedDenoiser.predict_x0_us",
    "train.TrainedDenoiser.predict_eps_us",
    "sampler.ddim_step_self_us",
    "sampler.draw_initial_us",
    "sampler.sample_batch_self_us",
    "analytic_init.gaussian_kl_us",
    "analytic_init.optimal_init_us",
)
# Per-run layers with few samples: median only.
RUN_LAYERS = {
    "train.step_us": "us",
    "train.update_us": "us",
    "diagnostics.leakage_curve_self_s": "s",
    "diagnostics.motion_sweep_self_s": "s",
    "diagnostics.init_ablation_self_s": "s",
}
VALUE_LAYERS = {
    "train.steps": "count",
    "train.heldout_loss": "mse",
    "train.diverged": "count",
    "sampler.diverged": "count",
    "sampler.moment_err": "ratio",
    "schedule.alpha_sigma.calls_per_step": "calls/step",
    "train.checkpoint_bytes": "B",
    "train.checkpoint_io_ms": "ms",
    "setup.import_s": "s",
    "trace.throughput_ratio": "ratio",
}


def _per_layer_units():
    units = {}
    for name in CALL_LAYERS:
        base = name[: -len("_us")]
        units[name] = "us"
        units[base + "_tail_us"] = "us"
        units[base + "_calls"] = "count"
    return {**units, **RUN_LAYERS, **VALUE_LAYERS}


PER_LAYER = _per_layer_units()


def tail(values):
    """Highest of p99.9/p99/p90/p50 with at least 10 samples beyond it
    (nearest rank); the maximum when there are fewer than 20 samples."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99.9, 99.0, 90.0, 50.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct, ordered[max(0, math.ceil(pct / 100.0 * n) - 1)]
    return 100.0, ordered[-1]


def run_worker(workload, seed, budget, trace, size):
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--budget", repr(budget),
        "--trace", str(trace), "--size", size,
    ]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    spawned_at = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(values, default=0.0):
    return statistics.median(values) if values else default


def throughput(m, per_unit="work", key="units", normalise=True):
    """Work per second of the median round of units whose units all passed.
    Normalised, each unit's wall time is divided by the mean slowness the
    probes on either side of it measured."""
    rounds = {}
    for i, u, before, after in m[key]:
        scale = 2.0 / (before + after) if normalise else 1.0
        rounds.setdefault(i // m["group"], []).append(u * scale)
    times = [sum(t) for t in rounds.values() if len(t) == m["group"]]
    return m["group"] * m[per_unit] / _median(times) if times else 0.0


def summarise(workload, workers, m, trace):
    """Turn the workers' output into (metrics, report lines); m is the
    worker that measured."""
    lines = [
        f"workload {workload}  set-ups {len(workers)}  "
        f"env {json.dumps(m['env'], sort_keys=True)}",
        f"failed_ratio {m['failed']}/{m['attempted']} = "
        f"{m['failed'] / m['attempted']:.4g} failed/attempted",
    ]
    lines += [f"error: {e}" for e in m["errors"]]
    unit_s = sorted(u for _, u, _, _ in m["units"])
    probe_s = [p for _, _, p, _ in m["units"]]
    if unit_s:
        lines.append(
            f"unit wall time min {unit_s[0]:.4g} median {_median(unit_s):.4g} "
            f"max {unit_s[-1]:.4g} s over {len(unit_s)} passing units; "
            f"median probe slowness {_median(probe_s):.4g} (1 is nominal speed)"
        )
    if not trace:
        values = {
            "setup_s": _median([w["setup_s"] for w in workers]),
            "denoise_videos_per_s": throughput(m),
            "peak_rss_mb": m["peak_rss_mb"],
        }
        lines.append(
            "wall clock, not normalised: setup_s "
            f"{_median([w['setup_wall_s'] for w in workers]):.6g} s, "
            f"denoise_videos_per_s {throughput(m, normalise=False):.6g} videos/s")
        if m["train_steps"]:
            lines.append(
                f"train_steps_per_s {throughput(m, 'train_steps'):.6g} steps/s "
                f"(wall clock {throughput(m, 'train_steps', normalise=False):.6g})")
        units = END_TO_END
    else:
        values = _layer_values(workers, m, lines)
        units = PER_LAYER
    lines += [f"{name} {values[name]:.6g} {unit}" for name, unit in units.items()]
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}, lines


def _layer_values(workers, m, lines):
    spans = m["spans"]
    values = {}
    for name in CALL_LAYERS:
        base = name[: -len("_us")]
        span, kind = (base[: -len("_self")], "self_us") if base.endswith("_self") \
            else (base, "total_us")
        calls = spans[span][kind]
        values[name] = _median(calls)
        pct, values[base + "_tail_us"] = tail(calls) if calls else (100.0, 0.0)
        values[base + "_calls"] = len(calls)
        if calls:
            lines.append(f"{base}_tail_us is p{pct:g} of {len(calls)} calls")
    # train's self time is the rest of each step: Adam and the loop, plus
    # the run's parameter init and checkpoint assembly spread over its steps.
    steps = m["steps_per_run"]
    train = spans["train.train"]
    values["train.step_us"] = _median([v / steps for v in train["total_us"]]) if steps else 0.0
    values["train.update_us"] = _median([v / steps for v in train["self_us"]]) if steps else 0.0
    for name in ("leakage_curve", "motion_sweep", "init_ablation"):
        own = spans["diagnostics." + name]["self_us"]
        values[f"diagnostics.{name}_self_s"] = _median(own) / 1e6
    extras, counts = m["extras"], m["counts"]
    ddim_steps = len(spans["sampler.ddim_step"]["total_us"])
    untraced = throughput(m, key="untraced_units")
    values.update({
        "train.steps": steps * len(train["total_us"]),
        "train.heldout_loss": _median(extras.get("heldout_loss", [])),
        "train.diverged": m["raised"].get("TrainingDiverged", 0),
        "sampler.diverged": m["raised"].get("SamplerDiverged", 0),
        "sampler.moment_err": max(extras.get("moment_err", [0.0])),
        "schedule.alpha_sigma.calls_per_step": (
            counts["schedule.alpha_sigma"] / ddim_steps if ddim_steps else 0.0
        ),
        "train.checkpoint_bytes": m["setup_layers"].get("train.checkpoint_bytes", 0),
        "train.checkpoint_io_ms": _median(
            [w["setup_layers"].get("train.checkpoint_io_ms", 0.0) for w in workers]),
        "setup.import_s": _median([w["import_s"] for w in workers]),
        "trace.throughput_ratio": throughput(m) / untraced if untraced else 0.0,
    })
    return values


def run(workload, seed, seconds, trace, size="full", repeats=REPEATS):
    """repeats - 1 workers that only set up, then one that also measures."""
    if not os.path.isfile(os.path.join(ROOT, "src", "toydiffusion", "__init__.py")):
        raise SystemExit(f"no toydiffusion package under {ROOT}/src")
    workers = [
        run_worker(workload, seed, 0, trace, size) for _ in range(repeats - 1)
    ]
    workers.append(run_worker(workload, seed, seconds, trace, size))
    m = workers[-1]
    metrics, lines = summarise(workload, workers, m, trace)
    result = {
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": metrics,
    }
    return result, lines, m


def smoke():
    """Every workload at toy size, both modes: metric names and units, and
    no unit raising.  Toy sizes are too small for the statistical checks
    to be meaningful, so failed checks are printed but not fatal."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if declared[0] != END_TO_END or declared[1] != PER_LAYER:
        problems.append("BENCHMARK.json metrics differ from run.py's tables")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py's")
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, lines, m = run(workload, 0, 0.01, trace, size="toy", repeats=1)
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            if emitted != declared[trace]:
                problems.append(f"{workload} trace {trace}: metrics differ")
            if m["raised"] or result["attempted"] < 1:
                problems.append(f"{workload} trace {trace}: {m['errors']}")
            print(f"smoke {workload} trace {trace}: {len(emitted)} metrics, "
                  f"{result['failed']}/{result['attempted']} units failed")
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


def main(argv=None):
    # Turn SIGTERM into an exception so subprocess.run kills and waits for
    # the running worker before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(
        description="toydiffusion benchmark",
        epilog="Run from the repository root; see the module docstring.",
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="toy-size check of every workload and metric name")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    result, lines, _ = run(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
