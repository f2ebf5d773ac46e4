"""Run a fixed set of CLI commands and print one sha256 line per file written.

    python3 tools/cli_digests.py > digests.txt

Every command of the set runs in a fresh temporary directory, once with a
VP config and once with a VE config, through ``python -m toydiffusion``
on the ``src/`` tree beside this script, with one OpenBLAS thread and
with PYTHONDONTWRITEBYTECODE=1, so no tree gains a ``__pycache__``.
The set covers every output kind the CLI writes: videos, an init file, the
optimality report, checkpoints of all four training modes and one trained
with the motion feature and s_w_choices, samples (exact, exact over
several sampler blocks, leaky from an analytic start, a checkpoint, the
motion-feature checkpoint, an init file), leakage curves (exact, leaky,
oracle, checkpoint, motion-feature checkpoint), motion sweeps (leaky,
checkpoint) and the init ablation, each with its manifest and, for
samples, its summary.  One more constant-mode
checkpoint, at batch size 2 and a = 100, has steps whose corruption levels
all round to zero.  A command runs with config.json unless it names its
own --config.

Output lines are ``<sha256>  <schedule>/<file>``, sorted, so running the
script on two source trees and diffing the two outputs shows every file
whose bytes differ.  A command that exits non-zero stops the script with
its stderr and exit code 1.

    python3 tools/cli_digests.py --against OTHER_TREE

also runs the set on the ``src/`` of another checkout and, after the
digest lines of this tree, prints one line per file whose bytes differ
between the two: the largest absolute and relative difference over the
numbers in the file, or ``layout differs`` when the text around the
numbers (or the set of files) differs.  It exits 1 after printing every
``differs`` line, so its exit status is a byte-identity gate.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# A decimal number standing alone, not part of a name or a version string.
NUMBER = re.compile(r"(?<![\w.])-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")

# Small sizes so the whole set runs in well under a minute.  The VE config
# also noises the sampler's condition, so that draw is covered too.
CONFIGS = {
    "vp": {
        "schedule": {"kind": "vp"},
        "train": {"steps": 300},
        "sampler": {"steps": 20},
        "diagnostics": {"eval_videos": 32, "n_chains": 200, "m_grid": [1.0, 0.9]},
        "seed": 3,
    },
    "ve": {
        "schedule": {"kind": "ve"},
        "train": {"steps": 300},
        "sampler": {"steps": 20, "inference_beta": 0.05},
        "diagnostics": {"eval_videos": 32, "n_chains": 200, "m_grid": [1.0, 0.9]},
        "seed": 4,
    },
}

# The motion-feature checkpoint's config: its world and schedule are the
# base config's, so the other commands can load the checkpoint.
MOTION_TRAIN = {"motion_feature": True, "s_w_choices": [0.25, 1.0]}

# The zero-level checkpoint's config: with a = 100 a level beta_m t^a rounds
# to zero below t = 0.69, so about half its two-item steps corrupt nothing.
ZERO_LEVEL_TRAIN, ZERO_LEVEL_TIMENOISE = {"batch_size": 2}, {"a": 100.0}

COMMANDS = [
    ["world-sample", "--n", "200", "--out", "videos.csv"],
    ["estimate-init", "--data", "videos.csv", "--M", "0.9", "--out", "init.json"],
    ["prop1-check", "--out", "prop1.json"],
    *(["train", "--mode", mode, "--out", f"ckpt_{mode}.json"]
      for mode in ("naive", "timenoise", "cdm", "constant")),
    ["sample", "--n", "100", "--out", "sample_exact.csv"],
    # more chains than one sampler block holds, ending in a partial block
    ["sample", "--n", "2500", "--out", "sample_blocks.csv"],
    ["sample", "--n", "100", "--denoiser", "leaky", "--M", "0.9", "--init", "analytic",
     "--out", "sample_leaky.csv"],
    ["sample", "--n", "100", "--denoiser", "ckpt:ckpt_timenoise.json",
     "--out", "sample_ckpt.csv"],
    ["sample", "--n", "100", "--M", "0.9", "--init", "analytic:init.json",
     "--out", "sample_initfile.csv"],
    *(["diagnose", "leakage", "--denoiser", spec, "--out", f"leakage_{name}.csv"]
      for name, spec in (("exact", "exact"), ("leaky", "leaky"), ("oracle", "oracle"),
                         ("ckpt", "ckpt:ckpt_timenoise.json"))),
    *(["diagnose", "motion-sweep", "--denoiser", spec, "--out", f"sweep_{name}.csv"]
      for name, spec in (("leaky", "leaky"), ("ckpt", "ckpt:ckpt_naive.json"))),
    ["diagnose", "init-ablation", "--out", "ablation.csv"],
    ["train", "--mode", "naive", "--config", "config_mf.json", "--out", "ckpt_mf.json"],
    ["sample", "--n", "100", "--denoiser", "ckpt:ckpt_mf.json",
     "--out", "sample_mf.csv"],
    ["diagnose", "leakage", "--denoiser", "ckpt:ckpt_mf.json",
     "--out", "leakage_mf.csv"],
    ["train", "--mode", "constant", "--config", "config_zero.json",
     "--out", "ckpt_zero.json"],
]
CONFIG_FILES = ("config.json", "config_mf.json", "config_zero.json")


def run_set(name, payload, env):
    """Run COMMANDS under one config in a new directory; return
    {"<name>/<file>": bytes} of every file left there except the configs
    themselves, in file order."""
    motion = dict(payload, train={**payload["train"], **MOTION_TRAIN})
    zero = dict(payload, train={**payload["train"], **ZERO_LEVEL_TRAIN},
                timenoise={**payload.get("timenoise", {}), **ZERO_LEVEL_TIMENOISE})
    with tempfile.TemporaryDirectory(prefix="cli-digests-") as tmp:
        for file, content in zip(CONFIG_FILES, (payload, motion, zero)):
            with open(os.path.join(tmp, file), "w") as fh:
                json.dump(content, fh)
        for argv in COMMANDS:
            if "--config" not in argv:
                argv = [*argv, "--config", "config.json"]
            proc = subprocess.run(
                [sys.executable, "-m", "toydiffusion", *argv],
                cwd=tmp, env=env, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                sys.stderr.write(
                    f"{name}: {' '.join(argv)} exited {proc.returncode}\n{proc.stderr}")
                raise SystemExit(1)
        written = {}
        for file in sorted(os.listdir(tmp)):
            if file in CONFIG_FILES:
                continue
            with open(os.path.join(tmp, file), "rb") as fh:
                written[f"{name}/{file}"] = fh.read()
        return written


def run_tree(tree):
    """Every output of the set under each config, run on tree's src/."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    written = {}
    for name, payload in CONFIGS.items():
        written.update(run_set(name, payload, env))
    return written


def value_difference(old, new):
    """The largest absolute and relative difference over the numbers of two
    versions of a file, or "layout differs" when the text around them (or
    their count) differs or the file is missing from one tree."""
    if old is None or new is None:
        return "layout differs"
    old, new = old.decode(), new.decode()
    if NUMBER.sub("#", old) != NUMBER.sub("#", new):
        return "layout differs"
    max_abs = max_rel = 0.0
    for a, b in zip(map(float, NUMBER.findall(old)), map(float, NUMBER.findall(new))):
        scale = max(abs(a), abs(b))
        max_abs = max(max_abs, abs(a - b))
        max_rel = max(max_rel, abs(a - b) / scale if scale else 0.0)
    return f"max abs {max_abs:.2g}, max rel {max_rel:.2g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="TREE",
                        help="another checkout to run the set on and compare with")
    args = parser.parse_args()
    ours = run_tree(ROOT)
    for key, data in ours.items():
        print(f"{hashlib.sha256(data).hexdigest()}  {key}")
    if args.against is None:
        return
    theirs = run_tree(args.against)
    differs = [key for key in [*ours, *(key for key in theirs if key not in ours)]
               if ours.get(key) != theirs.get(key)]
    for key in differs:
        print(f"differs  {key}: {value_difference(theirs.get(key), ours.get(key))}")
    if differs:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
