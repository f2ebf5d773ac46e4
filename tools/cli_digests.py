"""Run a fixed set of CLI commands and print one sha256 line per file written.

    python3 tools/cli_digests.py > digests.txt

Every command of the set runs in a fresh temporary directory, once with a
VP config and once with a VE config, through ``python -m toydiffusion``
on the ``src/`` tree beside this script, with one OpenBLAS thread and
with PYTHONDONTWRITEBYTECODE=1, so no tree gains a ``__pycache__``.
The set covers every output kind the CLI writes: videos, an init file, the
optimality report, checkpoints of all four training modes and two trained
with the motion feature (with s_w_choices, and at the world's own s_w),
samples (exact, exact over several sampler blocks, leaky from an analytic
start, a checkpoint, the motion-feature checkpoint, an init file), leakage
curves (exact, leaky, oracle, checkpoint, motion-feature checkpoint),
motion sweeps (leaky, checkpoint) and the init ablation, each with its
manifest and, for samples, its summary.  One more constant-mode
checkpoint, at batch size 2 and a = 100, has steps whose corruption levels
all round to zero; a cdm checkpoint at level 0 takes the clean path, with
no condition draw and no corruption; and a naive checkpoint draws a random
condition frame per row and EDM log-normal times.  A cdm and a constant
checkpoint take their levels from the config's train.timenoise (interpolating,
beta_m = 1), where cdm keeps its own default level.  An empty config and
one whose schedule section leaves out its kind run on the dataclass
defaults.  A command runs with config.json unless it names its own --config.

Output lines are ``<sha256>  <schedule>/<file>``, sorted, so running the
script on two source trees and diffing the two outputs shows every file
whose bytes differ.  A command that exits non-zero stops the script with
its stderr and exit code 1.  The commands of OUTCOMES instead declare the
exit code they should give, and the exit code and stderr of each become
one more entry, ``<schedule>/<out file>.exit``; another code stops the
script, except in the other tree of ``--against``, where any code is
recorded, so a changed error contract shows as that entry's ``differs``
line.

    python3 tools/cli_digests.py --against OTHER_TREE

also runs the set on the ``src/`` of another checkout and, after the
digest lines of this tree, prints one line per file whose bytes differ
between the two: the largest absolute and relative difference over the
numbers in the file, or ``layout differs`` when the text around the
numbers (or the set of files) differs.  It exits 1 after printing every
``differs`` line, so its exit status is a byte-identity gate.  A command
of COMMANDS that the other tree rejects stops the script too, so
``--against`` spans only trees that accept the same config files; across a
config schema change, run the script on each tree alone and compare the
entries the two outputs share.
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

# The config files of a set, by name.  A dict is laid over the set's config
# from CONFIGS, each section's keys over that config's own; JSON text is the
# file as it stands, so its left-out sections and keys take their defaults.
CONFIG_FILES = {
    "config.json": {},
    # the motion-feature checkpoint's: its world and schedule are the set's,
    # so the other commands can load the checkpoint
    "config_mf.json": {"train": {"motion_feature": True, "s_w_choices": [0.25, 1.0]}},
    # a motion-feature checkpoint without s_w_choices: every row's motion
    # feature is the score at the world's own s_w
    "config_mf_world.json": {"train": {"motion_feature": True}},
    # the zero-level checkpoint's: with a = 100 a level beta_m t^a rounds to
    # zero below t = 0.69, so about half its two-item steps corrupt nothing
    "config_zero.json": {"train": {"batch_size": 2, "timenoise": {"a": 100.0}}},
    # levels read from train: constant follows them, and cdm keeps its
    # default level 0.2 whatever beta_m is
    "config_levels.json": {"train": {"timenoise": {"beta_m": 1.0, "a": 3.0,
                                                   "variant": "interpolation"}}},
    # the levels belong under train; a top-level section is an unknown key
    "config_timenoise_section.json": {"timenoise": {"a": 3.0}},
    # the clean cdm checkpoint's: at level 0 a cdm step draws no condition
    # noise, like a naive one
    "config_cdm0.json": {"train": {"cdm_beta": 0.0}},
    # the random-frame checkpoint's: a condition frame drawn per row, and
    # times from the EDM log-normal sampler
    "config_random.json": {"train": {"cond_frame": "random", "t_sampler": "edm"}},
    # a wide world: its variances reach 1e11, where the optimality grid must
    # still tell the optimum apart at every default start time
    "config_wide.json": {"world": {"s_w": 1e5},
                         "diagnostics": {"m_grid": [1.0, 0.96, 0.92, 0.88, 0.84, 0.8]}},
    # a world whose m0 has three entries where frame_dim is 4
    "config_short_m0.json": {"world": {"m0": [1.0, 2.0, 3.0]}},
    # a condition noise level whose samples' motion summary overflows
    "config_huge_beta.json": {"sampler": {"inference_beta": 1e308}},
    # every section left out, and a schedule section without its kind
    "config_empty.json": "{}",
    "config_no_kind.json": '{"schedule": {"beta_max": 15.0}}',
}

# Finite data rows for the default 8 x 4 world whose squares overflow.
OVERFLOW_DATA = "".join(f"{row}\n" for row in (
    "header", ",".join(["1e200"] * 32), ",".join(["-1e200"] * 32)))

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
    ["train", "--mode", "naive", "--config", "config_mf_world.json",
     "--out", "ckpt_mf_world.json"],
    ["sample", "--n", "100", "--denoiser", "ckpt:ckpt_mf.json",
     "--out", "sample_mf.csv"],
    ["diagnose", "leakage", "--denoiser", "ckpt:ckpt_mf.json",
     "--out", "leakage_mf.csv"],
    ["train", "--mode", "constant", "--config", "config_zero.json",
     "--out", "ckpt_zero.json"],
    ["train", "--mode", "cdm", "--config", "config_cdm0.json",
     "--out", "ckpt_cdm0.json"],
    ["train", "--mode", "naive", "--config", "config_random.json",
     "--out", "ckpt_random.json"],
    *(["train", "--mode", mode, "--config", "config_levels.json",
       "--out", f"ckpt_levels_{mode}.json"] for mode in ("cdm", "constant")),
    ["world-sample", "--n", "200", "--config", "config_empty.json",
     "--out", "videos_empty.csv"],
    ["prop1-check", "--config", "config_empty.json", "--out", "prop1_empty.json"],
    ["prop1-check", "--config", "config_no_kind.json", "--out", "prop1_no_kind.json"],
]
# (expected exit code, command): failures reported as one config or
# numerical error line each, and a check that a large world passes.
OUTCOMES = [
    (2, ["estimate-init", "--data", "overflow.csv", "--M", "0.9",
         "--out", "init_overflow.json"]),
    (0, ["prop1-check", "--config", "config_wide.json", "--out", "prop1_wide.json"]),
    (2, ["world-sample", "--n", "2", "--config", "config_short_m0.json",
         "--out", "videos_short_m0.csv"]),
    (2, ["train", "--mode", "naive", "--seed", "-1", "--out", "ckpt_negative_seed.json"]),
    # init.json, from estimate-init, was fitted at M = 0.9
    (2, ["sample", "--n", "2", "--M", "0.8", "--init", "analytic:init.json",
         "--out", "sample_mismatch.csv"]),
    (3, ["sample", "--n", "3", "--steps", "2", "--config", "config_huge_beta.json",
         "--out", "sample_huge_beta.csv"]),
    (2, ["world-sample", "--n", "2", "--config", "config_timenoise_section.json",
         "--out", "videos_timenoise_section.csv"]),
]
INPUT_FILES = (*CONFIG_FILES, "overflow.csv")


def run_set(name, payload, env, strict):
    """Run COMMANDS and OUTCOMES under one config in a new directory; return
    {"<name>/<file>": bytes} of every file left there except the inputs,
    and of the outcome entries, in file order.  strict stops the script on an
    outcome's unexpected exit code too."""
    with tempfile.TemporaryDirectory(prefix="cli-digests-") as tmp:
        for file, content in CONFIG_FILES.items():
            if isinstance(content, dict):
                content = json.dumps({**payload, **{
                    key: {**payload.get(key, {}), **section}
                    for key, section in content.items()}})
            with open(os.path.join(tmp, file), "w") as fh:
                fh.write(content)
        with open(os.path.join(tmp, "overflow.csv"), "w") as fh:
            fh.write(OVERFLOW_DATA)
        outcomes = {}
        for code, argv in [*((None, argv) for argv in COMMANDS), *OUTCOMES]:
            if "--config" not in argv:
                argv = [*argv, "--config", "config.json"]
            proc = subprocess.run(
                [sys.executable, "-m", "toydiffusion", *argv],
                cwd=tmp, env=env, capture_output=True, text=True,
            )
            if proc.returncode != (code or 0) and (strict or code is None):
                sys.stderr.write(f"{name}: {' '.join(argv)} exited {proc.returncode},"
                                 f" not {code or 0}\n{proc.stderr}")
                raise SystemExit(1)
            if code is not None:
                out = argv[argv.index("--out") + 1]
                outcomes[f"{name}/{out}.exit"] = (
                    f"exit {proc.returncode}\n{proc.stderr}".encode())
        written = {}
        for file in sorted(os.listdir(tmp)):
            if file in INPUT_FILES:
                continue
            with open(os.path.join(tmp, file), "rb") as fh:
                written[f"{name}/{file}"] = fh.read()
        return dict(sorted({**written, **outcomes}.items()))


def run_tree(tree, strict=True):
    """Every output of the set under each config, run on tree's src/."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    written = {}
    for name, payload in CONFIGS.items():
        written.update(run_set(name, payload, env, strict))
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
    theirs = run_tree(args.against, strict=False)
    differs = [key for key in [*ours, *(key for key in theirs if key not in ours)]
               if ours.get(key) != theirs.get(key)]
    for key in differs:
        print(f"differs  {key}: {value_difference(theirs.get(key), ours.get(key))}")
    if differs:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
