"""Smoke test: every demo script runs to completion as a subprocess."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_demos_run(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    runs = [[name] for name in (
        "01_world_and_schedules.py", "02_condition_corruption.py",
        "03_start_distribution_gap.py", "04_leakage_curves.py",
    )] + [["05_train_and_compare.py", "--steps", "200"]]
    for script, *flags in runs:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "demos" / script), *flags],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, f"{script} failed:\n{proc.stderr}"
