"""Smoke test of the benchmark itself: python3 -m pytest perfbench"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def test_smoke_emits_every_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    leftovers = [name for name in os.listdir(HERE) if name.startswith(".tmp-")]
    assert leftovers == []
