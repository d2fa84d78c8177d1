"""Keeps the benchmark from rotting: ``python3 -m pytest -q perfbench``."""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def test_quick_mode_runs_every_workload_with_checks():
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick"],
        cwd=os.path.dirname(HERE),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.strip().splitlines()
    assert len(lines) == 4  # one line per workload
    assert all("failed=0 correct=True" in line for line in lines), out.stdout
