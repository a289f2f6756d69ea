"""The demo scripts under ``scripts/`` and the benchmark's smoke mode run to
completion on the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# The benchmark's tracer patches library functions by name, so a rename in
# src/ breaks it; its smoke mode runs every workload at minimum size.
COMMANDS = {
    "attack_sweep.py": ["scripts/attack_sweep.py"],
    "butterfly_demo.py": ["scripts/butterfly_demo.py"],
    "ec_access_table.py": ["scripts/ec_access_table.py"],
    "bench-smoke": ["bench/run.py", "--smoke"],
}


@pytest.mark.parametrize("script", list(COMMANDS))
def test_demo_script_runs(script, tmp_path):
    path, *args = COMMANDS[script]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / path), *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
