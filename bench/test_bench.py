"""The benchmark's own tests: ``python -m pytest bench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
import run  # noqa: E402

run._import_library()

COUNTS = (
    "scheme.ext_mults",
    "linalg.rref.cells",
    "codes.codewords",
    "network.edges",
    "adversary.guess.calls",
)


def test_smoke_every_workload_names_every_metric():
    assert run.smoke() == 0


@pytest.mark.parametrize("workload", ["relay", "access"])
def test_same_seed_repeats_counts_and_outputs(workload):
    (stamp_a, result_a), (stamp_b, result_b) = (
        run.run(workload, 7, 0.05, trace=True, small=True) for _ in range(2)
    )
    assert result_a["correct"] and result_b["correct"]
    assert stamp_a["repeat_ok"] and stamp_a["digest"] == stamp_b["digest"]
    for name in COUNTS:
        assert result_a["metrics"][name] == result_b["metrics"][name]


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "relay", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "no library sources" in proc.stderr


def test_result_line_is_the_contract_object():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "access", "--seed", "2", "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    *_, stamp_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    stamp = json.loads(stamp_line)["stamp"]
    for key in ("python", "nproc", "commit", "seed", "inputs", "samples", "fail_ratio"):
        assert key in stamp
