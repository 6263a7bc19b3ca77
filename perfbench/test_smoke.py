"""Smoke test of the benchmark itself: python3 -m pytest perfbench/test_smoke.py

Runs each workload for one tiny operation in both modes, checks that every
metric BENCHMARK.json names is printed with its unit, and checks that a
wrong pose is counted as a failed operation.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import workloads
from checks import check

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REPORTED = ("setup_s", "op_s_p50", "ops_per_s", "step_ms_p50", "step_ms_p10", "peak_rss_mb",
            "failed_frac", "pose_err_mm_p50", "pose_ok_frac", "null_match_frac",
            "iterations_mean", "converged_frac", "features_used_frac", "oracle_pass_frac")


def _run(*args: str) -> list[dict]:
    out = subprocess.run([sys.executable, "perfbench/run.py", *args, "--tiny"], cwd=ROOT,
                         capture_output=True, text=True, timeout=170, check=True)
    return [json.loads(line) for line in out.stdout.splitlines()]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    lines = _run("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace))
    result = lines[-1]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert "nproc" in lines[0]["host"] and "blas_threads" in lines[0]["host"]
    if not trace:
        assert set(lines[-2]["report"]) == set(REPORTED)


def test_wrong_pose_is_a_failure(tmp_path):
    from degen_icp.cli import main

    op = workloads.build("room-20k", 5, tmp_path, tiny=True)[0]
    assert main(op.argv) == 0
    assert check(op, 0)[0] is None
    wrong = op.truth.copy()
    wrong[:3, 3] += [0.03, 0.0, 0.0]
    workloads.write_pose(op.out / "pose.txt", wrong)
    reason, quality = check(op, 0)
    assert reason is not None and "pose off" in reason and quality == {}
    assert check(op, 1)[0] == "exit code 1"


def test_observable_error_ignores_the_null_direction():
    from checks import observable_error

    truth = np.eye(4)
    moved = truth.copy()
    moved[:3, 3] = [0.2, 0.003, 0.0]
    null = np.array([[0, 0, 0, 1.0, 0, 0]])
    err_mm, err_deg = observable_error(moved, truth, null)
    assert err_mm == pytest.approx(3.0) and err_deg == 0.0
