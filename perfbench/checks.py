"""Per-operation correctness checks against the generated ground truth.

check(op, exit_code) reads the outputs an operation left in op.out and
returns (reason, quality). reason is None when the operation succeeded; a
failed operation counts toward failed_frac and the run goes on.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from workloads import FLAG_P, POSE_FAIL_DEG, POSE_FAIL_MM, POSE_OK_DEG, POSE_OK_MM, Op


class BadOutput(Exception):
    """An output file is missing, malformed or inconsistent."""


def _read(path: Path) -> str:
    try:
        return path.read_text()
    except OSError as exc:
        raise BadOutput(f"{path.name}: {exc.strerror}") from None


def _json(text: str, name: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadOutput(f"{name}: {exc}") from None


def _jsonl(path: Path) -> list:
    return [_json(line, path.name) for line in _read(path).splitlines() if line.strip()]


def _floats(values, count: int, name: str) -> np.ndarray:
    try:
        arr = np.asarray(values, dtype=np.float64).reshape(count)
    except (TypeError, ValueError):
        raise BadOutput(f"{name}: expected {count} numbers") from None
    if not np.all(np.isfinite(arr)):
        raise BadOutput(f"{name}: non-finite values")
    return arr


def _rotvec(r: np.ndarray) -> np.ndarray:
    angle = math.acos(max(-1.0, min(1.0, (np.trace(r) - 1.0) / 2.0)))
    axis = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    norm = np.linalg.norm(axis)
    return axis * (angle / norm) if norm > 1e-12 else np.zeros(3)


def observable_error(estimate: np.ndarray, truth: np.ndarray, null_basis: np.ndarray):
    """(translation mm, rotation deg) of truth^-1 @ estimate, a twist in the
    source frame, after removing its components along the null basis rows."""
    err = np.linalg.inv(truth) @ estimate
    twist = np.concatenate([_rotvec(err[:3, :3]), err[:3, 3]])
    if null_basis.shape[0]:
        q, _ = np.linalg.qr(null_basis.T)
        twist = twist - q @ (q.T @ twist)
    return 1e3 * float(np.linalg.norm(twist[3:])), float(np.degrees(np.linalg.norm(twist[:3])))


def _check_register(op: Op, exit_code: int) -> dict:
    if exit_code != 0:
        raise BadOutput(f"exit code {exit_code}")
    pose = _floats(_read(op.out / "pose.txt").split(), 16, "pose.txt").reshape(4, 4)
    rot = pose[:3, :3]
    if not np.allclose(pose[3], [0, 0, 0, 1]) or not np.allclose(rot.T @ rot, np.eye(3), atol=1e-6):
        raise BadOutput("pose.txt: not a rigid transform")
    _floats(_read(op.out / "information.txt").split(), 36, "information.txt")
    summary = _json(_read(op.out / "summary.json"), "summary.json")
    records = _jsonl(op.out / "iterations.jsonl")
    if not isinstance(summary, dict) or summary.get("termination") not in ("converged", "max-iterations"):
        raise BadOutput("summary.json: bad termination")
    if summary.get("iterations") != len(records) or not records:
        raise BadOutput("summary.json: iteration count disagrees with iterations.jsonl")
    if summary.get("converged") is not (summary["termination"] == "converged"):
        raise BadOutput("summary.json: converged disagrees with termination")
    last = records[-1]
    probs = _floats(last.get("probabilities"), 6, "iterations.jsonl probabilities")
    try:
        used = int(last["used"])
        candidates = used + sum(int(last[k]) for k in
                                ("rejected_distance", "rejected_collinear", "rejected_outlier"))
    except (KeyError, TypeError, ValueError):
        raise BadOutput("iterations.jsonl: missing feature counts") from None
    if candidates != op.source_points:
        raise BadOutput(f"iterations.jsonl: {candidates} candidates for {op.source_points} points")

    err_mm, err_deg = observable_error(pose, op.truth, op.null_basis)
    if err_mm > POSE_FAIL_MM or err_deg > POSE_FAIL_DEG:
        raise BadOutput(f"pose off by {err_mm:.1f} mm, {err_deg:.3f} deg in the observable subspace")
    return {
        "pose_err_mm": err_mm,
        "pose_ok": err_mm <= POSE_OK_MM and err_deg <= POSE_OK_DEG,
        "null_match": int(np.sum(probs < FLAG_P)) == op.null_basis.shape[0],
        "iterations": len(records),
        "converged": summary["converged"],
        "features_used_frac": used / candidates,
    }


def _check_oracle(op: Op, exit_code: int) -> dict:
    if exit_code not in (0, 1):
        raise BadOutput(f"exit code {exit_code}")
    records = _jsonl(op.out / "oracle.jsonl")
    if len(records) != op.directions:
        raise BadOutput(f"oracle.jsonl: {len(records)} records for {op.directions} directions")
    passed = 0
    for rec in records:
        u = _floats(rec.get("direction"), 6, "oracle.jsonl direction")
        a_mean, mc_mean, a_var, mc_var = (
            _floats(rec.get(k), 1, f"oracle.jsonl {k}")[0]
            for k in ("analytic_mean", "mc_mean", "analytic_variance", "mc_variance")
        )
        if abs(np.linalg.norm(u) - 1.0) > 1e-9 or mc_var <= 0.0 or a_var <= 0.0:
            raise BadOutput("oracle.jsonl: bad direction or variance")
        # The flags must follow from the reported numbers at the command's
        # default tolerances (3 standard errors, 10% variance).
        mean_ok = bool(abs(a_mean - mc_mean) <= 3.0 * math.sqrt(mc_var / op.trials) + 1e-15)
        var_ok = bool(abs(a_var - mc_var) <= 0.1 * mc_var + 1e-15)
        if rec.get("mean_ok") is not mean_ok or rec.get("variance_ok") is not var_ok:
            raise BadOutput("oracle.jsonl: flags disagree with the reported statistics")
        passed += mean_ok and var_ok
    # Exit 1 is the oracle's tolerance miss, not a failed operation.
    if (exit_code == 0) != (passed == len(records)):
        raise BadOutput(f"exit code {exit_code} disagrees with {passed}/{len(records)} passed checks")
    return {"oracle_checks": len(records), "oracle_passed": passed}


def check(op: Op, exit_code: int) -> tuple[str | None, dict]:
    try:
        quality = (_check_register if op.kind == "register" else _check_oracle)(op, exit_code)
    except BadOutput as exc:
        return str(exc), {}
    return None, quality
