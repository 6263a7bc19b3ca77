import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import fail_after_first_call

from degen_icp import cli, cloud_io, registration
from degen_icp.cli import main


def _run(*argv):
    return main([str(a) for a in argv])


def _read_probs(path):
    return [r["probability"] for r in cloud_io.read_jsonl(path)]


def _features_line(stdout):
    (line,) = [line for line in stdout.splitlines() if line.startswith("features: used")]
    return line


def _assert_flags_null_basis(tmp_path, kind, points):
    """detect on a seed-51 scene flags, at p < 0.01, as many directions as
    the scene's null basis has, each one inside its span."""
    from degen_icp import SceneKind, SceneSpec, generate_scene

    assert _run("detect", "--kind", kind, "--points", points, "--seed", 51, "--out", tmp_path) == 0
    null = generate_scene(SceneSpec(SceneKind(kind), point_count=points, seed=51)).null_basis
    flagged = [r["direction"] for r in cloud_io.read_jsonl(tmp_path / "detect.jsonl") if r["probability"] < 0.01]
    assert len(flagged) == null.shape[0]
    assert all(np.linalg.norm(null @ u) > 0.9 for u in flagged)


# The cells of ROADMAP item 2's detection table (seed 51) that are wrong
# today, with what detect does there; ROADMAP item 1 is the fix for each.
_NO_FEATURES_AT_100K = "no k_neighbors=5 plane fit passes sigma_n_max at 100k points, so detect exits 1"
_WRONG_DETECTIONS = {
    ("cylinder-with-floor", 2000): "plane fits that straddle the floor-wall edge hide the rotation about the axis "
    "(0 of 1 flagged, p = 0.97)",
    ("corridor", 20000): "19 of 20,000 plane fits pass sigma_n_max, and 0 of 1 direction is flagged",
    ("infinite-plane", 100000): _NO_FEATURES_AT_100K,
    ("corridor", 100000): _NO_FEATURES_AT_100K,
    ("room", 100000): _NO_FEATURES_AT_100K,
}


def _detection_cell(kind, points):
    wrong = _WRONG_DETECTIONS.get((kind, points))
    marks = [pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"ROADMAP item 1: {wrong}")] if wrong else []
    return pytest.param(kind, points, id=f"{kind}-{points}", marks=marks)


class TestSimulate:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert _run("simulate", "--kind", "corridor", "--seed", 7, "--out", out) == 0
        for name in ("clean.ply", "noisy.ply", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_manifest_null_basis_for_plane(self, tmp_path):
        assert _run("simulate", "--kind", "infinite-plane", "--seed", 1, "--out", tmp_path) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert len(manifest["null_basis"]) == 3
        assert manifest["kind"] == "infinite-plane"
        assert [p["normal"] for p in manifest["true_planes"]] == [[0.0, 0.0, 1.0]]

    def test_ply_round_trip_matches_memory(self, tmp_path):
        from degen_icp import SceneKind, SceneSpec, generate_scene

        assert _run("simulate", "--kind", "room", "--seed", 3, "--points", 500, "--out", tmp_path) == 0
        points, normals = cloud_io.read_ply(tmp_path / "clean.ply")
        sample = generate_scene(SceneSpec(SceneKind.ROOM, point_count=500, seed=3))
        np.testing.assert_allclose(points, sample.points, atol=1e-6)
        np.testing.assert_allclose(normals, sample.normals, atol=1e-6)

    def test_csv_format(self, tmp_path):
        assert _run(
            "simulate", "--kind", "room", "--seed", 3, "--points", 300,
            "--format", "csv", "--out", tmp_path,
        ) == 0
        points, normals = cloud_io.read_csv(tmp_path / "clean.csv")
        assert points.shape == (300, 3) and normals.shape == (300, 3)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["files"]["clean"] == "clean.csv"

    def test_dimension_flags(self, tmp_path):
        assert _run(
            "simulate", "--kind", "cylinder", "--dim", "radius=2", "--dim", "height=4",
            "--points", 400, "--out", tmp_path,
        ) == 0
        points, _ = cloud_io.read_ply(tmp_path / "clean.ply")
        np.testing.assert_allclose(np.linalg.norm(points[:, :2], axis=1), 2.0, atol=1e-9)

    def test_bad_scene_creates_no_out(self, tmp_path):
        assert _run("simulate", "--dim", "radius=2", "--out", tmp_path / "o1") == 2
        assert not (tmp_path / "o1").exists()


class TestDetect:
    def test_room_all_confident(self, tmp_path):
        assert _run("detect", "--kind", "room", "--seed", 2, "--out", tmp_path) == 0
        probs = _read_probs(tmp_path / "detect.jsonl")
        assert len(probs) == 6
        assert all(p > 0.99 for p in probs)

    def test_corridor_exactly_one_degenerate(self, tmp_path):
        assert _run("detect", "--kind", "corridor", "--points", 1500, "--seed", 2, "--out", tmp_path) == 0
        probs = _read_probs(tmp_path / "detect.jsonl")
        assert sum(p < 0.01 for p in probs) == 1

    def test_zero_noise_room_probabilities_exactly_one(self, tmp_path):
        assert _run(
            "detect", "--kind", "room", "--seed", 2, "--sigma-p", 0, "--sigma-i", 0, "--out", tmp_path
        ) == 0
        assert _read_probs(tmp_path / "detect.jsonl") == [1.0] * 6

    def test_detect_from_cloud_file(self, tmp_path):
        assert _run("simulate", "--kind", "corridor", "--seed", 5, "--out", tmp_path) == 0
        assert _run("detect", "--cloud", tmp_path / "noisy.ply", "--out", tmp_path / "d") == 0
        probs = _read_probs(tmp_path / "d" / "detect.jsonl")
        assert sum(p < 0.01 for p in probs) == 1

    @pytest.mark.parametrize("kind", ["room", "corridor"])
    def test_scene_matches_simulated_cloud(self, tmp_path, capsys, kind):
        # Both commands add point noise from seed + 1, so a generated scene and
        # simulate's noisy.ply give the same report up to the PLY's decimals.
        scene = ("--kind", kind, "--seed", 5, "--points", 1500)
        assert _run("detect", *scene, "--out", tmp_path / "scene") == 0
        scene_used = _features_line(capsys.readouterr().out)
        assert _run("simulate", *scene, "--out", tmp_path / "sim") == 0
        capsys.readouterr()
        assert _run("detect", "--cloud", tmp_path / "sim" / "noisy.ply", "--out", tmp_path / "cloud") == 0
        assert _features_line(capsys.readouterr().out) == scene_used
        eigenvalues = [
            [r["eigenvalue"] for r in cloud_io.read_jsonl(tmp_path / d / "detect.jsonl")] for d in ("scene", "cloud")
        ]
        np.testing.assert_allclose(eigenvalues[1], eigenvalues[0], rtol=1e-6)

    @pytest.mark.parametrize(
        "kind, points",
        [
            _detection_cell(kind, points)
            for points in (2000, 20000, 100000)
            for kind in ("infinite-plane", "corridor", "cylinder", "cylinder-with-floor", "room")
        ],
    )
    def test_detection_table(self, tmp_path, kind, points):
        _assert_flags_null_basis(tmp_path, kind, points)


class TestRegister:
    def test_self_registration_identity(self, tmp_path):
        assert _run("simulate", "--kind", "room", "--seed", 4, "--out", tmp_path) == 0
        out = tmp_path / "reg"
        code = _run(
            "register", "--source", tmp_path / "clean.ply", "--target", tmp_path / "clean.ply",
            "--out", out,
        )
        assert code == 0
        pose = cloud_io.read_pose(out / "pose.txt")
        np.testing.assert_allclose(pose, np.eye(4), atol=1e-9)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is True

    def test_room_recovery_with_offset_init(self, tmp_path):
        from degen_icp import Pose, exp_so3

        assert _run("simulate", "--kind", "room", "--seed", 21, "--out", tmp_path) == 0
        init = tmp_path / "init.txt"
        offset = Pose(exp_so3([0.0, 0.0, np.deg2rad(2.0)]), [0.1, 0.1, 0.05])
        cloud_io.write_matrix(init, offset.matrix())
        out = tmp_path / "reg"
        code = _run(
            "register", "--source", tmp_path / "noisy.ply", "--target", tmp_path / "clean.ply",
            "--init", init, "--out", out,
        )
        assert code == 0
        pose = cloud_io.read_pose(out / "pose.txt")
        assert np.linalg.norm(pose[:3, 3]) < 0.005
        angle = np.degrees(np.arccos(np.clip((np.trace(pose[:3, :3]) - 1) / 2, -1, 1)))
        assert angle < 0.1
        info = np.loadtxt(out / "information.txt")
        assert info.shape == (6, 6)
        assert np.linalg.eigvalsh(info).min() >= -1e-6 * np.linalg.eigvalsh(info).max()

    def test_corridor_attenuation_ratio(self, tmp_path):
        # Paired runs with a longitudinal init error: the probabilistic
        # update must move along the corridor at least 10x less than the
        # standard one on the first iteration.
        assert _run("simulate", "--kind", "corridor", "--seed", 6, "--points", 1500, "--out", tmp_path) == 0
        init = tmp_path / "init.txt"
        m = np.eye(4)
        m[0, 3] = 0.2
        cloud_io.write_matrix(init, m)
        twists = {}
        for method in ("probabilistic", "standard"):
            out = tmp_path / method
            code = _run(
                "register", "--source", tmp_path / "noisy.ply", "--target", tmp_path / "clean.ply",
                "--init", init, "--method", method, "--max-iterations", 1, "--out", out,
            )
            assert code == 0
            twists[method] = cloud_io.read_jsonl(out / "iterations.jsonl")[0]["twist"]
        longitudinal = {k: abs(v[3]) for k, v in twists.items()}
        assert longitudinal["standard"] >= 10.0 * longitudinal["probabilistic"]

    def test_solution_remap_is_eigen_truncate(self, tmp_path):
        # Projecting the full solution onto the eigenvectors above lambda_min
        # is truncation for a linear step: the same rule, the same bytes.
        assert _run("simulate", "--kind", "corridor", "--seed", 7, "--points", 1500, "--out", tmp_path) == 0
        init = tmp_path / "init.txt"
        m = np.eye(4)
        m[0, 3] = 0.2
        cloud_io.write_matrix(init, m)
        outs = {}
        for method in ("eigen-truncate", "solution-remap"):
            outs[method] = tmp_path / method
            assert _run(
                "register", "--source", tmp_path / "noisy.ply", "--target", tmp_path / "clean.ply",
                "--init", init, "--method", method, "--lambda-min", 20, "--out", outs[method],
            ) == 0
        truncate, remap = outs["eigen-truncate"], outs["solution-remap"]
        assert 0.0 in cloud_io.read_jsonl(truncate / "iterations.jsonl")[0]["attenuation"]
        for name in ("pose.txt", "information.txt", "iterations.jsonl"):
            assert (truncate / name).read_bytes() == (remap / name).read_bytes(), name
        summary = json.loads((truncate / "summary.json").read_text())
        assert summary["method"] == "eigen-truncate"
        assert json.loads((remap / "summary.json").read_text()) == {**summary, "method": "solution-remap"}

    def test_no_correspondences_exit_code(self, tmp_path):
        rng = np.random.default_rng(0)
        src = rng.uniform(-1, 1, (30, 3))
        cloud_io.write_ply(tmp_path / "src.ply", src)
        cloud_io.write_ply(tmp_path / "tgt.ply", src + 50.0)
        code = _run(
            "register", "--source", tmp_path / "src.ply", "--target", tmp_path / "tgt.ply",
            "--out", tmp_path / "o",
        )
        assert code == 1

    def test_bad_init_creates_no_out(self, tmp_path):
        assert _register_with_init(tmp_path, "x " * 16, "--out", tmp_path / "o") == 1
        assert not (tmp_path / "o").exists()

    def test_later_no_correspondences_writes_outputs(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(registration, "extract_features", fail_after_first_call(registration.extract_features))
        assert _run("simulate", "--kind", "room", "--seed", 4, "--points", 600, "--out", tmp_path) == 0
        out = tmp_path / "reg"
        code = _run(
            "register", "--source", tmp_path / "noisy.ply", "--target", tmp_path / "clean.ply", "--out", out,
        )
        assert code == 1
        assert sorted(p.name for p in out.iterdir()) == [
            "information.txt", "iterations.jsonl", "pose.txt", "summary.json"
        ]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["termination"] == "no-correspondences"
        assert summary["converged"] is False and summary["iterations"] == 1
        assert len(cloud_io.read_jsonl(out / "iterations.jsonl")) == 1
        assert "register: no-correspondences after 1 iterations" in capsys.readouterr().out


def _register_with_init(tmp_path, init_text, *argv):
    """register a small cloud onto itself from an init pose file holding init_text."""
    cloud_io.write_ply(tmp_path / "c.ply", np.random.default_rng(0).uniform(-1, 1, (30, 3)))
    (tmp_path / "init.txt").write_text(init_text)
    return _run(
        "register", "--source", tmp_path / "c.ply", "--target", tmp_path / "c.ply",
        "--init", tmp_path / "init.txt", *argv,
    )


class TestOracle:
    def test_small_run_passes(self, tmp_path):
        code = _run(
            "oracle", "--kind", "room", "--points", 120, "--seed", 8,
            "--trials", 20000, "--directions", 3, "--out", tmp_path,
        )
        assert code == 0
        records = cloud_io.read_jsonl(tmp_path / "oracle.jsonl")
        assert len(records) == 3
        assert all(r["mean_ok"] and r["variance_ok"] for r in records)

    def test_zero_noise_passes(self, tmp_path):
        # Every draw is the noise-free vector, so the standard error is
        # rounding (about 1e-14) while the two means of a signal near 90
        # differ in their last bits; the mean check needs a relative floor.
        code = _run(
            "oracle", "--kind", "room", "--points", 100, "--sigma-p", 0, "--sigma-n", 0,
            "--trials", 2000, "--directions", 3, "--out", tmp_path,
        )
        records = cloud_io.read_jsonl(tmp_path / "oracle.jsonl")
        assert [(r["mean_ok"], r["variance_ok"]) for r in records] == [(True, True)] * 3
        assert code == 0


    def test_zero_noise_large_scene_passes(self, tmp_path):
        # A kilometre-scale cylinder: values near 1e8 whose chunk means
        # differ in their last bits gave variances of 1e-14 to 2e-11 above
        # the 1e-15 floor when chunk statistics were taken of the raw values.
        code = _run(
            "oracle", "--kind", "cylinder", "--points", 500, "--trials", 3000, "--sigma-n", 0,
            "--sigma-p", 0, "--directions", 4, "--dim", "radius=2000", "--dim", "height=4000",
            "--out", tmp_path,
        )
        records = cloud_io.read_jsonl(tmp_path / "oracle.jsonl")
        assert [r["mc_variance"] for r in records] == [0.0] * 4
        assert code == 0


class TestSweep:
    def test_snr_sweep_monotone(self, tmp_path):
        csv = tmp_path / "s.csv"
        code = _run(
            "sweep", "--parameter", "s", "--values", "1,5,10,20,50",
            "--kind", "infinite-plane", "--points", 800, "--seed", 9, "--out", csv,
        )
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "value,direction,eigenvalue,probability"
        assert len(lines) == 1 + 5 * 6
        by_dir = {}
        for line in lines[1:]:
            value, direction, _, prob = line.split(",")
            by_dir.setdefault(direction, []).append((float(value), float(prob)))
        for rows in by_dir.values():
            probs = [p for _, p in sorted(rows)]
            assert all(b <= a + 1e-12 for a, b in zip(probs, probs[1:]))

    def test_sigma_n_sweep_nonincreasing(self, tmp_path):
        csv = tmp_path / "n.csv"
        code = _run(
            "sweep", "--parameter", "sigma-n", "--values", "0.005,0.01,0.02,0.04",
            "--kind", "corridor", "--points", 600, "--seed", 10, "--sigma-p", 0, "--out", csv,
        )
        assert code == 0
        rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
        by_dir = {}
        for value, direction, _, prob in rows:
            by_dir.setdefault(direction, []).append((float(value), float(prob)))
        for pairs in by_dir.values():
            probs = [p for _, p in sorted(pairs)]
            assert all(b <= a + 1e-12 for a, b in zip(probs, probs[1:]))

    def test_each_parameter_at_its_default_is_one_analysis(self, tmp_path):
        # Every sweep builds its noise model from the same settings, so a
        # sweep of any parameter at that parameter's default repeats one
        # analysis: the direction, eigenvalue and probability columns match.
        columns = []
        for parameter, value in (("s", "10"), ("sigma-p", "0.01"), ("sigma-n", "0.01")):
            csv = tmp_path / f"{parameter}.csv"
            argv = ("sweep", "--kind", "corridor", "--points", 500, "--seed", 4, "--parameter", parameter,
                    "--values", value, "--out", csv)
            assert _run(*argv) == 0
            columns.append([line.partition(",")[2] for line in csv.read_text().splitlines()[1:]])
        assert len(columns[0]) == 6
        assert columns[0] == columns[1] == columns[2]

    def test_stdout_names_the_csv(self, tmp_path, capsys):
        csv = tmp_path / "s.csv"
        assert _run("sweep", "--parameter", "s", "--values", "1,5,10", "--points", 300, "--out", csv) == 0
        assert capsys.readouterr().out == f"sweep: wrote {csv}\n"

    def test_empty_range(self, tmp_path):
        csv = tmp_path / "e.csv"
        assert _run("sweep", "--parameter", "s", "--values", "", "--out", csv) == 0
        assert csv.read_text() == "value,direction,eigenvalue,probability\n"

    def test_bad_scene_creates_no_out(self, tmp_path):
        argv = ("sweep", "--parameter", "s", "--values", "1,2", "--dim", "radius=2", "--out", tmp_path / "o2")
        assert _run(*argv) == 2
        assert not (tmp_path / "o2").exists()


class TestConfigAndErrors:
    def test_config_file_applies_and_flags_override(self, tmp_path):
        cfg = {
            "version": 1,
            "seed": 11,
            "scene": {"kind": "corridor", "point_count": 700},
            "sensor": {"sigma_p": 0.005},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert _run("simulate", "--config", path, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["kind"] == "corridor"
        assert manifest["point_count"] == 700
        assert manifest["noise"]["sigma_p"] == 0.005
        out2 = tmp_path / "o2"
        assert _run("simulate", "--config", path, "--kind", "room", "--out", out2) == 0
        assert json.loads((out2 / "manifest.json").read_text())["kind"] == "room"

    def test_bad_config_version(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        # true and 1.0 compare equal to 1 in Python; only the integer 1 is version 1.
        for version in (99, True, 1.0):
            path.write_text(json.dumps({"version": version}))
            assert _run("simulate", "--config", path) == 2
            assert f"unsupported version {version!r} (expected 1)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "cannot read config"),
            ("{bad", "is not valid JSON"),
            ("[1]", "top level must be an object"),
            ('{"version": 1, "sensor": 3}', "'sensor' must be an object"),
            ('{"version": 1, "method": {"name": "ridge"}}', "method.name must be one of"),
        ],
        ids=["missing", "invalid-json", "top-level-list", "group-not-object", "unknown-method"],
    )
    def test_bad_config_file_exit_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        identity = "1 0 0 0 0 1 0 0 0 0 1 0 0 0 0 1"
        assert _register_with_init(tmp_path, identity, "--config", path, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert f"config {path}" in err and message in err
        assert not (tmp_path / "o").exists()

    def test_unknown_config_key(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 1, "sensor": {"sigma_q": 1.0}}))
        assert _run("simulate", "--config", path) == 2
        # No step tolerance key: icp stops at one fixed tolerance.
        path.write_text(json.dumps({"version": 1, "icp": {"translation_tol": 1e-4}}))
        assert _run("simulate", "--config", path, "--out", tmp_path / "o") == 2
        assert "unknown keys ['icp.translation_tol']" in capsys.readouterr().err
        # No residual scale key: the information matrix's scale is a constant.
        path.write_text(json.dumps({"version": 1, "sensor": {"sigma_p": 0.01, "sigma_r": 0.015}}))
        out = tmp_path / "o"
        assert _run("register", "--config", path, "--source", "c.ply", "--target", "c.ply", "--out", out) == 2
        assert "unknown keys ['sensor.sigma_r']" in capsys.readouterr().err

    def test_invalid_flag_value(self, tmp_path):
        assert _run("detect", "--kind", "room", "--sigma-p", -0.5) == 2

    def test_missing_cloud_file(self, tmp_path):
        assert _run("detect", "--cloud", tmp_path / "nope.ply") == 1

    def test_truncated_ply(self, tmp_path, capsys):
        assert _run("simulate", "--kind", "room", "--seed", 1, "--points", 300, "--out", tmp_path) == 0
        cut = tmp_path / "cut.ply"
        cut.write_text("\n".join((tmp_path / "noisy.ply").read_text().splitlines()[:20]) + "\n")
        assert _run("detect", "--cloud", cut) == 1
        err = capsys.readouterr().err
        assert "cut.ply" in err and "truncated" in err

    @pytest.mark.parametrize("fmt", ["ply", "csv"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_cloud(self, tmp_path, capsys, fmt, bad):
        points = np.random.default_rng(1).uniform(-1, 1, (300, 3))
        points[7, 1] = bad
        path = tmp_path / f"bad.{fmt}"
        (cloud_io.write_ply if fmt == "ply" else cloud_io.write_csv)(path, points)
        assert _run("detect", "--cloud", path) == 1
        err = capsys.readouterr().err
        assert f"bad.{fmt}" in err and "non-finite" in err


    @pytest.mark.parametrize("line", ["element vertex abc", "element vertex"])
    def test_bad_vertex_count_names_file(self, tmp_path, capsys, line):
        path = tmp_path / "count.ply"
        path.write_text(f"ply\nformat ascii 1.0\n{line}\nproperty double x\nend_header\n")
        assert _run("detect", "--cloud", path) == 1
        err = capsys.readouterr().err
        assert "count.ply" in err and line in err

    def test_bad_pose_names_file(self, tmp_path, capsys):
        assert _register_with_init(tmp_path, "x " * 16) == 1
        err = capsys.readouterr().err
        assert "init.txt" in err and "'x'" in err

    @pytest.mark.parametrize(
        "matrix",
        [
            "1 0 0 0  0 1 0 0  0 0 1 0  5 5 5 5",
            "2 0 0 0  0 2 0 0  0 0 2 0  0 0 0 1",
        ],
        ids=["bottom_row", "scaled_rotation"],
    )
    def test_non_rigid_init_names_file(self, tmp_path, capsys, matrix):
        assert _register_with_init(tmp_path, matrix, "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert "init.txt" in err and "not a rigid pose" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "matrix",
        [
            "nan 0 0 0  0 1 0 0  0 0 1 0  0 0 0 1",
            "1 0 0 nan  0 1 0 0  0 0 1 0  0 0 0 1",
            "1 0 0 0  0 1 0 inf  0 0 1 0  0 0 0 1",
        ],
        ids=["nan_rotation", "nan_translation", "inf_translation"],
    )
    def test_non_finite_init_names_file(self, tmp_path, capsys, matrix):
        assert _register_with_init(tmp_path, matrix, "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert "init.txt" in err and "non-finite" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["register", "detect"])
    def test_empty_cloud_names_file(self, tmp_path, capsys, command):
        empty = tmp_path / "empty.ply"
        cloud_io.write_ply(empty, np.zeros((0, 3)))
        cloud_io.write_ply(tmp_path / "c.ply", np.random.default_rng(0).uniform(-1, 1, (30, 3)))
        if command == "register":
            argv = ("register", "--source", tmp_path / "c.ply", "--target", empty, "--out", tmp_path / "o")
        else:
            argv = ("detect", "--cloud", empty, "--out", tmp_path / "o")
        assert _run(*argv) == 1
        err = capsys.readouterr().err
        assert "empty.ply" in err and "no points" in err
        assert not (tmp_path / "o").exists()

    def test_target_too_small_exits_1(self, tmp_path, capsys):
        cloud_io.write_ply(tmp_path / "c.ply", np.random.default_rng(0).uniform(-1, 1, (30, 3)))
        cloud_io.write_ply(tmp_path / "two.ply", np.random.default_rng(1).uniform(-1, 1, (2, 3)))
        argv = ("register", "--source", tmp_path / "c.ply", "--target", tmp_path / "two.ply", "--out", tmp_path / "o")
        assert _run(*argv) == 1
        assert "no correspondences: target cloud too small for plane fitting" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_range_error_names_file_and_key(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"version": 1, "icp": {"max_correspondence_distance": -1}}))
        assert _register_with_init(tmp_path, "1 0 0 0 0 1 0 0 0 0 1 0 0 0 0 1", "--config", path) == 2
        err = capsys.readouterr().err
        assert f"config {path}: icp.max_correspondence_distance must be positive, got -1.0" in err

    def test_config_kappa_max_below_one_exits_2(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"version": 1, "method": {"name": "cond-number", "kappa_max": 0.5}}))
        identity = "1 0 0 0 0 1 0 0 0 0 1 0 0 0 0 1"
        assert _register_with_init(tmp_path, identity, "--config", path, "--out", tmp_path / "o") == 2
        assert f"config {path}: method.kappa_max must be >= 1, got 0.5" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_largest_kappa_max_runs(self, tmp_path):
        # The gate's product overflowed with a numpy warning, an error in this suite.
        identity = "1 0 0 0 0 1 0 0 0 0 1 0 0 0 0 1"
        argv = ("--method", "cond-number", "--kappa-max", "1e308", "--out", tmp_path / "o")
        assert _register_with_init(tmp_path, identity, *argv) == 0
        assert np.array_equal(cloud_io.read_pose(tmp_path / "o" / "pose.txt"), np.eye(4))

    @pytest.mark.parametrize(
        "body, key",
        [
            ({"sensor": {"sigma_p": "abc"}}, "sensor.sigma_p"),
            ({"sensor": {"sigma_p": True}}, "sensor.sigma_p"),
            ({"seed": "x"}, "seed"),
            ({"scene": {"dimensions": [1, 2]}}, "scene.dimensions"),
            ({"icp": {"k_neighbors": 5.5}}, "icp.k_neighbors"),
            ({"scene": {"point_count": 300.7}}, "scene.point_count"),
        ],
    )
    def test_config_value_types(self, tmp_path, capsys, body, key):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps({"version": 1, **body}))
        assert _run("detect", "--config", path, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "typed.json" in err and key in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_dim_flag_overrides_only_its_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"version": 1, "scene": {"dimensions": {"width": 5.0, "depth": 4.0}}}))
        assert _run("simulate", "--config", path, "--dim", "width=6", "--points", 300, "--out", tmp_path) == 0
        dims = json.loads((tmp_path / "manifest.json").read_text())["dimensions"]
        assert dims == {"width": 6.0, "depth": 4.0, "height": 2.5}

    @pytest.mark.parametrize(
        "argv",
        [
            ("detect", "--sigma-n", "0.1"),
            ("simulate", "--method", "standard"),
            ("simulate", "--poin", "300"),
            ("simulate", "--dim", "width"),
            # Not flags: detect's self-registration never reaches the gate, and the
            # oracle's tolerances are criterion 1's.
            ("detect", "--max-correspondence-distance", "1"),
            ("oracle", "--var-rtol", "0.1"),
            ("oracle", "--mean-sigmas", "3"),
            ("sweep", "--parameter", "s", "--values", "1,x"),
            # Not a flag: the information matrix's residual scale is a constant.
            ("register", "--source", "c.ply", "--target", "c.ply", "--sigma-r", "0.02"),
        ],
    )
    def test_parser_rejects(self, argv):
        with pytest.raises(SystemExit) as exc:
            _run(*argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("sweep", "--parameter", "s", "--values=-1,2"), "s must be positive"),
            (("sweep", "--parameter", "s", "--values", "nan,2"), "s must be finite"),
            (("sweep", "--parameter", "sigma-n", "--values=-0.1"), "sigma_n must be nonnegative"),
            (("sweep", "--parameter", "s", "--values", "1", "--sigma-p", "inf"), "sigma_p must be finite"),
            (("oracle", "--directions", "0"), "directions must be >= 1"),
            (("oracle", "--trials", "1"), "trials must be >= 2"),
            (("simulate", "--dim", "width=-1"), "dimensions must be positive"),
            (("simulate", "--dim", "radius=1"), "unknown dimensions for room:"),
            # A cap below 1 gated every direction: the run "converged" at its init pose with exit 0.
            (("register", "--source", "c.ply", "--target", "c.ply", "--kappa-max", "0.5"),
             "kappa_max must be >= 1, got 0.5"),
        ],
    )
    def test_bad_settings_exit_2(self, tmp_path, capsys, argv, message):
        assert _run(*argv, "--out", tmp_path / "o.csv") == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, setting",
        [
            (("detect", "--points", "300", "--sigma-i", "1e200"), "sigma_i"),
            (("detect", "--points", "300", "--sigma-n-max", "1e-200"), "sigma_n_max"),
            (("detect", "--points", "300", "--sigma-p", "1e200"), "sigma_p"),
            (("register", "--sigma-p", "1e200"), "sigma_p"),
            (("register", "--sigma-i", "1e200"), "sigma_i"),
            (("register", "--sigma-n-max", "1e-200"), "sigma_n_max"),
            (("simulate", "--sigma-n", "1e200"), "sigma_n"),
            (("oracle", "--sigma-n", "1e200"), "sigma_n"),
            (("sweep", "--parameter", "sigma-p", "--values", "1e200"), "sigma_p"),
            (("simulate", "--kind", "cylinder-with-floor", "--dim", "radius=1e200"), "dimensions"),
            (("detect", "--kind", "cylinder", "--dim", "radius=1e200", "--points", "50"), "dimensions"),
        ],
    )
    def test_unsquarable_settings_exit_2(self, tmp_path, capsys, argv, setting):
        # Python's float ** raises where * gives inf or 0: a noise setting or
        # scene dimension whose square is not a normal float must stop the
        # command with its name, not crash or write a NaN information matrix.
        from degen_icp import SceneKind, SceneSpec, generate_scene

        if argv[0] == "register":
            cloud = tmp_path / "room.ply"
            cloud_io.write_ply(cloud, generate_scene(SceneSpec(SceneKind.ROOM, point_count=300, seed=1)).points)
            argv += ("--source", cloud, "--target", cloud)
        out = tmp_path / "o"
        assert _run(*argv, "--out", out) == 2
        assert setting in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, dimension",
        [
            (("detect", "--kind", "cylinder", "--dim", "radius=1e154", "--points", "50"), "radius=1e+154"),
            (("simulate", "--kind", "cylinder-with-floor", "--dim", "radius=1e154", "--points", "50"),
             "radius=1e+154"),
            (("oracle", "--kind", "room", "--points", "50", "--trials", "100", "--dim", "width=1e80",
              "--directions", "2"), "width=1e+80"),
        ],
    )
    def test_overflowing_dimensions_exit_2(self, tmp_path, capsys, argv, dimension):
        # A dimension with a finite square can still overflow the quartic
        # noise variance: these printed NaN with exit 0, or failed with exit 1.
        out = tmp_path / "o"
        assert _run(*argv, "--out", out) == 2
        assert dimension in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["detect", "simulate", "oracle"])
    def test_dimension_inside_bound_runs_finite(self, tmp_path, command):
        # The largest radius accepted at 50 points: (float max / 50)^(1/4) / 2.
        radius = (sys.float_info.max / 50) ** 0.25 / 2.0
        argv = [command, "--kind", "cylinder-with-floor", "--points", 50, "--out", tmp_path]
        assert _run(*argv, "--dim", f"radius={radius * 1.001!r}") == 2
        extra = ["--trials", 100, "--directions", 2] if command == "oracle" else []
        assert _run(*argv, *extra, "--dim", f"radius={radius!r}") == 0
        if command == "simulate":
            values = [cloud_io.load_cloud(tmp_path / f"{name}.ply")[0] for name in ("clean", "noisy")]
        else:
            records = cloud_io.read_jsonl(tmp_path / f"{command}.jsonl")
            values = [[v for v in r.values() if isinstance(v, float)] for r in records]
        assert all(np.isfinite(v).all() for v in values)

    @pytest.mark.parametrize(
        "case", ["detect-scaled-cloud", "detect-sigma-p", "oracle-sigma-p", "detect-hessian", "detect-distances"]
    )
    def test_overflowing_noise_statistics_exit_1(self, tmp_path, capsys, case):
        # These wrote Infinity or probabilities of 0.5 with exit 0, or failed
        # the oracle's tolerance on an inf analytic and a NaN Monte Carlo
        # variance. At 1e154 the Hessian product overflowed with a numpy
        # warning and the run ended in "Eigenvalues did not converge". At
        # 1e155 the kd-tree's distances overflowed to inf, it reported such
        # neighbours as index n, and the run ended in an IndexError.
        out = tmp_path / "o"
        if case == "oracle-sigma-p":
            argv = ("oracle", "--kind", "room", "--points", 50, "--trials", 100, "--directions", 2,
                    "--sigma-p", "1e100")
        else:
            assert _run("simulate", "--kind", "room", "--points", 300, "--seed", 3, "--out", tmp_path) == 0
            cloud = tmp_path / "noisy.ply"
            if case == "detect-sigma-p":
                argv = ("detect", "--cloud", cloud, "--sigma-p", "1e100")
            else:
                scale = {"detect-hessian": 1e154, "detect-distances": 1e155}.get(case, 1e100)
                cloud_io.write_ply(cloud, scale * cloud_io.load_cloud(cloud)[0])
                argv = ("detect", "--cloud", cloud, "--sigma-i", repr(scale / 100))
        assert _run(*argv, "--out", out) == 1
        err = capsys.readouterr().err
        message = {"detect-hessian": "Hessian of the features", "detect-distances": "neighbour distances overflow"}
        assert message.get(case, "noise statistics of a direction") in err
        assert not out.exists()


README = Path(__file__).resolve().parents[1] / "README.md"

COMMAND_FLAGS = {
    "simulate": "--sigma-p --seed --kind --dim --points --sigma-n --format",
    "detect": "--sigma-p --seed --kind --dim --points --sigma-i --sigma-n-max --k-neighbors --s --cloud",
    "register": "--sigma-p --sigma-i --sigma-n-max --k-neighbors --s --method --lambda-min --kappa-max "
    "--max-iterations --max-correspondence-distance --source --target --init",
    "oracle": "--sigma-p --seed --kind --dim --points --sigma-n --trials --directions",
    "sweep": "--sigma-p --seed --kind --dim --points --sigma-n --s --parameter --values",
}


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_command_reads_only_its_flags(command):
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parser = commands.choices[command]
    options = {opt for action in parser._actions for opt in action.option_strings} - {"-h", "--help"}
    assert options == set(COMMAND_FLAGS[command].split()) | {"--config", "--out"}


def test_readme_flag_table_is_command_flags():
    rows = re.findall(r"^\| `(\w+)` \| `(--[^`]*)` \|$", README.read_text(), re.M)
    assert dict(rows) == COMMAND_FLAGS


def _tool(name):
    import importlib.util

    spec = importlib.util.spec_from_file_location(name, README.parent / "tools" / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_output_digest_commands_parse():
    # tools/output_digest.py's command list must stay valid CLI input.
    tool = _tool("output_digest")
    for _, argv in tool.COMMANDS:
        cli.build_parser().parse_args([a.format(tmp="t") for a in argv] + ["--out", "o"])
    assert len(tool.COMMANDS) == 23


def test_output_digest_defaults_are_the_file_keys():
    # The tool's config file holds every config key at its flag's default,
    # and no other key: a key left over after its setting is deleted would
    # make the tool's two config commands exit 2. Its empty
    # scene.dimensions stands for the parser's empty list.
    defaults = dict(_tool("output_digest").DEFAULTS)
    assert defaults.pop("version") == 1
    flat = {}
    for name, value in defaults.items():
        if isinstance(value, dict):
            flat.update({f"{name}.{key}": item for key, item in value.items()})
        else:
            flat[name] = value
    assert set(flat) == set(cli._FILE_KEYS)
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parser_defaults = {}
    for parser in commands.choices.values():
        for action in parser._actions:
            if action.dest in cli._FILE_KEYS.values():
                parser_defaults.setdefault(action.dest, set()).add(repr(action.default))
    for key, value in flat.items():
        expected = repr(list(value.items()) if isinstance(value, dict) else value)
        assert parser_defaults[cli._FILE_KEYS[key]] == {expected}, key


_SMALL_MODULE = """\
import threading


def sign(x):
    \"\"\"Only a thread calls this.\"\"\"
    if x < 0:
        return -1
    return 1


def sign_in_thread(x):
    out = []
    worker = threading.Thread(target=lambda: out.append(sign(x)))
    worker.start()
    worker.join(timeout=10)
    return out[0]
"""


def test_unreached_lines_counts_a_small_module(tmp_path):
    # tools/unreached_lines.py's tracer on a module whose one function runs
    # only in a thread: the branch not taken is the one line it lists.
    import importlib.util

    tool = _tool("unreached_lines")
    path = tmp_path / "small.py"
    path.write_text(_SMALL_MODULE)
    assert tool.executable_lines(path) == {1, 4, 6, 7, 8, 11, 12, 13, 14, 15, 16}
    spec = importlib.util.spec_from_file_location("small", path)
    module = importlib.util.module_from_spec(spec)

    def run():
        spec.loader.exec_module(module)
        return module.sign_in_thread(2)

    result, reached = tool.trace_lines(run, [path])
    assert result == 1
    assert reached == {path.resolve(): {1, 4, 6, 8, 11, 12, 13, 14, 15, 16}}
    assert tool.unreached(reached) == ["small.py:7: return -1"]


def test_readme_config_schema_runs(tmp_path):
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    schema = next(json.loads(b) for b in blocks if '"version": 1' in b)
    path = tmp_path / "readme.json"
    path.write_text(json.dumps(schema))
    assert _run("simulate", "--config", path, "--out", tmp_path / "sim") == 0
    manifest = json.loads((tmp_path / "sim" / "manifest.json").read_text())
    assert manifest["kind"] == schema["scene"]["kind"]
    assert manifest["point_count"] == schema["scene"]["point_count"]
    assert manifest["dimensions"] == schema["scene"]["dimensions"]
    assert manifest["noise"]["sigma_p"] == schema["sensor"]["sigma_p"]
    assert manifest["noise"]["sigma_n"] == schema["noise"]["sigma_n"]
    out = tmp_path / "reg"
    assert _run(
        "register", "--config", path, "--source", tmp_path / "sim" / "clean.ply",
        "--target", tmp_path / "sim" / "clean.ply", "--out", out,
    ) == 0
    assert json.loads((out / "summary.json").read_text())["method"] == schema["method"]["name"]


def _child_env():
    # The child process does not inherit pytest's pythonpath setting.
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "degen_icp.cli", "detect", "--kind", "room", "--points", "300"],
        capture_output=True,
        text=True,
        timeout=120,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert "probability" in proc.stdout


_SCIPY_PROBE = """
import json, sys
import degen_icp
loaded = {"import degen_icp": "scipy" in sys.modules}
from degen_icp import cli, registration
loaded["import degen_icp.cli"] = "scipy" in sys.modules
runs = {
    "oracle": ["oracle", "--kind", "room", "--points", "50", "--trials", "100", "--directions", "2"],
    "simulate": ["simulate"],
    "sweep": ["sweep", "--points", "200", "--parameter", "s", "--values", "1,10"],
    "detect": ["detect", "--kind", "room", "--points", "300"],
}
for name, argv in runs.items():
    cli.main(argv + ["--out", sys.argv[1] + "/" + name])
    loaded[name] = "scipy" in sys.modules
import scipy.spatial
loaded["tree class is scipy's"] = registration.cKDTree is scipy.spatial.cKDTree
print(json.dumps(loaded))
"""


def test_scipy_imported_at_first_tree_build(tmp_path):
    # scipy.spatial takes most of the package's import time and memory, and
    # only a kd-tree build needs it, so a fresh interpreter imports it at
    # detect's first tree and not before.
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, str(tmp_path)], capture_output=True, text=True,
                          timeout=120, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "import degen_icp": False, "import degen_icp.cli": False, "oracle": False, "simulate": False,
        "sweep": False, "detect": True, "tree class is scipy's": True,
    }
