import argparse
import json
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
        cloud_io.write_pose(init, offset.matrix())
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
        info = cloud_io.read_matrix(out / "information.txt")
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
        cloud_io.write_pose(init, m)
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
        cloud_io.write_pose(init, m)
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

    def test_bad_config_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99}))
        assert _run("simulate", "--config", path) == 2

    def test_unknown_config_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 1, "sensor": {"sigma_q": 1.0}}))
        assert _run("simulate", "--config", path) == 2

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

    def test_config_range_error_names_file_and_key(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"version": 1, "icp": {"translation_tol": -1}}))
        assert _register_with_init(tmp_path, "1 0 0 0 0 1 0 0 0 0 1 0 0 0 0 1", "--config", path) == 2
        assert f"config {path}: icp.translation_tol must be positive, got -1.0" in capsys.readouterr().err

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
        ],
    )
    def test_bad_settings_exit_2(self, tmp_path, capsys, argv, message):
        assert _run(*argv, "--out", tmp_path / "o.csv") == 2
        assert message in capsys.readouterr().err


README = Path(__file__).resolve().parents[1] / "README.md"

COMMAND_FLAGS = {
    "simulate": "--sigma-p --seed --kind --dim --points --sigma-n --format",
    "detect": "--sigma-p --seed --kind --dim --points --sigma-i --sigma-n-max --k-neighbors "
    "--max-correspondence-distance --s --cloud",
    "register": "--sigma-p --sigma-i --sigma-n-max --k-neighbors --max-correspondence-distance --s "
    "--method --lambda-min --kappa-max --sigma-r --max-iterations --source --target --init",
    "oracle": "--sigma-p --seed --kind --dim --points --sigma-n --trials --directions --mean-sigmas --var-rtol",
    "sweep": "--sigma-p --seed --kind --dim --points --sigma-n --s --parameter --values",
}


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_command_reads_only_its_flags(command):
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parser = commands.choices[command]
    options = {opt for action in parser._actions for opt in action.option_strings} - {"-h", "--help"}
    assert options == set(COMMAND_FLAGS[command].split()) | {"--config", "--out"}


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


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "degen_icp.cli", "detect", "--kind", "room", "--points", "300"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "probability" in proc.stdout
