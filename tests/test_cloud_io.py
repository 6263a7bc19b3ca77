import numpy as np
import pytest

from degen_icp import cloud_io


@pytest.fixture
def cloud(tmp_path):
    rng = np.random.default_rng(0)
    points = rng.uniform(-10, 10, (40, 3))
    normals = rng.standard_normal((40, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return tmp_path, points, normals


class TestPly:
    def test_round_trip_with_normals(self, cloud):
        tmp, points, normals = cloud
        path = tmp / "c.ply"
        cloud_io.write_ply(path, points, normals)
        rp, rn = cloud_io.read_ply(path)
        np.testing.assert_allclose(rp, points, atol=1e-6)
        np.testing.assert_allclose(rn, normals, atol=1e-6)

    def test_round_trip_points_only(self, cloud):
        tmp, points, _ = cloud
        path = tmp / "p.ply"
        cloud_io.write_ply(path, points)
        rp, rn = cloud_io.read_ply(path)
        assert rn is None
        np.testing.assert_allclose(rp, points, atol=1e-6)

    def test_rejects_non_ply(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text("not a ply\n")
        with pytest.raises(ValueError, match="bad.ply"):
            cloud_io.read_ply(path)

    def test_rejects_binary_format(self, tmp_path):
        path = tmp_path / "bin.ply"
        path.write_text("ply\nformat binary_little_endian 1.0\nend_header\n")
        with pytest.raises(ValueError, match="ASCII"):
            cloud_io.read_ply(path)

    def test_rejects_negative_vertex_count(self, tmp_path):
        path = tmp_path / "neg.ply"
        header = "ply\nformat ascii 1.0\nelement vertex -2\n" + "".join(f"property double {c}\n" for c in "xyz")
        path.write_text(header + "end_header\n0 0 0\n1 0 0\n0 1 0\n")
        with pytest.raises(ValueError, match="neg.ply: malformed PLY header"):
            cloud_io.read_ply(path)

    def test_ignores_elements_after_vertex(self, tmp_path):
        path = tmp_path / "mesh.ply"
        header = "ply\nformat ascii 1.0\nelement vertex 3\n" + "".join(f"property double {c}\n" for c in "xyz")
        header += "element face 0\nproperty list uchar int vertex_indices\n"
        path.write_text(header + "end_header\n0 0 0\n1 0 0\n0 1 0\n")
        points, normals = cloud_io.read_ply(path)
        np.testing.assert_array_equal(points, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        assert normals is None

    @pytest.mark.parametrize(
        "props, normals_read",
        [("x y z intensity", False), ("x y z intensity nx ny nz", True)],
        ids=["after_z", "between_z_and_normals"],
    )
    def test_extra_vertex_properties(self, tmp_path, props, normals_read):
        path = tmp_path / "extra.ply"
        header = "ply\nformat ascii 1.0\nelement vertex 2\n" + "".join(f"property float {c}\n" for c in props.split())
        rows = {"x": 1, "y": 2, "z": 3, "intensity": 9, "nx": 0, "ny": 0, "nz": 1}
        body = "".join(" ".join(str(rows[c] + i) for c in props.split()) + "\n" for i in range(2))
        path.write_text(header + "end_header\n" + body)
        points, normals = cloud_io.read_ply(path)
        np.testing.assert_array_equal(points, [[1, 2, 3], [2, 3, 4]])
        if normals_read:
            np.testing.assert_array_equal(normals, [[0, 0, 1], [1, 1, 2]])
        else:
            assert normals is None

    def test_rejects_missing_coordinate(self, tmp_path):
        path = tmp_path / "xy.ply"
        header = "ply\nformat ascii 1.0\nelement vertex 1\n" + "".join(f"property double {c}\n" for c in "xy")
        path.write_text(header + "property double intensity\nend_header\n0 0 5\n")
        with pytest.raises(ValueError, match="xy.ply: vertex properties"):
            cloud_io.read_ply(path)

    @pytest.mark.parametrize(
        "props, rows",
        [
            (["list uchar float x", "double y", "double z"], "1 0.5 2 3\n1 1.5 4 5\n"),
            (["double x", "double y", "double z", "list uchar int idx"], "1 2 3 1 7\n4 5 6 1 8\n"),
        ],
        ids=["leading", "trailing"],
    )
    def test_rejects_vertex_list_property(self, tmp_path, props, rows):
        path = tmp_path / "list.ply"
        header = "ply\nformat ascii 1.0\nelement vertex 2\n" + "".join(f"property {p}\n" for p in props)
        path.write_text(header + "end_header\n" + rows)
        name = next(p.split()[-1] for p in props if p.startswith("list"))
        with pytest.raises(ValueError, match=f"list.ply: unsupported vertex list property '{name}'"):
            cloud_io.read_ply(path)


@pytest.mark.parametrize("writer", [cloud_io.write_ply, cloud_io.write_csv], ids=["ply", "csv"])
def test_writers_reject_mismatched_normals(cloud, writer):
    tmp, points, normals = cloud
    with pytest.raises(ValueError, match=r"normals count 39 != points count 40"):
        writer(tmp / "c.out", points, normals[:-1])


@pytest.mark.parametrize("fmt", ["ply", "csv"])
def test_reads_utf8_byte_order_mark(cloud, fmt):
    # Spreadsheet "CSV UTF-8" exports start with a byte-order mark.
    tmp, points, normals = cloud
    path = tmp / f"c.{fmt}"
    (cloud_io.write_ply if fmt == "ply" else cloud_io.write_csv)(path, points, normals)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    rp, rn = cloud_io.load_cloud(path)
    np.testing.assert_allclose(rp, points, atol=1e-6)
    np.testing.assert_allclose(rn, normals, atol=1e-6)


class TestCsv:
    def test_round_trip(self, cloud):
        tmp, points, normals = cloud
        path = tmp / "c.csv"
        cloud_io.write_csv(path, points, normals)
        rp, rn = cloud_io.read_csv(path)
        np.testing.assert_allclose(rp, points, atol=1e-6)
        np.testing.assert_allclose(rn, normals, atol=1e-6)
        header = path.read_text().splitlines()[0]
        assert header == "x,y,z,nx,ny,nz"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="bad.csv"):
            cloud_io.read_csv(path)


class TestPose:
    def test_round_trip(self, tmp_path):
        from conftest import random_pose

        pose = random_pose(np.random.default_rng(1))
        path = tmp_path / "pose.txt"
        cloud_io.write_pose(path, pose.matrix())
        np.testing.assert_allclose(cloud_io.read_pose(path), pose.matrix(), atol=1e-9)
        assert len(path.read_text().split()) == 16

    def test_wrong_count(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("1 2 3\n")
        with pytest.raises(ValueError, match="16"):
            cloud_io.read_pose(path)


class TestJsonl:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "r.jsonl"
        records = [{"a": 1, "b": [1.5, 2.5]}, {"a": 2, "b": []}]
        cloud_io.write_jsonl(path, records)
        assert cloud_io.read_jsonl(path) == records
        assert len(path.read_text().splitlines()) == 2

    def test_empty(self, tmp_path):
        path = tmp_path / "e.jsonl"
        cloud_io.write_jsonl(path, [])
        assert cloud_io.read_jsonl(path) == []
