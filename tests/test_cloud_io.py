import tracemalloc

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

    def test_rejects_element_before_vertex(self, tmp_path):
        path = tmp_path / "face.ply"
        header = "ply\nformat ascii 1.0\nelement face 0\nelement vertex 1\n"
        path.write_text(header + "".join(f"property double {c}\n" for c in "xyz") + "end_header\n0 0 0\n")
        with pytest.raises(ValueError, match="face.ply: unsupported element 'face' before vertex"):
            cloud_io.read_ply(path)

    def test_reads_blank_header_lines(self, tmp_path):
        path = tmp_path / "gaps.ply"
        header = "ply\n\nformat ascii 1.0\n   \nelement vertex 1\n" + "".join(f"property double {c}\n\n" for c in "xyz")
        path.write_text(header + "end_header\n1 2 3\n")
        points, normals = cloud_io.read_ply(path)
        np.testing.assert_array_equal(points, [[1, 2, 3]])
        assert normals is None

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
        [("x y z intensity", False), ("x y z intensity nx ny nz", True), ("nz y x intensity z nx ny", True)],
        ids=["after_z", "between_z_and_normals", "out_of_order"],
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


def _ply_text(body, count, props="x y z"):
    header = f"ply\nformat ascii 1.0\nelement vertex {count}\n"
    return header + "".join(f"property double {c}\n" for c in props.split()) + "end_header\n" + body


@pytest.mark.parametrize("fmt", ["ply", "csv"])
def test_parses_like_float(tmp_path, fmt):
    # Reference: Python's float() on each token, the parser the vectorized
    # readers replaced, on 17-digit values over the whole exponent range.
    rng = np.random.default_rng(2)
    values = rng.uniform(-1.0, 1.0, (1000, 3)) * 10.0 ** rng.integers(-300, 301, (1000, 3))
    sep = " " if fmt == "ply" else ","
    lines = [sep.join(f"{v:.17g}" for v in row) for row in values]
    path = tmp_path / f"c.{fmt}"
    body = "\n".join(lines) + "\n"
    path.write_text(_ply_text(body, len(lines)) if fmt == "ply" else "x,y,z\n" + body)
    points, _ = cloud_io.load_cloud(path)
    reference = np.array([[float(v) for v in line.split(sep)] for line in lines])
    assert np.array_equal(points, reference)
    assert np.array_equal(points, values)


@pytest.mark.parametrize("fmt", ["ply", "csv"])
def test_reads_empty_body(tmp_path, fmt):
    path = tmp_path / f"e.{fmt}"
    path.write_text(_ply_text("", 0) if fmt == "ply" else "x,y,z\n")
    points, normals = (cloud_io.read_ply if fmt == "ply" else cloud_io.read_csv)(path)
    assert points.shape == (0, 3) and normals is None


_MALFORMED = {
    "ragged.ply": _ply_text("0 0 0\n1 0\n", 2),
    "word.ply": _ply_text("0 0 0\n1 0 x\n", 2),
    "blank.ply": _ply_text("0 0 0\n\n1 0 0\n", 2),
    "allblank.ply": _ply_text("\n\n", 2),
    "wide.ply": _ply_text("0 0 0 1\n1 0 0 1\n", 2),
    "ragged.csv": "x,y,z\n1,2,3\n4,5\n",
    "word.csv": "x,y,z\n1,2,3\n4,5,six\n",
    "wide.csv": "x,y,z\n1,2,3,4\n4,5,6,7\n",
}


def test_rejects_unknown_extension(tmp_path):
    path = tmp_path / "scan.xyz"
    path.write_text("0 0 0\n")
    with pytest.raises(ValueError, match="scan.xyz: unsupported cloud format '.xyz'"):
        cloud_io.load_cloud(path)


@pytest.mark.parametrize("name", _MALFORMED)
def test_rejects_malformed_rows(tmp_path, name):
    path = tmp_path / name
    path.write_text(_MALFORMED[name])
    with pytest.raises(ValueError, match=f"{name}: malformed data rows \\("):
        cloud_io.load_cloud(path)


@pytest.mark.parametrize(
    "body, count, present",
    [("0 0 0\n1 0 0\n0 1 0\n", 5, 3), ("0 0 0\n1 0\n", 3, 2), ("0 0 0\n\n", 3, 2), ("", 1, 0)],
    ids=["short", "ragged", "blank", "empty"],
)
def test_truncated_ply_message(tmp_path, body, count, present):
    # Truncation is named before any row is judged malformed.
    path = tmp_path / "cut.ply"
    path.write_text(_ply_text(body, count))
    with pytest.raises(ValueError) as err:
        cloud_io.read_ply(path)
    assert str(err.value) == f"{path}: truncated, {present} of {count} vertex rows present"


@pytest.mark.parametrize("fmt", ["ply", "csv"])
def test_decode_error_names_file_offset(tmp_path, fmt):
    # A byte that is not UTF-8, well past the first chunk the stream
    # decodes, is reported at its offset in the file.
    path = tmp_path / f"bad.{fmt}"
    (cloud_io.write_ply if fmt == "ply" else cloud_io.write_csv)(path, np.arange(6000.0).reshape(-1, 3))
    data = bytearray(path.read_bytes())
    data[-100] = 0xFF
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as err:
        cloud_io.load_cloud(path)
    assert f"can't decode byte 0xff in position {len(data) - 100}:" in str(err.value)


@pytest.mark.parametrize("fmt", ["ply", "csv"])
def test_reader_peak_memory(tmp_path, fmt):
    # Files are parsed as they are read, and columns in the writers' order
    # come back as views of the parsed block: reading 100k rows with normals,
    # as simulate writes them, allocates less than 1.5 times the arrays
    # returned, with no string per line held and no column copied.
    rng = np.random.default_rng(3)
    points, normals = rng.uniform(-10.0, 10.0, (100_000, 3)), rng.standard_normal((100_000, 3))
    path = tmp_path / f"big.{fmt}"
    (cloud_io.write_ply if fmt == "ply" else cloud_io.write_csv)(path, points, normals)
    tracemalloc.start()
    try:
        got_points, got_normals = (cloud_io.read_ply if fmt == "ply" else cloud_io.read_csv)(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (got_points.nbytes + got_normals.nbytes)
    assert got_points.base is not None and got_points.base is got_normals.base
    np.testing.assert_allclose(got_points, points, rtol=1e-9)
    np.testing.assert_allclose(got_normals, normals, rtol=1e-9)


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

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "none.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="none.csv: empty CSV"):
            cloud_io.load_cloud(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="bad.csv"):
            cloud_io.read_csv(path)


_EDGE_POINTS = np.array([[np.nan, np.inf, -np.inf], [-0.0, 5e-324, 1e300], [1e-300, 0.1, -2.5]])
_EDGE_NORMALS = np.array([[0.0, 0.0, 1.0], [1 / 3, -2 / 3, 2 / 3], [-0.6, 0.8, -0.0]])
_PLY_HEADER = "ply\nformat ascii 1.0\nelement vertex {}\nproperty double x\nproperty double y\nproperty double z\n"
_NORMAL_PROPS = "property double nx\nproperty double ny\nproperty double nz\n"


@pytest.mark.parametrize(
    "write, expected",
    [
        (
            lambda p: cloud_io.write_ply(p, _EDGE_POINTS, _EDGE_NORMALS),
            _PLY_HEADER.format(3) + _NORMAL_PROPS + "end_header\n"
            "nan inf -inf 0 0 1\n"
            "-0 4.940656458e-324 1e+300 0.3333333333 -0.6666666667 0.6666666667\n"
            "1e-300 0.1 -2.5 -0.6 0.8 -0\n",
        ),
        (
            lambda p: cloud_io.write_ply(p, _EDGE_POINTS),
            _PLY_HEADER.format(3) + "end_header\nnan inf -inf\n-0 4.940656458e-324 1e+300\n1e-300 0.1 -2.5\n",
        ),
        (lambda p: cloud_io.write_ply(p, np.empty((0, 3))), _PLY_HEADER.format(0) + "end_header\n"),
        (
            lambda p: cloud_io.write_csv(p, _EDGE_POINTS, _EDGE_NORMALS),
            "x,y,z,nx,ny,nz\nnan,inf,-inf,0,0,1\n"
            "-0,4.940656458e-324,1e+300,0.3333333333,-0.6666666667,0.6666666667\n"
            "1e-300,0.1,-2.5,-0.6,0.8,-0\n",
        ),
        (
            lambda p: cloud_io.write_csv(p, _EDGE_POINTS),
            "x,y,z\nnan,inf,-inf\n-0,4.940656458e-324,1e+300\n1e-300,0.1,-2.5\n",
        ),
        (lambda p: cloud_io.write_csv(p, np.empty((0, 3))), "x,y,z\n"),
        (
            lambda p: cloud_io.write_matrix(
                p, np.concatenate([_EDGE_POINTS.ravel(), _EDGE_NORMALS.ravel()[:7]]).reshape(4, 4)
            ),
            "nan inf -inf -0\n4.940656458e-324 1e+300 1e-300 0.1\n-2.5 0 0 1\n"
            "0.3333333333 -0.6666666667 0.6666666667 -0.6\n",
        ),
        (lambda p: cloud_io.write_matrix(p, _EDGE_POINTS[:2]), "nan inf -inf\n-0 4.940656458e-324 1e+300\n"),
        (lambda p: cloud_io.write_matrix(p, _EDGE_NORMALS[1]), "0.3333333333 -0.6666666667 0.6666666667\n"),
    ],
    ids=["ply-normals", "ply-points", "ply-empty", "csv-normals", "csv-points", "csv-empty", "pose", "matrix",
         "matrix-vector"],
)
def test_writers_golden_bytes(tmp_path, write, expected):
    # Ten significant digits, NaN and infinities spelled out, the sign of
    # -0.0 kept, subnormals and extreme exponents, '\n' after every line.
    path = tmp_path / "out"
    write(path)
    assert path.read_bytes() == expected.encode("ascii")


class TestPose:
    def test_round_trip(self, tmp_path):
        from conftest import random_pose

        pose = random_pose(np.random.default_rng(1))
        path = tmp_path / "pose.txt"
        cloud_io.write_matrix(path, pose.matrix())
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
