"""Dependency-free interchange formats: ASCII PLY and CSV clouds, whitespace
pose matrices, and JSON-lines records.

All writers are deterministic: fixed field order, '.' decimal separator,
no timestamps.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import warnings
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "write_ply",
    "read_ply",
    "write_csv",
    "read_csv",
    "load_cloud",
    "read_pose",
    "write_matrix",
    "write_jsonl",
    "read_jsonl",
    "write_json",
]

Array = NDArray[np.float64]

_FLOAT_FMT = "%.10g"


@contextlib.contextmanager
def _open_text(path):
    """The file as UTF-8 text, read as it is iterated; a leading byte-order
    mark is skipped. A decoding error names its byte offset in the file, as
    a whole-file read does, not in the chunk the stream was decoding."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError:
        Path(path).read_text(encoding="utf-8-sig")
        raise


def _parse_rows(path, lines, sep, width: int, rows: int | None = None) -> Array:
    """Rows of width floats, one per line of an iterable, parsed as the lines
    are read; sep None splits on whitespace. Blank lines are skipped, and
    the rows read must number rows when it is given."""
    try:
        with warnings.catch_warnings():
            # An all-blank body warns; the shape check below rejects it
            # where rows are expected.
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(lines, dtype=np.float64, delimiter=sep, ndmin=2, comments=None)
    except UnicodeDecodeError:  # a ValueError too, but the file's encoding, not its rows
        raise
    except ValueError as exc:
        raise ValueError(f"{path}: malformed data rows ({exc})") from None
    rows = data.shape[0] if rows is None else rows
    if rows == data.shape[0] == 0:
        return np.empty((0, width))
    if data.shape != (rows, width):
        raise ValueError(
            f"{path}: malformed data rows ({rows} rows of {width} values expected, "
            f"{data.shape[0]} rows of {data.shape[1]} read)"
        )
    return data


def _finite_points(path, data: Array) -> Array:
    points = data[:, :3]
    if not np.isfinite(points).all():
        raise ValueError(f"{path}: non-finite (NaN or inf) coordinates")
    return points


def _cloud_columns(path, points, normals) -> tuple[list[str], Array]:
    """Column names and rows: x y z, then nx ny nz when normals are given."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if normals is None:
        return ["x", "y", "z"], pts
    nrm = np.asarray(normals, dtype=np.float64).reshape(-1, 3)
    if nrm.shape[0] != pts.shape[0]:
        raise ValueError(f"{path}: normals count {nrm.shape[0]} != points count {pts.shape[0]}")
    return ["x", "y", "z", "nx", "ny", "nz"], np.hstack([pts, nrm])


def write_ply(path, points, normals=None) -> None:
    """ASCII PLY with double x y z and optional nx ny nz."""
    names, data = _cloud_columns(path, points, normals)
    header = ["ply", "format ascii 1.0", f"element vertex {data.shape[0]}"]
    header += [f"property double {c}" for c in names] + ["end_header"]
    np.savetxt(path, data, fmt=_FLOAT_FMT, header="\n".join(header), comments="")


def read_ply(path) -> tuple[Array, Array | None]:
    """Read an ASCII PLY written by write_ply (or compatible).

    Vertex columns are picked by name: x y z, and nx ny nz when all three
    are present; other scalar vertex properties are read and ignored, and a
    vertex list property is rejected. Returns (points, normals or None).
    """
    with _open_text(path) as fh:
        if fh.readline().strip() != "ply":
            raise ValueError(f"{path}: not a PLY file")
        props: list[str] = []
        count = None
        element = None
        body_start = None
        for i, line in enumerate(fh, start=1):
            tok = line.split()
            if not tok:
                continue
            malformed = ValueError(f"{path}: malformed PLY header line {line.strip()!r}")
            if tok[0] in ("format", "element", "property") and len(tok) < 3:
                raise malformed
            if tok[0] == "format":
                if tok[1] != "ascii":
                    raise ValueError(f"{path}: only ASCII PLY is supported")
            elif tok[0] == "element":
                # Rows of elements after vertex (faces, edges) follow the
                # vertex rows and are never read.
                element = tok[1]
                if element == "vertex":
                    try:
                        count = int(tok[2])
                    except ValueError:
                        raise malformed from None
                elif count is None:
                    raise ValueError(f"{path}: unsupported element {element!r} before vertex")
            elif tok[0] == "property" and element == "vertex":
                if tok[1] == "list":
                    raise ValueError(f"{path}: unsupported vertex list property {tok[-1]!r}")
                props.append(tok[2])
            elif tok[0] == "end_header":
                body_start = i + 1
                break
        if count is None or count < 0 or body_start is None:
            raise ValueError(f"{path}: malformed PLY header")
        if not {"x", "y", "z"} <= set(props):
            raise ValueError(f"{path}: vertex properties {props} lack one of x, y, z")
        try:
            data = _parse_rows(path, itertools.islice(fh, count), None, len(props), count)
        except ValueError:
            # A body short of count lines is named as truncated, whatever its rows hold.
            with _open_text(path) as again:
                present = sum(1 for _ in itertools.islice(again, body_start, None))
            if present < count:
                raise ValueError(f"{path}: truncated, {present} of {count} vertex rows present") from None
            raise

    def columns(names):  # a view of the block when adjacent and in order, as write_ply writes them
        i = props.index(names[0])
        return data[:, i : i + 3] if props[i : i + 3] == list(names) else data[:, [props.index(c) for c in names]]

    normals = columns(["nx", "ny", "nz"]) if {"nx", "ny", "nz"} <= set(props) else None
    return _finite_points(path, columns(["x", "y", "z"])), normals


def write_csv(path, points, normals=None) -> None:
    """CSV cloud with header, '.' decimal, no locale."""
    names, data = _cloud_columns(path, points, normals)
    np.savetxt(path, data, fmt=_FLOAT_FMT, delimiter=",", header=",".join(names), comments="")


def read_csv(path) -> tuple[Array, Array | None]:
    """CSV cloud with an x,y,z header, optionally followed by nx,ny,nz; a
    leading UTF-8 byte-order mark, as spreadsheet exports write, is skipped."""
    with _open_text(path) as fh:
        first = fh.readline()
        if not first:
            raise ValueError(f"{path}: empty CSV")
        header = [h.strip() for h in first.split(",")]
        if header[:3] != ["x", "y", "z"]:
            raise ValueError(f"{path}: expected header starting with x,y,z, got {header}")
        # Blank lines are skipped; loadtxt would read a whitespace-only one as a row.
        data = _parse_rows(path, filter(str.strip, fh), ",", len(header))
    normals = data[:, 3:6] if header[3:6] == ["nx", "ny", "nz"] else None
    return _finite_points(path, data), normals


def load_cloud(path) -> tuple[Array, Array | None]:
    """Dispatch on extension, .ply or .csv, and reject a cloud without points."""
    suffix = Path(path).suffix.lower()
    readers = {".ply": read_ply, ".csv": read_csv}
    if suffix not in readers:
        raise ValueError(f"{path}: unsupported cloud format {suffix!r}")
    points, normals = readers[suffix](path)
    if points.shape[0] == 0:
        raise ValueError(f"{path}: cloud has no points")
    return points, normals


def read_pose(path) -> Array:
    """A rigid 4x4 pose of finite entries: bottom row 0 0 0 1 and a rotation
    block R with R^T R = I and det R = 1, each to 1e-6."""
    try:
        vals = [float(v) for v in Path(path).read_text().split()]
    except ValueError as exc:
        raise ValueError(f"{path}: malformed pose ({exc})") from None
    if len(vals) != 16:
        raise ValueError(f"{path}: expected 16 numbers, got {len(vals)}")
    m = np.asarray(vals, dtype=np.float64).reshape(4, 4)
    if not np.isfinite(m).all():
        raise ValueError(f"{path}: non-finite (NaN or inf) pose entries")
    rot = m[:3, :3]
    off = [np.abs(m[3] - [0, 0, 0, 1]).max(), np.abs(rot.T @ rot - np.eye(3)).max(), abs(np.linalg.det(rot) - 1)]
    if not max(off) <= 1e-6:
        raise ValueError(f"{path}: not a rigid pose (needs bottom row 0 0 0 1 and a rotation block)")
    return m


def write_matrix(path, matrix) -> None:
    np.savetxt(path, np.atleast_2d(np.asarray(matrix, dtype=np.float64)), fmt=_FLOAT_FMT)


def write_jsonl(path, records) -> None:
    """One compact JSON record per line."""
    lines = [json.dumps(rec, sort_keys=True) for rec in records]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def read_jsonl(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def write_json(path, record) -> None:
    Path(path).write_text(json.dumps(record, sort_keys=True, indent=2) + "\n")
