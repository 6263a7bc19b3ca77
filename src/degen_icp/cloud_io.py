"""Dependency-free interchange formats: ASCII PLY and CSV clouds, whitespace
pose matrices, and JSON-lines records.

All writers are deterministic: fixed field order, '.' decimal separator,
no timestamps.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "write_ply",
    "read_ply",
    "write_csv",
    "read_csv",
    "load_cloud",
    "write_pose",
    "read_pose",
    "write_matrix",
    "read_matrix",
    "write_jsonl",
    "read_jsonl",
    "write_json",
]

Array = NDArray[np.float64]

_FLOAT_FMT = "{:.10g}"


def _fmt_row(row) -> str:
    return " ".join(_FLOAT_FMT.format(float(v)) for v in row)


def _parse_rows(path, lines, sep, width: int) -> Array:
    try:
        rows = [list(map(float, line.split(sep))) for line in lines]
        return np.asarray(rows, dtype=np.float64).reshape(len(rows), width)
    except ValueError as exc:
        raise ValueError(f"{path}: malformed data rows ({exc})") from None


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
    lines = ["ply", "format ascii 1.0", f"element vertex {data.shape[0]}"]
    lines += [f"property double {c}" for c in names]
    lines.append("end_header")
    lines += [_fmt_row(r) for r in data]
    Path(path).write_text("\n".join(lines) + "\n")


def read_ply(path) -> tuple[Array, Array | None]:
    """Read an ASCII PLY written by write_ply (or compatible).

    Vertex columns are picked by name: x y z, and nx ny nz when all three
    are present; other scalar vertex properties are read and ignored, and a
    vertex list property is rejected. Returns (points, normals or None).
    """
    text = Path(path).read_text(encoding="utf-8-sig").splitlines()
    if not text or text[0].strip() != "ply":
        raise ValueError(f"{path}: not a PLY file")
    props: list[str] = []
    count = None
    element = None
    body_start = None
    for i, line in enumerate(text[1:], start=1):
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
    if len(text) - body_start < count:
        raise ValueError(f"{path}: truncated, {len(text) - body_start} of {count} vertex rows present")
    data = _parse_rows(path, text[body_start:body_start + count], None, len(props))
    points = data[:, [props.index(c) for c in ("x", "y", "z")]]
    normal_cols = ("nx", "ny", "nz")
    normals = data[:, [props.index(c) for c in normal_cols]] if set(normal_cols) <= set(props) else None
    return _finite_points(path, points), normals


def write_csv(path, points, normals=None) -> None:
    """CSV cloud with header, '.' decimal, no locale."""
    names, data = _cloud_columns(path, points, normals)
    lines = [",".join(names)] + [",".join(_FLOAT_FMT.format(float(v)) for v in row) for row in data]
    Path(path).write_text("\n".join(lines) + "\n")


def read_csv(path) -> tuple[Array, Array | None]:
    """CSV cloud with an x,y,z header, optionally followed by nx,ny,nz; a
    leading UTF-8 byte-order mark, as spreadsheet exports write, is skipped."""
    lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty CSV")
    header = [h.strip() for h in lines[0].split(",")]
    if header[:3] != ["x", "y", "z"]:
        raise ValueError(f"{path}: expected header starting with x,y,z, got {header}")
    data = _parse_rows(path, [line for line in lines[1:] if line.strip()], ",", len(header))
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


def write_pose(path, matrix) -> None:
    """Row-major homogeneous 4x4 pose, 16 whitespace-separated numbers."""
    m = np.asarray(matrix, dtype=np.float64).reshape(4, 4)
    Path(path).write_text("\n".join(_fmt_row(r) for r in m) + "\n")


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
    m = np.asarray(matrix, dtype=np.float64)
    Path(path).write_text("\n".join(_fmt_row(r) for r in np.atleast_2d(m)) + "\n")


def read_matrix(path) -> Array:
    rows = [
        [float(v) for v in line.split()]
        for line in Path(path).read_text().splitlines()
        if line.strip()
    ]
    return np.asarray(rows, dtype=np.float64)


def write_jsonl(path, records) -> None:
    """One compact JSON record per line."""
    lines = [json.dumps(rec, sort_keys=True) for rec in records]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def read_jsonl(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def write_json(path, record) -> None:
    Path(path).write_text(json.dumps(record, sort_keys=True, indent=2) + "\n")
