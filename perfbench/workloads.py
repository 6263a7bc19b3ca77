"""Seeded inputs, command lines and ground truth for the benchmark workloads.

Inputs are generated with plain numpy, never with the package under test, so
a change to the package's own scene generator cannot change the workload. The
program sees only the files written here and the flags of each command.

Every workload has a pool of inputs. Operation i runs pool entry i mod K; the
quality metrics come from the first pass over the pool, which every run
completes, so they repeat exactly for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

NAMES = ("room-20k", "corridor-map", "oracle-mc")

# Acceptance limits of the room-recovery criterion, applied in the observable
# subspace: a pose within them counts toward pose_ok_frac.
POSE_OK_MM = 5.0
POSE_OK_DEG = 0.1
# A pose this far off (four times the limits; the start offsets are larger)
# is a wrong answer and fails the operation.
POSE_FAIL_MM = 20.0
POSE_FAIL_DEG = 0.4
# Directions whose last-iteration probability is below this count as flagged.
FLAG_P = 0.01


@dataclass
class Op:
    """One pool entry: the command line and what its outputs must show."""

    argv: list[str]
    kind: str                      # "register" or "oracle"
    out: Path
    truth: np.ndarray | None = None        # 4x4 source-to-target pose
    null_basis: np.ndarray | None = None   # (K, 6) rows, source frame
    source_points: int = 0
    directions: int = 0
    trials: int = 0


def _rot_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _pose(rotation: np.ndarray, translation) -> np.ndarray:
    m = np.eye(4)
    m[:3, :3] = rotation
    m[:3, 3] = translation
    return m


def _sample_box_faces(rng, n: int, faces) -> np.ndarray:
    """Uniform-by-area samples on axis-aligned rectangles.

    faces: (axis, coordinate, (lo, hi) of the first free axis, (lo, hi) of
    the second free axis).
    """
    areas = np.array([(a[1] - a[0]) * (b[1] - b[0]) for _, _, a, b in faces])
    counts = rng.multinomial(n, areas / areas.sum())
    chunks = []
    for (axis, coord, a, b), m in zip(faces, counts):
        free = [i for i in range(3) if i != axis]
        pts = np.empty((m, 3))
        pts[:, axis] = coord
        pts[:, free[0]] = rng.uniform(a[0], a[1], m)
        pts[:, free[1]] = rng.uniform(b[0], b[1], m)
        chunks.append(pts)
    return np.concatenate(chunks)


def _room_faces(width=4.0, depth=3.0, height=2.5):
    w, d, h = width / 2, depth / 2, height / 2
    return [
        (0, w, (-d, d), (-h, h)), (0, -w, (-d, d), (-h, h)),
        (1, d, (-w, w), (-h, h)), (1, -d, (-w, w), (-h, h)),
        (2, h, (-w, w), (-d, d)), (2, -h, (-w, w), (-d, d)),
    ]


def _corridor_faces(length, width=2.0, height=2.0):
    l, w, h = length / 2, width / 2, height / 2
    return [(1, w, (-l, l), (-h, h)), (1, -w, (-l, l), (-h, h)), (2, -h, (-l, l), (-w, w))]


def write_ply(path: Path, points: np.ndarray) -> None:
    """ASCII PLY with double x y z, the format the program reads."""
    header = (
        f"ply\nformat ascii 1.0\nelement vertex {points.shape[0]}\n"
        "property double x\nproperty double y\nproperty double z\nend_header"
    )
    np.savetxt(path, points, fmt="%.10g", header=header, comments="")


def write_pose(path: Path, matrix: np.ndarray) -> None:
    np.savetxt(path, matrix, fmt="%.17g")


def _scan(rng, faces, n: int, sigma: float, truth: np.ndarray) -> np.ndarray:
    """Noisy sample of the surfaces, expressed in the frame of pose truth."""
    world = _sample_box_faces(rng, n, faces) + sigma * rng.standard_normal((n, 3))
    return (world - truth[:3, 3]) @ truth[:3, :3]


def _register_op(inputs: Path, out: Path, i: int, source: Path, target: Path,
                 truth, init, null_basis, n_src: int, extra: list[str]) -> Op:
    init_path = inputs / f"init_{i}.txt"
    write_pose(init_path, init)
    argv = ["register", "--source", str(source), "--target", str(target),
            "--init", str(init_path), "--method", "probabilistic", "--out", str(out)] + extra
    return Op(argv, "register", out, truth=truth, null_basis=null_basis, source_points=n_src)


def build_room(rng, inputs: Path, out: Path, pairs: int, points: int) -> list[Op]:
    """Pairs of independent 1 cm-noise room scans at the default settings.

    The source sensor sits at a random pose inside the room; the start pose
    is off by 6 cm in a random direction and 2 degrees of yaw. How many
    iterations run (7 to the limit of 30) depends on the noise draw, so the
    runner times this workload per ICP iteration as well as per operation.
    """
    faces = _room_faces()
    ops = []
    for i in range(pairs):
        target = _sample_box_faces(rng, points, faces) + 0.01 * rng.standard_normal((points, 3))
        truth = _pose(_rot_z(rng.uniform(-0.25, 0.25)),
                      rng.uniform([-0.3, -0.3, -0.1], [0.3, 0.3, 0.1]))
        source = _scan(rng, faces, points, 0.01, truth)
        step = rng.standard_normal(3)
        step *= 0.06 / np.linalg.norm(step)
        init = truth @ _pose(_rot_z(np.deg2rad(2.0) * rng.choice([-1.0, 1.0])), step)
        src, tgt = inputs / f"source_{i}.ply", inputs / f"target_{i}.ply"
        write_ply(src, source)
        write_ply(tgt, target)
        ops.append(_register_op(inputs, out, i, src, tgt, truth, init, np.zeros((0, 6)), points, []))
    return ops


def build_corridor(rng, inputs: Path, out: Path, scans: int, scan_points: int,
                   map_points: int) -> list[Op]:
    """2k-point 1 cm-noise scans of an 8 m corridor against one map of it.

    The map carries 1 mm noise and the command passes it as --sigma-i. The
    start pose is off by 0.2 m along the axis, 3 cm sideways and 1 degree of
    yaw; the axis cannot be observed, so only the rest must be recovered.
    """
    faces = _corridor_faces(8.0)
    corridor_map = _sample_box_faces(rng, map_points, faces)
    corridor_map += 0.001 * rng.standard_normal(corridor_map.shape)
    map_path = inputs / "map.ply"
    write_ply(map_path, corridor_map)
    ops = []
    for i in range(scans):
        truth = _pose(_rot_z(rng.uniform(-0.1, 0.1)),
                      rng.uniform([-1.0, -0.2, -0.1], [1.0, 0.2, 0.1]))
        source = _scan(rng, faces, scan_points, 0.01, truth)
        axis, side = truth[:3, :3].T @ np.eye(3)[0], truth[:3, :3].T @ np.eye(3)[1]
        signs = rng.choice([-1.0, 1.0], 3)
        init = truth @ _pose(_rot_z(np.deg2rad(1.0) * signs[0]),
                             0.2 * signs[1] * axis + 0.03 * signs[2] * side)
        null = np.concatenate([np.zeros(3), axis])[None, :]
        src = inputs / f"scan_{i}.ply"
        write_ply(src, source)
        ops.append(_register_op(inputs, out, i, src, map_path, truth, init, null, scan_points,
                                ["--sigma-i", "0.001"]))
    return ops


def build_oracle(rng, out: Path, seeds: int, trials: int, directions: int,
                 features: int) -> list[Op]:
    """Closed-form versus Monte Carlo statistics on room scenes, one scene
    seed per operation."""
    ops = []
    for seed in rng.integers(0, 2**31 - 1, seeds):
        argv = ["oracle", "--kind", "room", "--points", str(features), "--trials", str(trials),
                "--directions", str(directions), "--seed", str(int(seed)), "--out", str(out)]
        ops.append(Op(argv, "oracle", out, directions=directions, trials=trials))
    return ops


def build(name: str, seed: int, work: Path, tiny: bool = False) -> list[Op]:
    """Write the inputs of one workload under work and return its pool.

    tiny shrinks every size to one quick operation (smoke tests).
    """
    rng = np.random.default_rng([seed, NAMES.index(name)])
    inputs, out = work / "inputs", work / "out"
    inputs.mkdir(parents=True, exist_ok=True)
    if name == "room-20k":
        ops = build_room(rng, inputs, out, 1 if tiny else 4, 2000 if tiny else 20000)
    elif name == "corridor-map":
        ops = build_corridor(rng, inputs, out, 1 if tiny else 8, 2000, 20000 if tiny else 200000)
    elif name == "oracle-mc":
        ops = build_oracle(rng, out, 1 if tiny else 4, 2000 if tiny else 100000, 10, 100)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    return ops
