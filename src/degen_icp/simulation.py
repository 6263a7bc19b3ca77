"""Synthetic scenes with known degenerate directions, noise injection, and
Monte Carlo oracles for the analytic noise statistics.

Scenes are generated directly in the sensor frame with the sensor at the
origin, so feature vectors stay bounded by the scene scale. Each generated
point carries its exact tangent plane; the noise-free Hessian of a sample
annihilates the published null basis exactly.

Randomness: every operation takes an explicit 64-bit seed. Monte Carlo loops
split their seed into one child stream per fixed-size chunk of trials
(chunk size depends only on the feature count). The chunks run on a thread
pool with one worker per core this process may use (os.sched_getaffinity,
else os.cpu_count), and their results are merged in chunk order, so the
result is bit for bit the same for any worker count.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Mapping, Sequence

import numpy as np
from numpy.typing import NDArray

from .degeneracy import accumulate_arrays
from .errors import InvalidDimensions, RequiresDegenerateScene
from .registration import Probabilistic, solve_update

__all__ = [
    "SceneKind",
    "SceneSpec",
    "SceneSample",
    "NoiseSpec",
    "SpuriousInfoReport",
    "generate_scene",
    "noisy_feature_arrays",
    "tangent_covariances",
    "mc_direction_stats",
    "spurious_info_demo",
]

Array = NDArray[np.float64]

# Element budget per Monte Carlo chunk. Part of the determinism contract: the
# chunk row count is a pure function of the feature count, and fixes which
# trials share a seed stream. Each worker holds one chunk's draws, (rows, N, 5)
# values or about 14 MB.
_CHUNK_ELEMENTS = 2**21
# Element budget per row block of a chunk: bounds each (rows, N, 6) and
# (rows, N, D) array built from the draws to about 1 MB, so a worker holds
# one chunk's draws and one block. mc_direction_stats results do not depend
# on it; the summed moment of spurious_info_demo does, in its last bits.
_BLOCK_ELEMENTS = 2**17


class SceneKind(str, Enum):
    INFINITE_PLANE = "infinite-plane"
    CORRIDOR = "corridor"
    CYLINDER = "cylinder"
    CYLINDER_WITH_FLOOR = "cylinder-with-floor"
    ROOM = "room"


_DEFAULT_DIMENSIONS: dict[SceneKind, dict[str, float]] = {
    SceneKind.INFINITE_PLANE: {"size": 10.0, "drop": 1.5},
    SceneKind.CORRIDOR: {"length": 8.0, "width": 2.0, "height": 2.0},
    SceneKind.CYLINDER: {"radius": 8.0, "height": 16.0},
    SceneKind.CYLINDER_WITH_FLOOR: {"radius": 8.0, "height": 16.0},
    SceneKind.ROOM: {"width": 4.0, "depth": 3.0, "height": 2.5},
}


@dataclass(frozen=True)
class SceneSpec:
    """Scene selector with kind-specific dimensions (meters).

    Missing dimensions take per-kind defaults; unknown keys are rejected.
    """

    kind: SceneKind
    dimensions: Mapping[str, float] | None = None
    point_count: int = 2000
    seed: int = 0

    def resolved_dimensions(self) -> dict[str, float]:
        defaults = dict(_DEFAULT_DIMENSIONS[SceneKind(self.kind)])
        if self.dimensions:
            unknown = set(self.dimensions) - set(defaults)
            if unknown:
                raise InvalidDimensions(
                    f"unknown dimensions for {SceneKind(self.kind).value}: {sorted(unknown)}"
                )
            defaults.update({k: float(v) for k, v in self.dimensions.items()})
        if not all(0.0 < v < math.inf for v in defaults.values()):
            raise InvalidDimensions(f"dimensions must be positive and finite, got {defaults}")
        return defaults


@dataclass(frozen=True)
class SceneSample:
    """Sampled surface points with exact per-point tangent planes.

    null_basis rows are unit 6-vectors ([rot; trans], sensor frame) spanning
    the null space of the noise-free Hessian.
    """

    points: Array         # (N, 3)
    normals: Array        # (N, 3)
    offsets: Array        # (N,)
    null_basis: Array     # (K, 6)
    sensor_origin: Array  # (3,)

    @property
    def true_planes(self) -> list[tuple[Array, float]]:
        """Distinct (normal, offset) pairs, rounded to 9 decimals."""
        rows = np.round(np.column_stack([self.normals, self.offsets]), 9)
        uniq = np.unique(rows, axis=0)
        return [(row[:3].copy(), float(row[3])) for row in uniq]


@dataclass(frozen=True)
class NoiseSpec:
    """Gaussian noise levels: sigma_p on points (m), sigma_n on normals
    (tangent-plane standard deviation, unitless)."""

    sigma_p: float
    sigma_n: float
    seed: int = 0


@dataclass(frozen=True)
class SpuriousInfoReport:
    """Outcome of the noise-induced-information diagnostic on a degenerate scene."""

    hessian_mean_rel_error: float
    noise_hessian: Array                 # (6, 6) predicted spurious information
    standard_null_mean_abs: Array        # (K,) over the scene's null basis
    probabilistic_null_mean_abs: Array   # (K,)


def _unit_rows(a: Array) -> Array:
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def _null_rows(twists: Sequence[Sequence[float]]) -> Array:
    if not twists:
        return np.zeros((0, 6))
    return _unit_rows(np.asarray(twists, dtype=np.float64))


def generate_scene(spec: SceneSpec) -> SceneSample:
    """Sample points uniformly (by area) on the named surfaces.

    Deterministic for a given spec. Raises InvalidDimensions for nonpositive
    or non-finite dimensions or point_count < 6.
    """
    if spec.point_count < 6:
        raise InvalidDimensions(f"point_count must be >= 6, got {spec.point_count}")
    kind = SceneKind(spec.kind)
    dims = spec.resolved_dimensions()
    rng = np.random.default_rng(spec.seed)

    surfaces: list[tuple[float, object]] = []  # (area, sampler(rng, m))

    def rect(axis: int, coord: float, extents: tuple[float, float], normal: Array):
        """Axis-aligned rectangle sampler: axis pinned at coord, the other two
        axes uniform in +-extents/2."""
        others = [i for i in range(3) if i != axis]

        def sample(r, m):
            pts = np.empty((m, 3))
            pts[:, axis] = coord
            pts[:, others[0]] = r.uniform(-extents[0] / 2.0, extents[0] / 2.0, m)
            pts[:, others[1]] = r.uniform(-extents[1] / 2.0, extents[1] / 2.0, m)
            nrm = np.broadcast_to(normal, (m, 3)).copy()
            off = np.full(m, float(normal @ np.eye(3)[axis]) * coord)
            return pts, nrm, off

        return sample

    ex, ey, ez = np.eye(3)
    if kind is SceneKind.INFINITE_PLANE:
        size, drop = dims["size"], dims["drop"]
        surfaces.append((size * size, rect(2, -drop, (size, size), ez)))
        null = [[0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0]]
    elif kind is SceneKind.CORRIDOR:
        length, width, height = dims["length"], dims["width"], dims["height"]
        surfaces.append((length * height, rect(1, width / 2.0, (length, height), -ey)))
        surfaces.append((length * height, rect(1, -width / 2.0, (length, height), ey)))
        surfaces.append((length * width, rect(2, -height / 2.0, (length, width), ez)))
        null = [[0, 0, 0, 1, 0, 0]]
    elif kind in (SceneKind.CYLINDER, SceneKind.CYLINDER_WITH_FLOOR):
        radius, height = dims["radius"], dims["height"]

        def wall(r, m):
            theta = r.uniform(0.0, 2.0 * np.pi, m)
            pts = np.column_stack(
                [radius * np.cos(theta), radius * np.sin(theta), r.uniform(-height / 2.0, height / 2.0, m)]
            )
            nrm = -np.column_stack([np.cos(theta), np.sin(theta), np.zeros(m)])
            return pts, nrm, np.full(m, -radius)

        surfaces.append((2.0 * np.pi * radius * height, wall))
        if kind is SceneKind.CYLINDER_WITH_FLOOR:

            def floor(r, m):
                rho = radius * np.sqrt(r.uniform(0.0, 1.0, m))
                theta = r.uniform(0.0, 2.0 * np.pi, m)
                pts = np.column_stack([rho * np.cos(theta), rho * np.sin(theta), np.full(m, -height / 2.0)])
                return pts, np.broadcast_to(ez, (m, 3)).copy(), np.full(m, -height / 2.0)

            surfaces.append((np.pi * radius**2, floor))
            null = [[0, 0, 1, 0, 0, 0]]
        else:
            null = [[0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 1]]
    elif kind is SceneKind.ROOM:
        width, depth, height = dims["width"], dims["depth"], dims["height"]
        surfaces.append((depth * height, rect(0, width / 2.0, (depth, height), -ex)))
        surfaces.append((depth * height, rect(0, -width / 2.0, (depth, height), ex)))
        surfaces.append((width * height, rect(1, depth / 2.0, (width, height), -ey)))
        surfaces.append((width * height, rect(1, -depth / 2.0, (width, height), ey)))
        surfaces.append((width * depth, rect(2, height / 2.0, (width, depth), -ez)))
        surfaces.append((width * depth, rect(2, -height / 2.0, (width, depth), ez)))
        null = []
    else:  # pragma: no cover - enum is exhaustive
        raise InvalidDimensions(f"unknown scene kind {spec.kind}")

    areas = np.array([a for a, _ in surfaces])
    counts = rng.multinomial(spec.point_count, areas / areas.sum())
    pts, nrms, offs = [], [], []
    for (_, sampler), m in zip(surfaces, counts):
        if m == 0:
            continue
        p, n, d = sampler(rng, int(m))
        pts.append(p)
        nrms.append(n)
        offs.append(d)
    points = np.concatenate(pts)
    normals = np.concatenate(nrms)
    offsets = np.concatenate(offs)
    return SceneSample(points, normals, offsets, _null_rows(null), np.zeros(3))


def _tangent_basis(normals: Array) -> tuple[Array, Array]:
    """Orthonormal in-plane basis (t1, t2) per unit normal row."""
    ref = np.where(np.abs(normals[:, 2:3]) < 0.9, [[0.0, 0.0, 1.0]], [[1.0, 0.0, 0.0]])
    t1 = np.cross(normals, ref)
    t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
    return t1, np.cross(normals, t1)


def tangent_covariances(normals: Array, sigma_n: float) -> Array:
    """Covariances sigma_n^2 (I - n n^T), shape (N, 3, 3), of isotropic
    tangent-plane noise on each normal row n, taken as given (not normalized)."""
    return sigma_n**2 * (np.eye(3) - np.einsum("ni,nj->nij", normals, normals))


def noisy_feature_arrays(
    sample: SceneSample, noise: NoiseSpec
) -> tuple[Array, Array, Array, Array, Array, Array]:
    """Draw one noise realization as plain arrays.

    Returns (points, normals, offsets, weights, point_cov, normal_covs) ready
    for accumulate_arrays. Normals are turned by the exact rotation of their
    tangent noise eta, so they stay unit length. Deterministic and bit-stable
    for a given seed: a single stream draws point noise first, then tangent
    coefficients.
    """
    rng = np.random.default_rng(noise.seed)
    n_pts = sample.points.shape[0]
    eps = noise.sigma_p * rng.standard_normal((n_pts, 3))
    coeffs = noise.sigma_n * rng.standard_normal((n_pts, 2))
    t1, t2 = _tangent_basis(sample.normals)
    eta = coeffs[:, 0:1] * t1 + coeffs[:, 1:2] * t2

    points = sample.points + eps
    theta = np.linalg.norm(eta, axis=-1, keepdims=True)
    normals = np.cos(theta) * sample.normals + np.sinc(theta / np.pi) * np.cross(sample.normals, eta)
    normal_covs = tangent_covariances(normals / np.linalg.norm(normals, axis=1, keepdims=True), noise.sigma_n)
    point_cov = noise.sigma_p**2 * np.eye(3)
    weights = np.ones(n_pts)
    return points, normals, sample.offsets.copy(), weights, point_cov, normal_covs


def _chunk_rows(n_features: int) -> int:
    return max(1, _CHUNK_ELEMENTS // max(n_features * 6, 1))


def _block_rows(n_features: int, width: int) -> int:
    """Rows per block of a chunk whose arrays have shape (rows, N, width)."""
    return max(1, _BLOCK_ELEMENTS // max(n_features * width, 1))


def _worker_count() -> int:
    """Monte Carlo threads: the cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not available on every platform
        return os.cpu_count() or 1


def _mc_chunks(task, n_features: int, trials: int, seed: np.random.SeedSequence) -> Iterator:
    """Results of task(rng, rows) over chunks covering `trials` draws, in
    chunk order.

    Chunk i draws from the i-th child of seed, and every chunk but the last
    has _chunk_rows(n_features) rows, so the results do not depend on the
    worker count. Chunks run on a pool of _worker_count() threads, with at
    most two chunks per worker in flight.
    """
    rows = _chunk_rows(n_features)
    workers = _worker_count()
    pending = deque()
    with ThreadPoolExecutor(workers) as pool:
        for i, child in enumerate(seed.spawn((trials + rows - 1) // rows)):
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
            pending.append(pool.submit(task, np.random.default_rng(child), min(rows, trials - i * rows)))
        while pending:
            yield pending.popleft().result()


def _chunk_draws(rng, n_features: int, rows: int, sigma_p: float, sigma_n: float) -> tuple[Array, Array]:
    """One chunk's noise: point noise eps (rows, N, 3) first, then tangent
    coefficients (rows, N, 2)."""
    eps = sigma_p * rng.standard_normal((rows, n_features, 3))
    coeffs = sigma_n * rng.standard_normal((rows, n_features, 2))
    return eps, coeffs


def _noisy_vectors(points, normals, weights, t1, t2, eps, coeffs) -> Array:
    """Noisy feature vectors, shape (rows, N, 6), for draws from _chunk_draws,
    under the small-angle normal model n + cross(n, eta) of the closed-form
    statistics."""
    eta = coeffs[..., 0:1] * t1 + coeffs[..., 1:2] * t2
    p_hat = points + eps
    n_hat = normals + np.cross(normals, eta)
    return weights[:, None] * np.concatenate([np.cross(p_hat, n_hat), n_hat], axis=-1)


def mc_direction_stats(
    points, normals, weights, noise: NoiseSpec, directions, trials: int
) -> tuple[Array, Array]:
    """Brute-force oracle: sample mean and unbiased sample variance of
    u^T H_hat u for each unit direction column u of directions (6, D), over
    independent noise draws on noise-free features.

    points/normals are (N, 3) and weights (N,). All directions share the
    same draws. Normals are perturbed with the additive small-angle form,
    the model behind the closed-form statistics; the sampled vectors keep
    the full nonlinear product of noisy point and noisy normal. Each chunk
    of draws is evaluated in row blocks; chunk statistics are merged with
    Welford's update in chunk order.
    """
    if trials < 2:
        raise ValueError("trials must be >= 2")
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    normals = np.asarray(normals, dtype=np.float64).reshape(-1, 3)
    n_feat = points.shape[0]
    weights = np.broadcast_to(np.asarray(weights, dtype=np.float64), (n_feat,))
    dirs = np.asarray(directions, dtype=np.float64).reshape(6, -1)
    t1, t2 = _tangent_basis(normals)
    block = _block_rows(n_feat, max(6, dirs.shape[1]))

    def chunk_stats(rng, m):
        eps, coeffs = _chunk_draws(rng, n_feat, m, noise.sigma_p, noise.sigma_n)
        vals = np.empty((m, dirs.shape[1]))
        for a in range(0, m, block):
            v = _noisy_vectors(points, normals, weights, t1, t2, eps[a : a + block], coeffs[a : a + block])
            proj = v @ dirs  # (rows, N, D)
            vals[a : a + block] = np.sum(proj * proj, axis=1)
        c_mean = vals.mean(axis=0)
        return m, c_mean, np.sum((vals - c_mean) ** 2, axis=0)

    count = 0
    mean = np.zeros(dirs.shape[1])
    m2 = np.zeros(dirs.shape[1])
    for m, c_mean, c_m2 in _mc_chunks(chunk_stats, n_feat, trials, np.random.SeedSequence(noise.seed)):
        delta = c_mean - mean
        total = count + m
        mean = mean + delta * (m / total)
        m2 = m2 + c_m2 + delta**2 * (count * m / total)
        count = total
    return mean, m2 / (count - 1)


def spurious_info_demo(
    sample: SceneSample,
    sigma_n: float,
    trials: int,
    solve_trials: int = 256,
    seed: int = 0,
) -> SpuriousInfoReport:
    """Quantify how normal noise alone manufactures information in null
    directions, and how much of it each solver lets through.

    With unit weights, zero point noise and isotropic tangent noise sigma_n
    on the normals, the expected noisy Hessian is H + H_N with
    H_N = sigma_n^2 * sum_i F_i (I - n n^T) F_i^T, F_i = [skew(p_i); I] w_i,
    the sigma_total of the noise-free features.
    The demo checks that identity by Monte Carlo over `trials` draws, then
    compares, over min(trials, solve_trials) paired draws, the mean absolute
    null-direction component of a standard solve with a 1e-9 ridge against
    the probabilistic solve at its default s.
    """
    if trials < 1 or solve_trials < 1:
        raise ValueError("trials and solve_trials must be >= 1")
    if sample.null_basis.shape[0] == 0:
        raise RequiresDegenerateScene("the scene has no degenerate direction")
    points, normals, offsets = sample.points, sample.normals, sample.offsets
    n_feat = points.shape[0]
    weights = np.ones(n_feat)
    point_cov = np.zeros((3, 3))
    clean = accumulate_arrays(points, normals, offsets, weights, point_cov, tangent_covariances(normals, sigma_n))
    hessian, h_noise = clean.hessian, clean.sigma_total

    root = np.random.SeedSequence(seed)
    ss_mean, ss_solve = root.spawn(2)

    t1, t2 = _tangent_basis(normals)
    block = _block_rows(n_feat, 6)

    def chunk_moment(rng, m):
        eps, coeffs = _chunk_draws(rng, n_feat, m, 0.0, sigma_n)
        part = np.zeros((6, 6))
        for a in range(0, m, block):
            vv = _noisy_vectors(points, normals, weights, t1, t2, eps[a : a + block], coeffs[a : a + block])
            part += np.einsum("mni,mnj->ij", vv, vv)
        return part

    # Expectation identity by Monte Carlo (zero point noise).
    acc = np.zeros((6, 6))
    for part in _mc_chunks(chunk_moment, n_feat, trials, ss_mean):
        acc += part
    mean_h = acc / trials
    # Gauge the identity error against the predicted inflation; fall back to
    # the Hessian scale when the predicted inflation is zero (zero noise).
    denom = np.linalg.norm(h_noise)
    if denom == 0.0:
        denom = max(np.linalg.norm(hessian), np.finfo(float).tiny)
    rel_err = float(np.linalg.norm(mean_h - (hessian + h_noise)) / denom)

    # Paired solves on a subsample of the draws.
    m_solves = min(trials, solve_trials)
    solve_children = ss_solve.spawn(m_solves)
    k_null = sample.null_basis.shape[0]
    abs_std = np.zeros(k_null)
    abs_prob = np.zeros(k_null)
    for i in range(m_solves):
        rng = np.random.default_rng(solve_children[i])
        coeffs = sigma_n * rng.standard_normal((n_feat, 2))
        eta = coeffs[:, 0:1] * t1 + coeffs[:, 1:2] * t2
        n_hat = normals + np.cross(normals, eta)
        normal_covs = tangent_covariances(n_hat / np.linalg.norm(n_hat, axis=1, keepdims=True), sigma_n)
        bundle = accumulate_arrays(points, n_hat, offsets, weights, point_cov, normal_covs)
        x_std = np.linalg.solve(bundle.hessian + 1e-9 * np.eye(6), bundle.rhs)
        x_prob = solve_update(bundle, Probabilistic()).twist
        abs_std += np.abs(sample.null_basis @ x_std)
        abs_prob += np.abs(sample.null_basis @ x_prob)

    return SpuriousInfoReport(
        hessian_mean_rel_error=rel_err,
        noise_hessian=h_noise,
        standard_null_mean_abs=abs_std / m_solves,
        probabilistic_null_mean_abs=abs_prob / m_solves,
    )
