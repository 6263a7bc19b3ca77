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
else os.cpu_count), the rule registration's kd-tree queries use too, and
their results are merged in chunk order, so the result is bit for bit the
same for any worker count. Each chunk's stream gives all of its point noise
first, then its tangent coefficients one row block at a time; the blocks
continue the stream, so the values do not depend on the block size. Both
oracles reduce the per-trial Hessians one engine, _mc_chunks, yields per block.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Mapping

import numpy as np
from numpy.typing import NDArray

from .degeneracy import accumulate_arrays
from .errors import InvalidDimensions, RequiresDegenerateScene
from .registration import Probabilistic, _worker_count, attenuated_update, solve_update

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
# trials share a seed stream. Each worker holds one chunk's point noise,
# (rows, N, 3) values or about 8.4 MB: the stream gives it before any
# tangent coefficient, so no block of coefficients is reached without it.
_CHUNK_ELEMENTS = 2**21
# Element budget per row block of a chunk: bounds each (rows, 6, N) array built
# from the draws to about 1 MB, one block's tangent coefficients to about
# 0.35 MB, and the constants tiled to a block's rows to about 2 MB, so a
# worker holds one chunk's point noise and one block.
# mc_direction_stats results do not depend on it (each trial's Hessian and its
# projection are products of that trial's values alone); spurious_info_demo,
# which sums the Hessians one block at a time, does.
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
        # The direction variance sums 2 t_i^2 + 4 t_i (u^T v_i)^2 over the
        # features, quartic in coordinates, which reach 1.25 times the largest
        # dimension: it stays finite while point_count (2 v)^4 does.
        limit = (np.finfo(np.float64).max / max(self.point_count, 1)) ** 0.25 / 2.0
        for name, v in defaults.items():
            if not 0.0 < v <= limit:
                raise InvalidDimensions(
                    f"dimensions must be positive and at most {limit:.4g} at {self.point_count} points, "
                    f"got {name}={v!r}"
                )
        return defaults


@dataclass(frozen=True)
class SceneSample:
    """Sampled surface points with exact tangent planes, sensor at the origin.

    null_basis rows are unit 6-vectors ([rot; trans], sensor frame) spanning
    the null space of the noise-free Hessian.
    """

    points: Array      # (N, 3)
    normals: Array     # (N, 3)
    offsets: Array     # (N,)
    null_basis: Array  # (K, 6)

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


def _rect(axis: int, coord: float, extents: tuple[float, float], normal: Array):
    """(area, sampler(rng, m)) of an axis-aligned rectangle: axis pinned at
    coord, the other two axes uniform in +-extents/2, facing normal."""
    others = [i for i in range(3) if i != axis]

    def sample(r, m):
        pts = np.empty((m, 3))
        pts[:, axis] = coord
        pts[:, others[0]] = r.uniform(-extents[0] / 2.0, extents[0] / 2.0, m)
        pts[:, others[1]] = r.uniform(-extents[1] / 2.0, extents[1] / 2.0, m)
        return pts, np.broadcast_to(normal, (m, 3)).copy(), np.full(m, float(normal[axis]) * coord)

    return extents[0] * extents[1], sample


def generate_scene(spec: SceneSpec) -> SceneSample:
    """Sample points uniformly (by area) on the named surfaces: one
    multinomial draw splits point_count over them, then each draws in turn.

    Deterministic for a given spec. Raises InvalidDimensions for nonpositive
    or non-finite dimensions or point_count < 6.
    """
    if spec.point_count < 6:
        raise InvalidDimensions(f"point_count must be >= 6, got {spec.point_count}")
    kind = SceneKind(spec.kind)
    dims = spec.resolved_dimensions()
    rng = np.random.default_rng(spec.seed)

    ey, ez = np.eye(3)[1:]
    if kind is SceneKind.INFINITE_PLANE:
        size, drop = dims["size"], dims["drop"]
        surfaces = [_rect(2, -drop, (size, size), ez)]
        null = [2, 3, 4]
    elif kind is SceneKind.CORRIDOR:
        length, width, height = dims["length"], dims["width"], dims["height"]
        surfaces = [_rect(1, sign * width / 2.0, (length, height), -sign * ey) for sign in (1, -1)]
        surfaces.append(_rect(2, -height / 2.0, (length, width), ez))
        null = [3]
    elif kind in (SceneKind.CYLINDER, SceneKind.CYLINDER_WITH_FLOOR):
        radius, height = dims["radius"], dims["height"]

        def wall(r, m):
            theta = r.uniform(0.0, 2.0 * np.pi, m)
            z = r.uniform(-height / 2.0, height / 2.0, m)
            pts = np.column_stack([radius * np.cos(theta), radius * np.sin(theta), z])
            nrm = -np.column_stack([np.cos(theta), np.sin(theta), np.zeros(m)])
            return pts, nrm, np.full(m, -radius)

        surfaces = [(2.0 * np.pi * radius * height, wall)]
        null = [2, 5]
        if kind is SceneKind.CYLINDER_WITH_FLOOR:

            def floor(r, m):
                rho = radius * np.sqrt(r.uniform(0.0, 1.0, m))
                theta = r.uniform(0.0, 2.0 * np.pi, m)
                pts = np.column_stack([rho * np.cos(theta), rho * np.sin(theta), np.full(m, -height / 2.0)])
                return pts, np.broadcast_to(ez, (m, 3)).copy(), np.full(m, -height / 2.0)

            surfaces.append((np.pi * radius**2, floor))
            null = [2]
    else:  # room: per axis, the wall at +size/2 facing in, then the one at -size/2
        sizes = (dims["width"], dims["depth"], dims["height"])
        surfaces = [
            _rect(axis, sign * sizes[axis] / 2.0, sizes[:axis] + sizes[axis + 1 :], -sign * np.eye(3)[axis])
            for axis in range(3) for sign in (1, -1)
        ]
        null = []

    areas = np.array([a for a, _ in surfaces])
    counts = rng.multinomial(spec.point_count, areas / areas.sum())
    parts = [sampler(rng, int(m)) for (_, sampler), m in zip(surfaces, counts) if m]
    points, normals, offsets = (np.concatenate(col) for col in zip(*parts))
    return SceneSample(points, normals, offsets, np.eye(6)[null])


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


def _rows(elements: int, n_features: int) -> int:
    """Trials whose vectors, rows * 6 * N values, fit in `elements`."""
    return max(1, elements // max(n_features * 6, 1))


def _chunk_draws(
    rng, n_features: int, rows: int, block: int, sigma_p: float, sigma_n: float
) -> Iterator[tuple[Array, Array]]:
    """One chunk's noise as (eps, coeffs) blocks of `block` rows (fewer in
    the last), shapes (b, N, 3) and (b, N, 2). The point noise (rows, N, 3)
    is drawn whole first, then each block's tangent coefficients as it is
    yielded; numpy fills draws in stream order, so the blocks hold the values
    of one (rows, N, 2) draw after the point noise."""
    eps = rng.standard_normal((rows, n_features, 3))
    eps *= sigma_p
    for a in range(0, rows, block):
        coeffs = rng.standard_normal((min(block, rows - a), n_features, 2))
        coeffs *= sigma_n
        yield eps[a : a + block], coeffs


def _vector_constants(points, normals, weights, rows: int) -> Array:
    """Constants of _noisy_vectors for up to `rows` trials, shape
    (4, 3, rows * N): p, w n, w t2 and w cross(n, t2), component-major and
    repeated once per trial, with t2 from _tangent_basis (normals as given)."""
    w = weights[:, None]
    t2 = _tangent_basis(normals)[1]
    per_trial = np.stack([points, w * normals, w * t2, w * np.cross(normals, t2)]).transpose(0, 2, 1)
    return np.tile(per_trial, rows)


def _noisy_vectors(consts, eps, coeffs) -> Array:
    """Noisy feature vectors w [p_hat x n_hat; n_hat], shape (rows, 6, N), for
    draws from _chunk_draws and constants from _vector_constants: p_hat =
    p + eps, and the small-angle normal model n + cross(n, c1 t1 + c2 t2) of
    the closed-form statistics, written as n + c1 t2 + c2 cross(n, t2).

    The weight rides in the normal model's constants, so at unit weights the
    values are those of the unfolded arithmetic. Every pass runs over a flat
    rows * N buffer; the result is a (rows, 6, N) view of a (6, rows, N) array.
    """
    rows, n_feat = eps.shape[:2]
    p0, wn, wt2, wnt2 = consts[..., : rows * n_feat]
    c1, c2 = np.ascontiguousarray(coeffs.reshape(-1, 2).T)
    p = np.add(p0, eps.reshape(-1, 3).T)
    v = np.empty((6, rows * n_feat))
    n = v[3:]
    tmp = np.empty(rows * n_feat)
    for i in range(3):
        np.multiply(c1, wt2[i], out=n[i])
        n[i] += wn[i]
        np.multiply(c2, wnt2[i], out=tmp)
        n[i] += tmp
    for k, (a, b) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.multiply(p[a], n[b], out=v[k])
        np.multiply(p[b], n[a], out=tmp)
        v[k] -= tmp
    return v.reshape(6, rows, n_feat).transpose(1, 0, 2)


def _trial_hessians(v) -> Array:
    """Each trial's sum over features of v v^T, for vectors v of shape
    (rows, 6, N), flattened to (rows, 36).

    Two (3, N) @ (N, 6) products per trial: numpy hands v @ v^T to BLAS syrk
    and a triangle copy, which took twice as long with OpenBLAS at N = 100.
    """
    h = np.empty((v.shape[0], 6, 6))
    np.matmul(v[:, :3], v.transpose(0, 2, 1), out=h[:, :3])
    np.matmul(v[:, 3:], v.transpose(0, 2, 1), out=h[:, 3:])
    return h.reshape(-1, 36)


def _mc_chunks(reduce, points, normals, weights, sigma_p, sigma_n, trials: int, seed) -> Iterator:
    """reduce(blocks) for each chunk of `trials` noise draws on the features,
    in chunk order; blocks yields the chunk's per-trial Hessians (b, 36),
    _trial_hessians(_noisy_vectors(...)), one row block at a time.

    Chunk i draws from the i-th child of the SeedSequence seed, and all chunks
    but the last have _rows(_CHUNK_ELEMENTS, N) rows, so the results do not
    depend on the worker count. Chunks run on a pool of _worker_count()
    threads; each task builds its own generator, and an exception in a task
    is raised from the iterator at that chunk.
    """
    n_feat = points.shape[0]
    rows = _rows(_CHUNK_ELEMENTS, n_feat)
    block = _rows(_BLOCK_ELEMENTS, n_feat)
    consts = _vector_constants(points, normals, weights, block)
    sizes = [min(rows, trials - start) for start in range(0, trials, rows)]

    def task(child, m):
        draws = _chunk_draws(np.random.default_rng(child), n_feat, m, block, sigma_p, sigma_n)
        return reduce(_trial_hessians(_noisy_vectors(consts, eps, coeffs)) for eps, coeffs in draws)

    with ThreadPoolExecutor(_worker_count()) as pool:
        yield from pool.map(task, seed.spawn(len(sizes)), sizes)


def mc_direction_stats(
    points, normals, weights, noise: NoiseSpec, directions, trials: int
) -> tuple[Array, Array]:
    """Brute-force oracle: sample mean and unbiased sample variance of
    u^T H_hat u for each unit direction column u of directions (6, D), over
    independent noise draws on noise-free features.

    points/normals are (N, 3) and weights (N,). All directions share the
    same draws. Normals are perturbed with the additive small-angle form,
    the model behind the closed-form statistics; the sampled vectors keep
    the full nonlinear product of noisy point and noisy normal. Chunks are
    evaluated in row blocks: each trial's noisy Hessian H_hat = sum v v^T,
    minus the noise-free one (the same code at zero draws), is read in every
    direction at once through the 36 products u_i u_j, so zero noise gives a
    variance of exactly 0. Each trial's value is its own matrix products, so
    no block size changes a bit. Chunk statistics are merged with Welford's
    update in chunk order.
    """
    if trials < 2:
        raise ValueError("trials must be >= 2")
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    normals = np.asarray(normals, dtype=np.float64).reshape(-1, 3)
    n_feat = points.shape[0]
    weights = np.broadcast_to(np.asarray(weights, dtype=np.float64), (n_feat,))
    dirs = np.asarray(directions, dtype=np.float64).reshape(6, -1)
    uu = np.einsum("id,jd->ijd", dirs, dirs).reshape(36, -1)
    zeros = np.zeros((1, n_feat, 3))
    h0 = _trial_hessians(_noisy_vectors(_vector_constants(points, normals, weights, 1), zeros, zeros[..., :2]))

    def chunk_stats(blocks):
        # One (1, 36) @ (36, D) product per trial: a 2-D GEMM over a block
        # may round the block's tail rows differently.
        vals = np.concatenate([(h - h0)[:, None] @ uu for h in blocks])[:, 0]
        c_mean = vals.mean(axis=0)
        return len(vals), c_mean, np.sum((vals - c_mean) ** 2, axis=0)

    count, mean, m2 = 0, 0.0, 0.0
    chunks = _mc_chunks(
        chunk_stats, points, normals, weights, noise.sigma_p, noise.sigma_n, trials, np.random.SeedSequence(noise.seed)
    )
    for m, c_mean, c_m2 in chunks:
        delta = c_mean - mean
        total = count + m
        mean = mean + delta * (m / total)
        m2 = m2 + c_m2 + delta**2 * (count * m / total)
        count = total
    return (h0 @ uu)[0] + mean, m2 / (count - 1)


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
    H_N = sigma_n^2 * sum_i F_i (I - n n^T) F_i^T, F_i = [skew(p_i); I], that is
    sigma_n^2 * sum_i sum_t [p_i x t; t] [p_i x t; t]^T over the tangent basis t.
    The demo checks that identity by Monte Carlo over `trials` draws, then
    compares, over min(trials, solve_trials) noisy_feature_arrays draws, the
    mean absolute null-direction component of the standard solve (the gated
    solve with unit attenuation) against the probabilistic solve at its default s.
    """
    if trials < 1 or solve_trials < 1:
        raise ValueError("trials and solve_trials must be >= 1")
    if sample.null_basis.shape[0] == 0:
        raise RequiresDegenerateScene("the scene has no degenerate direction")
    points, normals, offsets = sample.points, sample.normals, sample.offsets
    n_feat = points.shape[0]
    weights = np.ones(n_feat)
    hessian = accumulate_arrays(points, normals, offsets, weights, np.zeros((3, 3)), np.zeros((3, 3))).hessian
    tangents = np.stack(_tangent_basis(normals))  # (2, N, 3)
    f = np.concatenate([np.cross(points, tangents), tangents], axis=-1).reshape(-1, 6)
    h_noise = sigma_n**2 * (f.T @ f)

    ss_mean, ss_solve = np.random.SeedSequence(seed).spawn(2)

    # Expectation identity by Monte Carlo (zero point noise). Each row block
    # is summed on its own: one sum over a chunk's Hessians moved the pinned
    # criterion-2 value by 5e-12 relative.
    def chunk_sum(blocks):
        return sum(h.sum(axis=0) for h in blocks)

    mean_h = sum(_mc_chunks(chunk_sum, points, normals, weights, 0.0, sigma_n, trials, ss_mean)).reshape(6, 6) / trials
    # Gauge the identity error against the predicted inflation; fall back to
    # the Hessian scale when the predicted inflation is zero (zero noise).
    denom = np.linalg.norm(h_noise)
    if denom == 0.0:
        denom = max(np.linalg.norm(hessian), np.finfo(float).tiny)
    rel_err = float(np.linalg.norm(mean_h - (hessian + h_noise)) / denom)

    # Paired solves, each on its own draw seeded from the solve stream.
    m_solves = min(trials, solve_trials)
    k_null = sample.null_basis.shape[0]
    abs_std = np.zeros(k_null)
    abs_prob = np.zeros(k_null)
    for solve_seed in ss_solve.generate_state(m_solves):
        bundle = accumulate_arrays(*noisy_feature_arrays(sample, NoiseSpec(0.0, sigma_n, int(solve_seed))))
        x_std = attenuated_update(bundle.hessian, bundle.rhs, np.ones(6))
        x_prob = solve_update(bundle, Probabilistic()).twist
        abs_std += np.abs(sample.null_basis @ x_std)
        abs_prob += np.abs(sample.null_basis @ x_prob)

    return SpuriousInfoReport(
        hessian_mean_rel_error=rel_err,
        noise_hessian=h_noise,
        standard_null_mean_abs=abs_std / m_solves,
        probabilistic_null_mean_abs=abs_prob / m_solves,
    )
