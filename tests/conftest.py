"""Shared helpers for the test suite."""

import numpy as np

from degen_icp import NoCorrespondences, Pose, exp_so3, skew


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1.0
    return q


def random_pose(rng, rot_scale=0.5, trans_scale=1.0):
    return Pose(exp_so3(rot_scale * rng.standard_normal(3)), trans_scale * rng.standard_normal(3))


def rotation_angle(rotation):
    """Geodesic angle of a rotation matrix, radians."""
    return float(np.arccos(np.clip((np.trace(rotation) - 1.0) / 2.0, -1.0, 1.0)))


def random_unit(rng, dim):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_feature_arrays(rng, count, scale=2.0, sigma_p=0.01, sigma_n=0.01, on_plane=True):
    """Random feature arrays for accumulate_arrays, with matching covariances.

    Normal covariances are the tangent-plane restriction of sigma_n^2 * I.
    """
    points = rng.uniform(-scale, scale, (count, 3))
    normals = rng.standard_normal((count, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    offsets = np.einsum("ni,ni->n", normals, points)
    if not on_plane:
        offsets = offsets + rng.normal(0.0, 0.05, count)
    weights = rng.uniform(0.5, 2.0, count)
    point_cov = sigma_p**2 * np.eye(3)
    normal_covs = sigma_n**2 * (np.eye(3) - np.einsum("ni,nj->nij", normals, normals))
    return points, normals, offsets, weights, point_cov, normal_covs


# Slow per-feature reference for accumulate_arrays: one constraint vector,
# noise Jacobian and noise covariance at a time, written directly from the
# model instead of the batched block formulas.


def feature_vector(p, n, w):
    """Constraint vector v = w * [p x n; n]."""
    p, n = np.asarray(p, dtype=float), np.asarray(n, dtype=float)
    return w * np.concatenate([np.cross(p, n), n])


def noise_jacobian(p, n, w):
    """Jacobian of v with respect to stacked point and normal noise
    [eps; eta] at zero noise, for the normal model n + cross(n, eta)."""
    sn, sp = skew(np.asarray(n, dtype=float)), skew(np.asarray(p, dtype=float))
    b = np.zeros((6, 6))
    b[:3, :3] = -sn
    b[:3, 3:] = sp @ sn
    b[3:, 3:] = sn
    return w * b


def feature_covariance(p, n, w, point_cov, normal_cov):
    """First-order noise covariance B blockdiag(point_cov, normal_cov) B^T."""
    b = noise_jacobian(p, n, w)
    block = np.zeros((6, 6))
    block[:3, :3] = point_cov
    block[3:, 3:] = normal_cov
    sigma = b @ block @ b.T
    return 0.5 * (sigma + sigma.T)


def fail_after_first_call(extract_features):
    """extract_features that raises NoCorrespondences from its second call on."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(None)
        if len(calls) > 1:
            raise NoCorrespondences("injected after the first linearization")
        return extract_features(*args, **kwargs)

    return wrapped


def sequential_mc_direction_stats(points, normals, weights, noise, directions, trials):
    """Reference for mc_direction_stats: its chunks one after another in this
    thread, each evaluated whole, with Welford's update in chunk order.

    Uses the same chunk row count, seed spawning, draw order and arithmetic,
    so the two agree bit for bit.
    """
    from degen_icp.simulation import _chunk_rows, _tangent_basis

    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    normals = np.asarray(normals, dtype=np.float64).reshape(-1, 3)
    n_feat = points.shape[0]
    weights = np.broadcast_to(np.asarray(weights, dtype=np.float64), (n_feat,))
    dirs = np.asarray(directions, dtype=np.float64).reshape(6, -1)
    t1, t2 = _tangent_basis(normals)
    rows = _chunk_rows(n_feat)
    count = 0
    mean = np.zeros(dirs.shape[1])
    m2 = np.zeros(dirs.shape[1])
    for child in np.random.SeedSequence(noise.seed).spawn((trials + rows - 1) // rows):
        m = min(rows, trials - count)
        rng = np.random.default_rng(child)
        eps = noise.sigma_p * rng.standard_normal((m, n_feat, 3))
        coeffs = noise.sigma_n * rng.standard_normal((m, n_feat, 2))
        eta = coeffs[..., 0:1] * t1 + coeffs[..., 1:2] * t2
        p_hat = points + eps
        n_hat = normals + np.cross(normals, eta)
        v = weights[:, None] * np.concatenate([np.cross(p_hat, n_hat), n_hat], axis=-1)
        proj = v @ dirs
        vals = np.sum(proj * proj, axis=1)
        c_mean = vals.mean(axis=0)
        c_m2 = np.sum((vals - c_mean) ** 2, axis=0)
        delta = c_mean - mean
        total = count + m
        mean = mean + delta * (m / total)
        m2 = m2 + c_m2 + delta**2 * (count * m / total)
        count = total
    return mean, m2 / (count - 1)
