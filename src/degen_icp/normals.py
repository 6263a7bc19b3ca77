"""Plane fitting over point neighborhoods with normal uncertainty.

The tangent-plane covariance of a fitted normal is a cheap byproduct of the
eigendecomposition used for the fit. It drives outlier rejection and supplies
the per-feature normal noise model of the degeneracy analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DegenerateNeighborhood, TooFewPoints

__all__ = [
    "PlaneFit",
    "PlaneFitBatch",
    "NormalCovariance",
    "fit_plane",
    "fit_planes",
    "normal_covariance",
    "normal_covariances",
    "normal_vector_cov",
    "is_outlier",
]

Array = NDArray[np.float64]

# lambda2 below this fraction of lambda1 marks a collinear neighborhood.
_COLLINEAR_RATIO = 1e-12


@dataclass(frozen=True)
class PlaneFit:
    """Least-squares plane through a neighborhood.

    eigenvalues are those of the 1/(N-1) empirical covariance, sorted
    descending; rotation has columns [v1, v2, normal] and det +1.
    """

    normal: Array
    centroid: Array
    eigenvalues: Array
    rotation: Array


@dataclass(frozen=True)
class PlaneFitBatch:
    """Vectorized fits for many neighborhoods; bad rows are flagged, not raised."""

    normals: Array      # (M, 3)
    centroids: Array    # (M, 3)
    eigenvalues: Array  # (M, 3) descending
    rotations: Array    # (M, 3, 3)
    collinear: Array    # (M,) bool


@dataclass(frozen=True)
class NormalCovariance:
    """Tangent-space covariance of a fitted unit normal (cov @ normal = 0).

    cov is the covariance of the small-rotation perturbation eta in the model
    n_hat = n + cross(n, eta); conjugating it by skew(normal) swaps the
    tangent axes and yields the scatter of the normal vector itself. Use cov
    directly as the normal noise covariance of a plane feature.
    """

    cov: Array
    worst_case_std: float


def _fix_leading_signs(vecs: Array) -> Array:
    """Flip eigenvector columns so the first nonzero entry is positive."""
    comps = np.moveaxis(vecs, -2, -1)  # (..., col, entry)
    nonzero = comps != 0.0
    first = np.argmax(nonzero, axis=-1)
    lead = np.take_along_axis(comps, first[..., None], axis=-1)[..., 0]
    sign = np.where(lead < 0.0, -1.0, 1.0)
    return vecs * sign[..., None, :]


def fit_planes(neighbors, viewpoints=None) -> PlaneFitBatch:
    """Fit one plane per row of an (M, k, 3) neighborhood stack, k >= 3.

    Normals point toward the matching viewpoint when given, otherwise the
    first nonzero component is made positive.
    """
    pts = np.asarray(neighbors, dtype=np.float64)
    if pts.ndim != 3 or pts.shape[-1] != 3:
        raise ValueError("neighbors must have shape (M, k, 3)")
    k = pts.shape[1]
    if k < 3:
        raise TooFewPoints(f"plane fit needs at least 3 points, got {k}")

    centroids = pts.mean(axis=1)
    centered = pts - centroids[:, None, :]
    covs = np.einsum("mki,mkj->mij", centered, centered) / (k - 1)

    evals, evecs = np.linalg.eigh(covs)           # ascending
    evals = np.clip(evals[:, ::-1], 0.0, None)    # descending
    evecs = evecs[:, :, ::-1]
    evecs = _fix_leading_signs(evecs)

    normals = evecs[:, :, 2].copy()
    if viewpoints is not None:
        toward = np.asarray(viewpoints, dtype=np.float64) - centroids
        flip = np.einsum("mi,mi->m", normals, toward) < 0.0
        normals[flip] *= -1.0
        evecs[flip, :, 2] *= -1.0

    # Right-handed frames: flip v2 where needed.
    dets = np.linalg.det(evecs)
    evecs[dets < 0.0, :, 1] *= -1.0

    collinear = evals[:, 1] <= _COLLINEAR_RATIO * evals[:, 0]
    return PlaneFitBatch(normals, centroids, evals, evecs, collinear)


def fit_plane(neighbors, viewpoint=None) -> PlaneFit:
    """Fit a plane to one neighborhood of at least 3 points.

    Raises TooFewPoints below 3 points and DegenerateNeighborhood when the
    points are collinear.
    """
    pts = np.asarray(neighbors, dtype=np.float64).reshape(-1, 3)
    if pts.shape[0] < 3:
        raise TooFewPoints(f"plane fit needs at least 3 points, got {pts.shape[0]}")
    vp = None if viewpoint is None else np.asarray(viewpoint, dtype=np.float64).reshape(1, 3)
    batch = fit_planes(pts[None, :, :], vp)
    if bool(batch.collinear[0]):
        raise DegenerateNeighborhood("neighborhood points are collinear")

    evals = batch.eigenvalues[0]
    rot = batch.rotations[0].copy()
    # Equal leading eigenvalues: order the in-plane pair lexicographically so
    # symmetric fixtures decompose reproducibly.
    if evals[0] == evals[1]:
        v1, v2 = rot[:, 0], rot[:, 1]
        if tuple(v2) > tuple(v1):
            rot = rot.copy()
            rot[:, 0], rot[:, 1] = v2.copy(), v1.copy()
        if np.linalg.det(rot) < 0.0:
            rot[:, 1] *= -1.0
    return PlaneFit(batch.normals[0], batch.centroids[0], evals, rot)


def _tangent_variances(eigenvalues, sigma_i: float, n_points: int) -> Array:
    """Variances sigma_i^2 / (n_points * lambda) of a fitted normal's small
    rotation about its long and short in-plane axes.

    Rows of the (..., 3) result are [s / lambda2, s / lambda1, 0] with
    s = sigma_i^2 / n_points; an entry is inf where its eigenvalue is zero.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    s = sigma_i**2 / n_points
    var = np.full(lam.shape, np.inf)
    var[..., 2] = 0.0
    np.divide(s, lam[..., 1], out=var[..., 0], where=lam[..., 1] > 0.0)
    np.divide(s, lam[..., 0], out=var[..., 1], where=lam[..., 0] > 0.0)
    return var


def _rotation_covariances(rotations: Array, variances: Array) -> Array:
    """R diag(var) R^T for stacks of (M, 3, 3) frames and (M, 3) variances."""
    return np.einsum("mij,mj,mkj->mik", rotations, variances, rotations)


def _fit_variances(fit: PlaneFit, sigma_i: float, n_points: int, what: str) -> Array:
    if n_points < 3:
        raise TooFewPoints(f"{what} needs n_points >= 3, got {n_points}")
    if sigma_i < 0.0:
        raise ValueError("sigma_i must be nonnegative")
    if float(fit.eigenvalues[1]) <= 0.0:
        raise DegenerateNeighborhood(f"lambda2 is zero; {what} undefined")
    return _tangent_variances(fit.eigenvalues, sigma_i, n_points)


def normal_covariance(fit: PlaneFit, sigma_i: float, n_points: int) -> NormalCovariance:
    """Tangent-space covariance of the fitted normal for isotropic point
    noise of standard deviation sigma_i over n_points samples."""
    var = _fit_variances(fit, sigma_i, n_points, "normal covariance")
    cov = _rotation_covariances(fit.rotation[None], var[None])[0]
    return NormalCovariance(0.5 * (cov + cov.T), float(np.sqrt(var[0])))


def normal_covariances(
    batch: PlaneFitBatch, sigma_i: float, n_points: int, sigma_n_max: float
) -> tuple[Array, Array]:
    """normal_covariance and is_outlier for a batch of fits over n_points
    neighbors each.

    Returns (keep, covs). keep (M,) marks the rows that are not collinear and
    whose worst-case variance sigma_i^2 / (n_points * lambda2) is at most
    sigma_n_max^2. covs (K, 3, 3) holds the rotation covariances of those K
    rows, in order; rejected rows are skipped, not computed.
    """
    var = _tangent_variances(batch.eigenvalues, sigma_i, n_points)
    keep = ~batch.collinear & ~(var[:, 0] > sigma_n_max**2)
    return keep, _rotation_covariances(batch.rotations[keep], var[keep])


def normal_vector_cov(fit: PlaneFit, sigma_i: float, n_points: int) -> Array:
    """Covariance of the normal vector deviation n_hat - n itself.

    Equals skew(normal) @ normal_covariance().cov @ skew(normal).T: the same
    tangent eigenvalues as the rotation covariance, with the axes swapped.
    Useful for validating fitted-normal scatter; the feature noise model
    consumes normal_covariance().cov instead.
    """
    var = _fit_variances(fit, sigma_i, n_points, "normal vector covariance")
    cov = _rotation_covariances(fit.rotation[None], var[None, [1, 0, 2]])[0]
    return 0.5 * (cov + cov.T)


def is_outlier(nc: NormalCovariance, sigma_n_max: float) -> bool:
    """True when the worst-case normal variance exceeds sigma_n_max squared."""
    return nc.worst_case_std**2 > sigma_n_max**2
