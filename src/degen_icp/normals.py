"""Plane fitting over point neighborhoods with normal uncertainty.

The tangent-plane covariance of a fitted normal is a cheap byproduct of the
eigendecomposition used for the fit. It drives outlier rejection and supplies
the per-feature normal noise model of the degeneracy analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import TooFewPoints

__all__ = ["PlaneFitBatch", "fit_planes", "normal_covariances"]

Array = NDArray[np.float64]

# lambda2 below this fraction of lambda1 marks a collinear neighborhood.
_COLLINEAR_RATIO = 1e-12


@dataclass(frozen=True)
class PlaneFitBatch:
    """Vectorized fits for many neighborhoods; bad rows are flagged, not raised."""

    normals: Array      # (M, 3)
    centroids: Array    # (M, 3)
    eigenvalues: Array  # (M, 3) descending
    rotations: Array    # (M, 3, 3)
    collinear: Array    # (M,) bool


def _fix_leading_signs(vecs: Array) -> Array:
    """Flip eigenvector columns so the first nonzero entry is positive."""
    comps = np.moveaxis(vecs, -2, -1)  # (..., col, entry)
    nonzero = comps != 0.0
    first = np.argmax(nonzero, axis=-1)
    lead = np.take_along_axis(comps, first[..., None], axis=-1)[..., 0]
    sign = np.where(lead < 0.0, -1.0, 1.0)
    return vecs * sign[..., None, :]


def fit_planes(neighbors) -> PlaneFitBatch:
    """Fit one plane per row of an (M, k, 3) neighborhood stack, k >= 3.

    Normals are unoriented: the sign convention makes the first nonzero
    component positive, and no result downstream depends on it.
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

    # Right-handed frames: flip v2 where needed.
    dets = np.linalg.det(evecs)
    evecs[dets < 0.0, :, 1] *= -1.0
    normals = evecs[:, :, 2].copy()

    collinear = evals[:, 1] <= _COLLINEAR_RATIO * evals[:, 0]
    return PlaneFitBatch(normals, centroids, evals, evecs, collinear)


def normal_covariances(
    batch: PlaneFitBatch, sigma_i: float, n_points: int, sigma_n_max: float
) -> tuple[Array, Array]:
    """Tangent-space covariances of fitted unit normals, for isotropic point
    noise of standard deviation sigma_i over n_points neighbors each, and the
    outlier test on them.

    A covariance is R diag(s / lambda2, s / lambda1, 0) R^T with
    s = sigma_i^2 / n_points and R the fit's rotation: the covariance of the
    small-rotation perturbation eta in the model n_hat = n + cross(n, eta),
    so it annihilates the normal. Conjugating it by skew(normal) swaps the
    tangent axes and yields the scatter of the normal vector itself.

    Returns (keep, covs). keep (M,) marks the rows that are not collinear and
    whose worst-case variance s / lambda2 is at most sigma_n_max^2 (a zero
    lambda2 makes it inf). covs (K, 3, 3) holds the covariances of those K
    rows, in order; rejected rows are skipped, not computed.
    """
    lam = batch.eigenvalues
    s = sigma_i**2 / n_points
    var = np.full(lam.shape, np.inf)
    var[:, 2] = 0.0
    np.divide(s, lam[:, 1], out=var[:, 0], where=lam[:, 1] > 0.0)
    np.divide(s, lam[:, 0], out=var[:, 1], where=lam[:, 0] > 0.0)
    keep = ~batch.collinear & ~(var[:, 0] > sigma_n_max**2)
    rotations = batch.rotations[keep]
    return keep, np.einsum("mij,mj,mkj->mik", rotations, var[keep], rotations)
