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

# Margin of the closed-form eigenvalue screen, as a fraction of the sum of the
# absolute eigenvalues. The trigonometric formula is least accurate near a
# double eigenvalue, where its error measured under 5e-9 of that sum.
_SCREEN_TOL = 1e-6


@dataclass(frozen=True)
class PlaneFitBatch:
    """Vectorized fits for many neighborhoods; bad rows are flagged, not raised.

    rotations holds each fit's eigenvectors as columns, in the order of the
    descending eigenvalues; normals is the last column. Column signs are
    whatever the eigensolver returns. rows holds the index, in the fitted
    neighborhood stack, of each of the M fits: the rows fit_planes'
    min_lambda2 screen kept, all of the stack at min_lambda2 = 0.
    """

    normals: Array      # (M, 3)
    eigenvalues: Array  # (M, 3) descending
    rotations: Array    # (M, 3, 3)
    collinear: Array    # (M,) bool
    rows: NDArray[np.intp]  # (M,)


def fit_planes(neighbors, min_lambda2: float = 0.0) -> PlaneFitBatch:
    """Fit one plane per row of an (M, k, 3) neighborhood stack, k >= 3.

    Normals are unoriented and their signs are not normalized: no result
    downstream reads them, because flipping a normal with its offset
    negates a feature vector and its residual together, and the normal
    covariance R diag(var) R^T ignores column signs.

    The screen leaves out the rows whose middle eigenvalue is certainly
    below min_lambda2 and which are certainly not collinear; at
    min_lambda2 = sigma_i^2 / k / sigma_n_max^2 these are rows that
    normal_covariances would reject as outliers, and at 0 there are none.
    Closed-form eigenvalues from the six unique scatter entries of each row,
    a (6, M) array, screen the rows; only the rest are assembled into 3x3
    matrices and eigendecomposed. The screen is exact: a row is left out
    only when both tests clear their bounds by the margin _SCREEN_TOL, far
    above the error of either eigenvalue computation, and eigh decomposes
    each matrix on its own, so the fits returned are bit for bit those of
    the same rows at min_lambda2 = 0. batch.rows says which rows they are.
    """
    pts = np.asarray(neighbors, dtype=np.float64)
    if pts.ndim != 3 or pts.shape[-1] != 3:
        raise ValueError("neighbors must have shape (M, k, 3)")
    k = pts.shape[1]
    if k < 3:
        raise TooFewPoints(f"plane fit needs at least 3 points, got {k}")

    # A running sum over the k slices gives the bits of pts.mean(axis=1) in half its time.
    centered = pts - (sum((pts[:, j] for j in range(1, k)), pts[:, 0]) / k)[:, None, :]
    x, y, z = np.moveaxis(centered, 2, 0)
    # The six unique scatter entries xx, yy, zz, xy, xz, yz as a (6, M) array.
    mom = np.stack([np.einsum("mk,mk->m", a, b) for a, b in ((x, x), (y, y), (z, z), (x, y), (x, z), (y, z))])
    mom /= k - 1

    rows = np.flatnonzero(~_screened_out(mom, min_lambda2))
    mom = mom[:, rows]

    covs = mom[[0, 3, 4, 3, 1, 5, 4, 5, 2]].T.reshape(-1, 3, 3)
    evals, evecs = np.linalg.eigh(covs)           # ascending
    evals = np.clip(evals[:, ::-1], 0.0, None)    # descending
    evecs = evecs[:, :, ::-1]

    collinear = evals[:, 1] <= _COLLINEAR_RATIO * evals[:, 0]
    return PlaneFitBatch(evecs[:, :, 2], evals, evecs, collinear, rows)


def _screened_out(mom: Array, min_lambda2: float) -> NDArray[np.bool_]:
    """Columns of a (6, M) stack of symmetric 3x3 matrices, given by their
    entries a00, a11, a22, a01, a02, a12, whose middle eigenvalue is
    certainly below min_lambda2 and certainly above the collinear bound.

    The eigenvalues come from the trigonometric solution of the
    characteristic cubic: with q = tr(A) / 3, p^2 = |A - qI|_F^2 / 6 and
    r = det((A - qI) / p) / 2, they are q + 2p cos(acos(r) / 3 + 2 pi j / 3).
    A column with p == 0 (a multiple of I, zero scatter included) gives NaN
    and is never screened out.
    """
    a00, a11, a22, a01, a02, a12 = mom
    q = (a00 + a11 + a22) / 3.0
    d00, d11, d22 = a00 - q, a11 - q, a22 - q
    p = np.sqrt((d00**2 + d11**2 + d22**2 + 2.0 * (a01**2 + a02**2 + a12**2)) / 6.0)
    with np.errstate(invalid="ignore"):  # 0 / 0 where p == 0
        b00, b11, b22, b01, b02, b12 = (v / p for v in (d00, d11, d22, a01, a02, a12))
    r = (b00 * (b11 * b22 - b12**2) - b01 * (b01 * b22 - b12 * b02) + b02 * (b01 * b12 - b11 * b02)) / 2.0
    phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3.0
    l1 = q + 2.0 * p * np.cos(phi)
    l3 = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    l2 = 3.0 * q - l1 - l3
    tol = _SCREEN_TOL * (np.abs(l1) + np.abs(l2) + np.abs(l3))
    return (l2 + tol < min_lambda2) & (l2 - tol > _COLLINEAR_RATIO * (l1 + tol))


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
    return keep, (rotations * var[keep][:, None, :]) @ np.swapaxes(rotations, 1, 2)
