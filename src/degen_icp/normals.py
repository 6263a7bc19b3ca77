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

# Margin of the screen's lambda2 bounds, as a fraction of the trace. Their
# rounding error measured under 1.2e-8 of it, at a double top pair with lambda3 = 0.
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
    Two bounds on lambda2 from the trace and the principal minors of the six
    unique scatter entries of each row, a (6, M) array, decide it; only the
    rest are assembled into 3x3 matrices and eigendecomposed, each on its
    own, so the fits returned are bit for bit those of the same rows at
    min_lambda2 = 0. batch.rows says which rows they are.
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


def _lambda2_bounds(mom: Array) -> tuple[Array, Array, Array]:
    """The trace t and the bounds lo <= lambda2 <= hi of _screened_out."""
    a00, a11, a22, a01, a02, a12 = mom
    t = a00 + a11 + a22
    with np.errstate(over="ignore", invalid="ignore"):  # 0 / 0 where t == 0, and overflows
        # r = c / t^2 is at most 1/3; dividing before squaring t keeps an overflow in NaN or inf.
        r = ((a00 * a11 - a01**2) + (a00 * a22 - a02**2) + (a11 * a22 - a12**2)) / t / t
    return t, 0.5 * t * r, 2.0 * t * r / (1.0 + np.sqrt(np.maximum(1.0 - 4.0 * r, 0.0)))


def _screened_out(mom: Array, min_lambda2: float) -> NDArray[np.bool_]:
    """Columns of a (6, M) stack of symmetric PSD 3x3 matrices, given by their
    entries a00, a11, a22, a01, a02, a12, whose middle eigenvalue is
    certainly below min_lambda2 and certainly above the collinear bound.

    With the trace t and the sum c = l1 l2 + l1 l3 + l2 l3 of the principal
    2x2 minors: x^2 - t x + c equals l1 l3 >= 0 at x = l2, and l2 <= t / 2,
    so l2 <= hi = 2c / (t + sqrt(t^2 - 4c)), exact when l3 = 0; and
    c <= l2 (2 l1 + l2) <= 2 t l2, so l2 >= lo = c / (2t). Both must clear
    their test by _SCREEN_TOL t. A zero-trace column gives NaN and stays in.
    """
    t, lo, hi = _lambda2_bounds(mom)
    tol = _SCREEN_TOL * t
    return (hi + tol < min_lambda2) & (lo - tol > _COLLINEAR_RATIO * (t + tol))


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
