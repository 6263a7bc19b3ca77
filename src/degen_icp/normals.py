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

__all__ = ["PlaneFits", "fit_planes"]

Array = NDArray[np.float64]

# Outcome of a fitted row in PlaneFits.outcome; code 0 is left to callers.
_COLLINEAR, _OUTLIER, _KEPT = 1, 2, 3

# lambda2 below this fraction of lambda1 marks a collinear neighborhood.
_COLLINEAR_RATIO = 1e-12

# Margin of the screen's lambda2 bounds, as a fraction of the trace. Their
# rounding error measured under 1.2e-8 of it, at a double top pair with lambda3 = 0.
_SCREEN_TOL = 1e-6


@dataclass(frozen=True)
class PlaneFits:
    """Plane fits of an (M, k, 3) neighborhood stack under the variance gate.

    outcome holds one code per row: _COLLINEAR (1), _OUTLIER (2) or _KEPT (3).
    normals and covs hold the K kept rows, in row order: the unit normal, its
    sign whatever the eigensolver returns, and its tangent-space covariance.
    """

    outcome: NDArray[np.int8]  # (M,)
    normals: Array  # (K, 3)
    covs: Array     # (K, 3, 3)


def fit_planes(neighbors, sigma_i: float, sigma_n_max: float) -> PlaneFits:
    """Fit one plane per row of an (M, k, 3) neighborhood stack, k >= 3, with
    the covariance of its normal under isotropic point noise of standard
    deviation sigma_i, and gate it at sigma_n_max.

    A row is collinear when lambda2 <= _COLLINEAR_RATIO lambda1 of its
    scatter c^T c / (k - 1), an outlier when its worst-case normal variance
    s / lambda2, s = sigma_i^2 / k, exceeds sigma_n_max^2, and kept
    otherwise. A kept row's covariance is R diag(s / lambda2, s / lambda1, 0)
    R^T with R its eigenvectors by descending eigenvalue: the covariance of
    the small-rotation perturbation eta in the model n_hat = n + cross(n, eta),
    so it annihilates the normal. Conjugating it by skew(normal) swaps the
    tangent axes and yields the scatter of the normal vector itself.

    Normals are unoriented and their signs are not normalized: no result
    downstream reads them, because flipping a normal with its offset
    negates a feature vector and its residual together, and the covariance
    ignores column signs.

    The screen marks as outliers, undecomposed, the rows whose lambda2 is
    certainly below s / sigma_n_max^2 (0, which leaves out none, when
    sigma_n_max <= 0) and which are certainly not collinear. Two bounds on
    lambda2 from the trace and the principal minors of the six unique
    scatter entries of each row, a (6, M) array, decide it; only the rest
    are assembled into 3x3 matrices and eigendecomposed, each on its own, so
    every outcome and kept fit is bit for bit that of an unscreened call.
    """
    pts = np.asarray(neighbors, dtype=np.float64)
    if pts.ndim != 3 or pts.shape[-1] != 3:
        raise ValueError("neighbors must have shape (M, k, 3)")
    k = pts.shape[1]
    if k < 3:
        raise TooFewPoints(f"plane fit needs at least 3 points, got {k}")
    s = sigma_i**2 / k

    # A running sum over the k slices gives the bits of pts.mean(axis=1) in half its time.
    centered = pts - (sum((pts[:, j] for j in range(1, k)), pts[:, 0]) / k)[:, None, :]
    x, y, z = np.moveaxis(centered, 2, 0)
    # The six unique scatter entries xx, yy, zz, xy, xz, yz as a (6, M) array.
    mom = np.stack([np.einsum("mk,mk->m", a, b) for a, b in ((x, x), (y, y), (z, z), (x, y), (x, z), (y, z))])
    mom /= k - 1

    rows = np.flatnonzero(~_screened_out(mom, s / sigma_n_max**2 if sigma_n_max > 0.0 else 0.0))
    mom = mom[:, rows]

    evals, evecs = np.linalg.eigh(mom[[0, 3, 4, 3, 1, 5, 4, 5, 2]].T.reshape(-1, 3, 3))  # ascending
    lam = np.clip(evals[:, ::-1], 0.0, None)  # descending
    collinear = lam[:, 1] <= _COLLINEAR_RATIO * lam[:, 0]
    # The worst-case variance s / lambda2, inf where lambda2 is not positive.
    worst = np.divide(s, lam[:, 1], out=np.full(lam.shape[0], np.inf), where=lam[:, 1] > 0.0)
    keep = ~collinear & ~(worst > sigma_n_max**2)

    outcome = np.full(pts.shape[0], _OUTLIER, dtype=np.int8)
    outcome[rows[collinear]] = _COLLINEAR
    outcome[rows[keep]] = _KEPT
    rot = evecs[:, :, ::-1][keep]
    var = np.column_stack([worst[keep], s / lam[keep, 0], np.zeros(rot.shape[0])])
    return PlaneFits(outcome, rot[:, :, 2], (rot * var[:, None, :]) @ np.swapaxes(rot, 1, 2))


def _lambda2_bounds(mom: Array) -> tuple[Array, Array, Array]:
    """The trace t and the bounds lo <= lambda2 <= hi of _screened_out."""
    a00, a11, a22, a01, a02, a12 = mom
    t = a00 + a11 + a22
    with np.errstate(over="ignore", invalid="ignore"):  # 0 / 0 where t == 0, and overflows
        # r = c / t^2 is at most 1/3; dividing before squaring t keeps an overflow in NaN or inf.
        r = ((a00 * a11 - a01**2) + (a00 * a22 - a02**2) + (a11 * a22 - a12**2)) / t / t
    return t, 0.5 * t * r, 2.0 * t * r / (1.0 + np.sqrt(np.maximum(1.0 - 4.0 * r, 0.0)))


def _screened_out(mom: Array, floor: float) -> NDArray[np.bool_]:
    """Columns of a (6, M) stack of symmetric PSD 3x3 matrices, given by their
    entries a00, a11, a22, a01, a02, a12, whose middle eigenvalue is
    certainly below floor and certainly above the collinear bound.

    With the trace t and the sum c = l1 l2 + l1 l3 + l2 l3 of the principal
    2x2 minors: x^2 - t x + c equals l1 l3 >= 0 at x = l2, and l2 <= t / 2,
    so l2 <= hi = 2c / (t + sqrt(t^2 - 4c)), exact when l3 = 0; and
    c <= l2 (2 l1 + l2) <= 2 t l2, so l2 >= lo = c / (2t). Both must clear
    their test by _SCREEN_TOL t. A zero-trace column gives NaN and stays in.
    """
    t, lo, hi = _lambda2_bounds(mom)
    tol = _SCREEN_TOL * t
    return (hi + tol < floor) & (lo - tol > _COLLINEAR_RATIO * (t + tol))
