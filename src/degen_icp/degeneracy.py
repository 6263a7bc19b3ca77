"""Noise propagation into the point-to-plane Hessian and per-direction
degeneracy probabilities.

The 6x6 Gauss-Newton Hessian of a point-to-plane problem is a sum of outer
products of per-feature vectors v = w * [p x n; n]. Gaussian noise on the
points and normals makes each v noisy. This module tracks, per feature, the
first-order covariance of v; in aggregate, the expected inflation of the
Hessian; and, for any unit direction u, the mean and variance of the noise in
the quadratic form u^T H u. The degeneracy probability of a direction is the
probability that its measured signal exceeds a target multiple of that noise.

All statistics are evaluated at the measured (noisy) points and normals,
which is what a real pipeline has available.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import EmptyFeatureSet, NotUnitLength
from .geometry import skew

__all__ = [
    "HessianBundle",
    "DirectionReport",
    "accumulate_arrays",
    "direction_stats",
    "gaussian_cdf",
    "degeneracy_probability",
    "analyze",
]

Array = NDArray[np.float64]

_UNIT_TOL = 1e-9


@dataclass(frozen=True)
class HessianBundle:
    """Accumulated system: Hessian, right-hand side, and noise terms.

    vectors stacks the per-feature v's (N, 6); covariances stacks the
    per-feature noise covariances (N, 6, 6). The directional noise variance
    is quartic in the direction, yet it reduces to a fixed-size summary: it
    equals (u kron u)^T Q (u kron u) with
    Q = sum_i 2 vec(S_i) vec(S_i)^T + 4 vec(S_i) vec(v_i v_i^T)^T, which is
    21x21 once packed by symmetry. The per-feature form is kept for now, at
    O(N) memory.
    """

    hessian: Array      # (6, 6)
    rhs: Array          # (6,)
    sigma_total: Array  # (6, 6)
    vectors: Array      # (N, 6)
    covariances: Array  # (N, 6, 6)

    @property
    def size(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True)
class DirectionReport:
    """Signal/noise assessment of one direction of the perturbation space."""

    direction: Array
    signal: float
    noise_mean: float
    noise_std: float
    probability: float


def accumulate_arrays(points, normals, offsets, weights, point_covs, normal_covs) -> HessianBundle:
    """Accumulate point-to-plane features, given in the sensor frame, into
    Hessian, right-hand side and noise terms.

    points/normals are (N, 3); offsets/weights are (N,); the covariances are
    (N, 3, 3) or a single (3, 3) broadcast to all features. point_covs is
    the covariance of additive point noise. normal_covs is the covariance of
    the small-rotation perturbation eta in the normal model
    n_hat = n + cross(n, eta); only its component tangent to the normal
    influences any result. Each feature's noise covariance is
    B blockdiag(point_cov, normal_cov) B^T, with B the Jacobian of v with
    respect to [eps; eta] at zero noise:

        B = w * [[-skew(n), skew(p) @ skew(n)],
                 [       0,           skew(n)]]
    """
    p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = np.asarray(normals, dtype=np.float64).reshape(-1, 3)
    count = p.shape[0]
    if count == 0:
        raise EmptyFeatureSet("no features to accumulate")
    d = np.broadcast_to(np.asarray(offsets, dtype=np.float64), (count,))
    w = np.broadcast_to(np.asarray(weights, dtype=np.float64), (count,))
    cp = np.broadcast_to(np.asarray(point_covs, dtype=np.float64), (count, 3, 3))
    cn = np.broadcast_to(np.asarray(normal_covs, dtype=np.float64), (count, 3, 3))

    vectors = w[:, None] * np.concatenate([np.cross(p, n), n], axis=1)
    residuals = -w * (np.einsum("ni,ni->n", n, p) - d)
    hessian = vectors.T @ vectors
    hessian = 0.5 * (hessian + hessian.T)
    rhs = vectors.T @ residuals

    a = skew(n)                 # normal skews
    k = skew(p) @ a             # skew(p) @ skew(n)
    a_cn = a @ cn
    top_left = a @ cp @ np.swapaxes(a, 1, 2) + k @ cn @ np.swapaxes(k, 1, 2)
    top_right = k @ cn @ np.swapaxes(a, 1, 2)
    bottom_right = a_cn @ np.swapaxes(a, 1, 2)

    covariances = np.zeros((count, 6, 6))
    covariances[:, :3, :3] = top_left
    covariances[:, :3, 3:] = top_right
    covariances[:, 3:, :3] = np.swapaxes(top_right, 1, 2)
    covariances[:, 3:, 3:] = bottom_right
    covariances *= (w**2)[:, None, None]
    covariances = 0.5 * (covariances + np.swapaxes(covariances, 1, 2))

    sigma_total = covariances.sum(axis=0)
    return HessianBundle(hessian, rhs, 0.5 * (sigma_total + sigma_total.T), vectors, covariances)


def _direction_moments(bundle: HessianBundle, dirs: Array) -> tuple[Array, Array]:
    """Mean and variance of the Hessian noise in each direction column u of
    dirs (6, D).

    The mean is u^T Sigma u over the total noise covariance; the variance
    sums, per feature, 2*(u^T S_i u)^2 + 4*(u^T S_i u)*(u^T v_i)^2.
    """
    mu = np.einsum("ij,ik,jk->k", bundle.sigma_total, dirs, dirs)
    np.clip(mu, 0.0, None, out=mu)
    t = np.einsum("nij,ik,jk->nk", bundle.covariances, dirs, dirs)
    np.clip(t, 0.0, None, out=t)
    dv = bundle.vectors @ dirs
    return mu, np.sum(2.0 * t * t + 4.0 * t * dv * dv, axis=0)


def direction_stats(bundle: HessianBundle, u) -> tuple[float, float]:
    """Mean and variance of the Hessian noise in unit direction u."""
    u = np.asarray(u, dtype=np.float64).reshape(6)
    if not np.isfinite(u).all() or abs(float(np.linalg.norm(u)) - 1.0) > _UNIT_TOL:
        raise NotUnitLength("direction must be a finite unit 6-vector")
    mu, sigma2 = _direction_moments(bundle, u[:, None])
    return float(mu[0]), float(sigma2[0])


def gaussian_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function.

    Accurate to double precision (far below the contractual 1e-7 bound on
    [-8, 8]); the result is clamped to [0, 1].
    """
    p = 0.5 * math.erfc(-float(x) / math.sqrt(2.0))
    return min(max(p, 0.0), 1.0)


def degeneracy_probability(signal: float, mu: float, sigma: float, s: float) -> float:
    """Probability that the signal exceeds s times the directional noise.

    With noise ~ N(mu, sigma^2) this is Phi((signal/(s+1) - mu) / sigma).
    At sigma == 0 the limit is taken: 1 for positive signal, else 0.
    """
    if sigma > 0.0:
        return gaussian_cdf((signal / (s + 1.0) - mu) / sigma)
    return 1.0 if signal > 0.0 else 0.0


def _eigh_descending(h: Array) -> tuple[Array, Array]:
    """Symmetric eigendecomposition, eigenvalues descending, each eigenvector
    signed so its largest-magnitude component is positive."""
    vals, vecs = np.linalg.eigh(h)
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    lead = np.take_along_axis(vecs, np.argmax(np.abs(vecs), axis=0)[None, :], axis=0)[0]
    vecs = vecs * np.where(lead < 0.0, -1.0, 1.0)
    return vals, vecs


def _direction_reports(bundle: HessianBundle, vals: Array, vecs: Array, s: float) -> list[DirectionReport]:
    """Reports for an orthonormal basis given as columns of vecs."""
    mu, sigma2 = _direction_moments(bundle, vecs)
    signal = np.clip(vals, 0.0, None)

    reports = []
    for k in range(vecs.shape[1]):
        sigma = float(np.sqrt(sigma2[k]))
        prob = degeneracy_probability(float(signal[k]), float(mu[k]), sigma, s)
        reports.append(
            DirectionReport(
                direction=vecs[:, k].copy(),
                signal=float(signal[k]),
                noise_mean=float(mu[k]),
                noise_std=sigma,
                probability=prob,
            )
        )
    return reports


def analyze(bundle: HessianBundle, s: float = 10.0) -> list[DirectionReport]:
    """Per-eigenvector degeneracy reports of the accumulated Hessian.

    Eigenvalues are sorted descending; each eigenvector's report carries the
    eigenvalue as its signal. Cost is O(N) per direction.
    """
    if bundle.size == 0:
        raise EmptyFeatureSet("cannot analyze an empty bundle")
    if bundle.size < 6:
        warnings.warn("fewer than 6 features: the Hessian is rank deficient", RuntimeWarning)
    vals, vecs = _eigh_descending(bundle.hessian)
    return _direction_reports(bundle, vals, vecs, s)
