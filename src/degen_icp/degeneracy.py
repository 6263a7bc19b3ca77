"""Noise propagation into the point-to-plane Hessian and per-direction
degeneracy probabilities.

The 6x6 Gauss-Newton Hessian of a point-to-plane problem is a sum of outer
products of per-feature vectors v = w * [p x n; n]. Gaussian noise on the
points and normals makes each v noisy. This module keeps, per feature, the
Jacobian of v with respect to that noise and the noise covariances; from
them it forms, for any unit direction u, the mean and variance of the noise
in the quadratic form u^T H u. The degeneracy probability of a direction is
the probability that its measured signal exceeds a target multiple of that
noise.

All statistics are evaluated at the measured (noisy) points and normals,
which is what a real pipeline has available.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import EmptyFeatureSet, NoiseOverflow, NotUnitLength
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
    """Accumulated system: Hessian, right-hand side, and the per-feature
    terms of its noise.

    vectors stacks the per-feature v's (N, 6). jacobians stacks w B_eta^T
    (N, 3, 6), the transposed normal block of the Jacobian of v (see
    accumulate_arrays); its last three columns, w a^T, are the point block's
    transpose up to sign. point_covs and normal_covs are the (N, 3, 3)
    covariances as given, possibly broadcast views.
    """

    hessian: Array      # (6, 6)
    rhs: Array          # (6,)
    vectors: Array      # (N, 6)
    jacobians: Array    # (N, 3, 6)
    point_covs: Array   # (N, 3, 3)
    normal_covs: Array  # (N, 3, 3)

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
    Hessian, right-hand side and the Jacobian blocks of their noise.

    points/normals are (N, 3); offsets/weights are (N,); the covariances are
    (N, 3, 3) or a single (3, 3) broadcast to all features. point_covs is
    the covariance of additive point noise. normal_covs is the covariance of
    the small-rotation perturbation eta in the normal model
    n_hat = n + cross(n, eta); only its component tangent to the normal
    influences any result. The Jacobian of v with respect to [eps; eta] at
    zero noise, written as its two column blocks with a = skew(n), is

        B = w * [B_eps | B_eta],  B_eps = [-a; 0],  B_eta = [skew(p) @ a; a]

    so each feature's noise covariance, never formed, is
    w^2 (B_eta normal_cov B_eta^T), plus w^2 a point_cov a^T in the top-left
    3x3 block. The bundle keeps w B_eta^T, which holds both blocks. A Hessian
    or right-hand side that is not finite raises NoiseOverflow.
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
    with np.errstate(over="ignore", invalid="ignore"):
        hessian = vectors.T @ vectors  # one symmetric product, exactly symmetric
        rhs = vectors.T @ residuals
    if not (np.isfinite(hessian).all() and np.isfinite(rhs).all()):
        raise NoiseOverflow(f"the Hessian of the features or its right-hand side overflows the float range: "
                            f"largest entries {np.abs(hessian).max():.3g} and {np.abs(rhs).max():.3g}; "
                            "scale coordinates down")

    wa_t = skew(-w[:, None] * n)  # w a^T
    jacobians = np.concatenate([wa_t @ skew(-p), wa_t], axis=2)  # w B_eta^T = w [a^T skew(p)^T | a^T]
    return HessianBundle(hessian, rhs, vectors, jacobians, cp, cn)


def _direction_moments(bundle: HessianBundle, dirs: Array) -> tuple[Array, Array]:
    """Mean and variance of the Hessian noise in each direction column u of
    dirs (6, D).

    Per feature, u^T S_i u = t = q^T C_n q + r^T C_p r with q = J u and
    r = J[:, 3:] u[:3], J = w B_eta^T. The mean sums t over the features and
    the variance sums 2 t^2 + 4 t (u^T v_i)^2. Either one not finite raises
    NoiseOverflow.
    """
    jac, shape = bundle.jacobians.reshape(-1, 6), (-1, 3, dirs.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        q = (jac @ dirs).reshape(shape)  # (N, 3, D)
        r = (jac[:, 3:] @ dirs[:3]).reshape(shape)
        t = np.einsum("nid,nid->nd", q, bundle.normal_covs @ q)
        t += np.einsum("nid,nid->nd", r, bundle.point_covs @ r)
        np.clip(t, 0.0, None, out=t)
        dv = bundle.vectors @ dirs
        mu = t.sum(axis=0)
        var = np.sum(2.0 * t * t + 4.0 * t * dv * dv, axis=0)
    if not (np.isfinite(mu).all() and np.isfinite(var).all()):
        raise NoiseOverflow(f"the noise statistics of a direction overflow the float range: mean "
                            f"{mu.max():.3g}, variance {var.max():.3g}; scale coordinates or noise down")
    return mu, var


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
    [-8, 8]); erfc lies in [0, 2], so the result lies in [0, 1].
    """
    return 0.5 * math.erfc(-float(x) / math.sqrt(2.0))


def degeneracy_probability(signal: float, mu: float, sigma: float, s: float) -> float:
    """Probability that the signal exceeds s times the directional noise.

    With noise ~ N(mu, sigma^2) this is Phi((signal/(s+1) - mu) / sigma).
    At sigma == 0 the limit is taken: 1 for positive signal, else 0.
    """
    if not s >= 0.0:
        raise ValueError(f"s must be nonnegative, got {s}")
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


def analyze(bundle: HessianBundle, s: float) -> list[DirectionReport]:
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
