"""Point-to-plane ICP with pluggable update rules.

The update step solves the linearized point-to-plane system in the sensor
frame as U diag(gamma_k / lambda_k) U^T g, and each update rule only picks
the attenuation gamma: ones for the standard Gauss-Newton solve, the
probability that each direction carries real signal, or a 0/1 indicator from
an eigenvalue threshold or a condition-number cutoff. Solution remapping
(projecting the full solution onto the retained eigenvectors) is the
eigenvalue-threshold rule, since for a linear step U diag(m) U^T H^-1 g =
U diag(m / lambda) U^T g.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np
from numpy.typing import NDArray
from scipy.spatial import cKDTree

from .degeneracy import (
    DirectionReport,
    HessianBundle,
    _direction_reports,
    _eigh_descending,
    accumulate_arrays,
)
from .errors import EmptyFeatureSet, NoCorrespondences, SingularHessian
from .geometry import Pose, compose, exp_se3, frame_change_matrix
from .normals import fit_planes, normal_covariances

__all__ = [
    "Standard",
    "Probabilistic",
    "EigenTruncate",
    "ConditionNumber",
    "SolverMethod",
    "UpdateSolution",
    "FeatureStats",
    "IterationRecord",
    "RegistrationResult",
    "IcpConfig",
    "attenuated_update",
    "solve_update",
    "extract_features",
    "icp",
]

Array = NDArray[np.float64]

# Eigenvalues at or below this are treated as numerically zero.
_SINGULAR_EIG = 1e-12


@dataclass(frozen=True)
class Standard:
    """Plain Gauss-Newton solve; requires a nonsingular Hessian."""


@dataclass(frozen=True)
class Probabilistic:
    """Attenuate each eigencomponent by its non-degeneracy probability."""

    s: float = 10.0


@dataclass(frozen=True)
class EigenTruncate:
    """Invert only eigenvalues above lambda_min (truncated pseudo-inverse)."""

    lambda_min: float


@dataclass(frozen=True)
class ConditionNumber:
    """Drop eigencomponents whose condition number exceeds kappa_max."""

    kappa_max: float


SolverMethod = Union[Standard, Probabilistic, EigenTruncate, ConditionNumber]


@dataclass(frozen=True)
class UpdateSolution:
    """One solved update: twist, applied attenuation, diagnostics, information.

    probabilities holds the attenuation actually applied per eigencomponent
    (probabilities for the probabilistic method, 0/1 indicators for the
    threshold methods, ones for the standard solve). information is the
    inverse-covariance estimate (1/sigma_r^2) U diag(p*lambda) U^T in the
    frame the bundle was built in.
    """

    twist: Array  # (6,) [rot; trans]
    probabilities: Array
    reports: tuple[DirectionReport, ...]
    information: Array


@dataclass(frozen=True)
class FeatureStats:
    """Correspondence bookkeeping for one linearization."""

    candidates: int
    used: int
    rejected_distance: int
    rejected_collinear: int
    rejected_outlier: int
    residual_rms: float


@dataclass(frozen=True)
class IterationRecord:
    update: UpdateSolution
    stats: FeatureStats
    step_rot: float
    step_trans: float


@dataclass(frozen=True)
class RegistrationResult:
    """Final pose with its world-frame information matrix and per-iteration
    update summaries (iteration information matrices stay in the local frame
    of their linearization)."""

    pose: Pose
    information: Array
    iterations: list[IterationRecord]
    converged: bool
    termination: str


@dataclass(frozen=True)
class IcpConfig:
    """Controls for correspondence search, noise models and the solver.

    Residuals are weighted by a Geman-McClure kernel of scale 3*sigma_p, or
    not at all when sigma_p is zero.
    """

    method: SolverMethod = field(default_factory=Probabilistic)
    sigma_p: float = 0.01
    sigma_i: float = 0.01
    sigma_n_max: float = 0.10
    sigma_r: float = 0.015
    k_neighbors: int = 5
    max_iterations: int = 30
    translation_tol: float = 1e-4
    rotation_tol: float = 1e-4
    max_correspondence_distance: float = 1.0


def _residual_weights(residuals: Array, sigma_p: float) -> Array:
    """Geman-McClure weights 1 / (1 + (r / (3 sigma_p))^2) of point-to-plane
    residuals r; ones when sigma_p is zero."""
    if sigma_p == 0.0:
        return np.ones_like(residuals)
    return 1.0 / (1.0 + (residuals / (3.0 * sigma_p)) ** 2)


def _gated_solve(vals: Array, vecs: Array, rhs: Array, gamma: Array) -> Array:
    """U diag(gamma_k / lambda_k) U^T rhs, zeroing numerically-zero eigenvalues."""
    safe = vals > _SINGULAR_EIG
    coef = np.where(safe & (gamma > 0.0), gamma / np.where(safe, vals, 1.0), 0.0)
    return vecs @ (coef * (vecs.T @ rhs))


def attenuated_update(hessian, rhs, probabilities) -> Array:
    """Update U diag(p_k / lambda_k) U^T rhs for an attenuation vector
    aligned with the descending eigenvalues of the Hessian."""
    h = np.asarray(hessian, dtype=np.float64).reshape(6, 6)
    g = np.asarray(rhs, dtype=np.float64).reshape(6)
    p = np.asarray(probabilities, dtype=np.float64).reshape(6)
    vals, vecs = _eigh_descending(h)
    return _gated_solve(vals, vecs, g, p)


def solve_update(bundle: HessianBundle, method: SolverMethod, sigma_r: float = 1.0) -> UpdateSolution:
    """Solve one update from an accumulated bundle with the chosen method.

    Degeneracy reports are always computed (they are O(N) diagnostics); the
    probabilistic method uses its own s, the others report at the default
    Probabilistic.s.
    """
    if bundle.size == 0:
        raise EmptyFeatureSet("cannot solve an empty bundle")
    vals, vecs = _eigh_descending(bundle.hessian)
    snr = method.s if isinstance(method, Probabilistic) else Probabilistic.s
    reports = _direction_reports(bundle, vals, vecs, snr)

    if isinstance(method, Standard):
        if vals[-1] <= _SINGULAR_EIG:
            raise SingularHessian(f"smallest eigenvalue {vals[-1]:.3e} <= {_SINGULAR_EIG:.0e}")
        gamma = np.ones(6)
    elif isinstance(method, Probabilistic):
        gamma = np.array([r.probability for r in reports])
    elif isinstance(method, EigenTruncate):
        gamma = (vals > method.lambda_min).astype(np.float64)
    elif isinstance(method, ConditionNumber):
        gamma = ((vals > 0.0) & (vals * method.kappa_max >= vals[0])).astype(np.float64)
    else:
        raise TypeError(f"unknown solver method: {method!r}")

    x = _gated_solve(vals, vecs, bundle.rhs, gamma)
    info = (vecs * (gamma * vals)) @ vecs.T / sigma_r**2
    info = 0.5 * (info + info.T)
    return UpdateSolution(x, gamma, tuple(reports), info)


def extract_features(
    source,
    target,
    pose: Pose,
    config: IcpConfig,
    tree: cKDTree | None = None,
) -> tuple[HessianBundle, FeatureStats]:
    """Build sensor-frame plane features for one linearization.

    For every source point: transform by the pose, take the k nearest target
    points, fit a plane, anchor its offset at the nearest target point, and
    keep the pair unless the nearest neighbor is too far, the patch is
    collinear, or the normal's worst-case standard deviation exceeds
    sigma_n_max. The surviving planes are pulled back into the sensor frame
    along with their normal noise covariances. The fits do not depend on the
    pose: a normal's sign is fixed by the fit alone, and flipping a normal
    with its offset leaves every accumulated term unchanged.
    """
    src = np.asarray(source, dtype=np.float64).reshape(-1, 3)
    tgt = np.asarray(target, dtype=np.float64).reshape(-1, 3)
    if src.shape[0] == 0 or tgt.shape[0] == 0:
        raise ValueError("source and target clouds must be nonempty")
    k = min(config.k_neighbors, tgt.shape[0])
    if k < 3:
        raise NoCorrespondences("target cloud too small for plane fitting")
    if tree is None:
        tree = cKDTree(tgt)

    p_world = pose.apply(src)
    dist, idx = tree.query(p_world, k=k)
    near = dist[:, 0] <= config.max_correspondence_distance
    candidates = src.shape[0]
    rejected_distance = int(np.sum(~near))
    if not np.any(near):
        raise NoCorrespondences("all correspondences beyond the distance limit")

    sel_idx = idx[near]
    batch = fit_planes(tgt[sel_idx])
    keep, rot_cov_w = normal_covariances(batch, config.sigma_i, k, config.sigma_n_max)
    rejected_collinear = int(np.sum(batch.collinear))
    rejected_outlier = int(np.sum(~batch.collinear & ~keep))
    if not np.any(keep):
        raise NoCorrespondences("no usable features after filtering")

    n_w = batch.normals[keep]
    anchors = tgt[sel_idx[keep, 0]]
    d_w = np.einsum("mi,mi->m", n_w, anchors)
    residuals = np.einsum("mi,mi->m", n_w, p_world[near][keep]) - d_w

    weights = _residual_weights(residuals, config.sigma_p)

    # Pull planes and noise models back into the sensor frame.
    n_l = n_w @ pose.rotation
    d_l = d_w - n_w @ pose.translation
    p_l = src[near][keep]

    rot_cov_l = np.einsum("ji,mjk,kl->mil", pose.rotation, rot_cov_w, pose.rotation)
    point_cov = config.sigma_p**2 * np.eye(3)

    bundle = accumulate_arrays(p_l, n_l, d_l, weights, point_cov, rot_cov_l)
    stats = FeatureStats(
        candidates=candidates,
        used=int(np.sum(keep)),
        rejected_distance=rejected_distance,
        rejected_collinear=rejected_collinear,
        rejected_outlier=rejected_outlier,
        residual_rms=float(np.sqrt(np.mean(residuals**2))),
    )
    return bundle, stats


def icp(source, target, init: Pose | None = None, config: IcpConfig | None = None) -> RegistrationResult:
    """Register a source cloud onto a target cloud.

    Each iteration linearizes in the current sensor frame, solves with the
    configured method and composes the local update on the right of the pose.
    Iteration stops when both twist norms fall below their tolerances or the
    iteration limit is reached. The final information matrix is conjugated to
    the world frame. NoCorrespondences in the first iteration is raised; in a
    later one it ends the run, unconverged, with termination
    "no-correspondences" and the iterations so far.
    """
    cfg = config if config is not None else IcpConfig()
    pose = init if init is not None else Pose.identity()
    tgt = np.asarray(target, dtype=np.float64).reshape(-1, 3)
    tree = cKDTree(tgt)

    iterations: list[IterationRecord] = []
    info_local = np.zeros((6, 6))
    converged = False
    termination = "max-iterations"
    for _ in range(cfg.max_iterations):
        try:
            bundle, stats = extract_features(source, tgt, pose, cfg, tree=tree)
        except NoCorrespondences:
            if not iterations:
                raise
            termination = "no-correspondences"
            break
        sol = solve_update(bundle, cfg.method, sigma_r=cfg.sigma_r)
        pose = compose(pose, exp_se3(sol.twist))
        step_rot = float(np.linalg.norm(sol.twist[:3]))
        step_trans = float(np.linalg.norm(sol.twist[3:]))
        iterations.append(IterationRecord(sol, stats, step_rot, step_trans))
        info_local = sol.information
        if step_rot < cfg.rotation_tol and step_trans < cfg.translation_tol:
            converged = True
            termination = "converged"
            break

    m = frame_change_matrix(pose)
    info_world = m @ info_local @ m.T
    return RegistrationResult(
        pose=pose,
        information=0.5 * (info_world + info_world.T),
        iterations=iterations,
        converged=converged,
        termination=termination,
    )
