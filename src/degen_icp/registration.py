"""Point-to-plane ICP with pluggable update rules.

The update step solves the linearized point-to-plane system in the sensor
frame as U diag(gamma_k / lambda_k) U^T g, and each update rule only picks
the attenuation gamma: ones for the standard Gauss-Newton solve, the
probability that each direction carries real signal, or a 0/1 indicator from
an eigenvalue threshold or a condition-number cutoff. Solution remapping
(projecting the full solution onto the retained eigenvectors) is the
eigenvalue-threshold rule, since for a linear step U diag(m) U^T H^-1 g =
U diag(m / lambda) U^T g.

The kd-tree class is the module attribute cKDTree, read when a run builds its
tree: scipy.spatial is imported at that first read (module __getattr__), not
with the package, since it costs most of the package's import time and memory
and only registration and detection build a tree. A caller may replace the
attribute, e.g. with a subclass that times construction and queries.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from typing import Union

import numpy as np
from numpy.typing import NDArray

from .degeneracy import (
    DirectionReport,
    HessianBundle,
    _direction_reports,
    _eigh_descending,
    accumulate_arrays,
)
from .errors import EmptyFeatureSet, NoCorrespondences, NoiseOverflow, SingularHessian, TooFewPoints
from .geometry import Pose, compose, exp_se3, frame_change_matrix
from .normals import _KEPT, fit_planes

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
_SIGMA_R = 0.015  # residual standard deviation (m) that scales every information matrix


def __getattr__(name: str):
    if name == "cKDTree":
        from scipy.spatial import cKDTree

        globals()["cKDTree"] = cKDTree
        return cKDTree
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    inverse-covariance estimate (1/_SIGMA_R^2) U diag(p*lambda) U^T in the
    frame the bundle was built in, with _SIGMA_R = 0.015 m.
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
    k_neighbors: int = 5
    max_iterations: int = 30
    max_correspondence_distance: float = 1.0


def _worker_count() -> int:
    """Threads for kd-tree queries and Monte Carlo chunks: the cores this
    process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not available on every platform
        return os.cpu_count() or 1


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


def solve_update(bundle: HessianBundle, method: SolverMethod) -> UpdateSolution:
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
        if not method.lambda_min >= 0.0:
            raise ValueError(f"lambda_min must be >= 0, got {method.lambda_min}")
        gamma = (vals > method.lambda_min).astype(np.float64)
    elif isinstance(method, ConditionNumber):
        if not method.kappa_max >= 1.0:
            raise ValueError(f"kappa_max must be >= 1, got {method.kappa_max}")
        with np.errstate(over="ignore", invalid="ignore"):  # a product of inf (or NaN at a zero) is gated right
            gamma = ((vals > 0.0) & (vals * method.kappa_max >= vals[0])).astype(np.float64)
    else:
        raise TypeError(f"unknown solver method: {method!r}")

    x = _gated_solve(vals, vecs, bundle.rhs, gamma)
    info = (vecs * (gamma * vals)) @ vecs.T / _SIGMA_R**2
    info = 0.5 * (info + info.T)
    return UpdateSolution(x, gamma, tuple(reports), info)


# Outcome of a source row in _Carry.state beside fit_planes' collinear (1),
# outlier (2) and kept (3), in FeatureStats order.
_FAR = 0


class _Carry:
    """The per-run state of registration: the target's kd-tree, the
    neighbour count k = min(k_neighbors, target points), and per source row
    the neighbours (the nearest, then the other k - 1 by target index), world
    position and squared slack (negative: none) of its last query, its
    outcome (far, collinear, outlier or kept), and the world normal and
    normal covariance of its fit if kept."""

    def __init__(self, rows: int, target: Array, k_neighbors: int):
        if rows == 0 or target.shape[0] == 0:
            raise ValueError("source and target clouds must be nonempty")
        if k_neighbors < 3:
            raise TooFewPoints(f"plane fit needs at least 3 points, got k_neighbors={k_neighbors}")
        self.k = min(k_neighbors, target.shape[0])
        if self.k < 3:
            raise NoCorrespondences("target cloud too small for plane fitting")
        self.tree = sys.modules[__name__].cKDTree(target)
        self.idx = np.full((rows, self.k), -1, dtype=np.intp)
        self.origin, self.slack2 = np.zeros((rows, 3)), np.full(rows, -1.0)
        self.state = np.full(rows, _FAR, dtype=np.int8)
        self.normals, self.covs = np.empty((rows, 3)), np.empty((rows, 3, 3))


def extract_features(
    source, target, pose: Pose, config: IcpConfig, *, carry: _Carry | None = None
) -> tuple[HessianBundle, FeatureStats]:
    """Build sensor-frame plane features for one linearization.

    For every source point: transform by the pose, take the k nearest target
    points, fit a plane, anchor its offset at the nearest target point, and
    keep the pair unless the nearest neighbor is too far, the patch is
    collinear, or the normal's worst-case standard deviation exceeds
    sigma_n_max. The surviving planes are pulled back into the sensor frame
    along with their normal noise covariances. The fits do not depend on the
    pose: a normal's sign is fixed by the fit alone, and flipping a normal
    with its offset leaves every accumulated term unchanged. Each kd-tree
    query thread fills its own rows, so no result depends on the thread count.

    icp passes one carry, which holds the target's kd-tree and k and each
    row's neighbours and outcome, from one call to the next; a call without a
    carry builds a fresh one. The rule has no setting. A query asks for
    k + 1 neighbours, at distances d_1 <= ..., keeps the nearest first and
    sorts the other k - 1 by target index, so a fit depends only on the
    neighbour set. It gives the row a slack of min((d_2 - d_1) / 2,
    (d_{k+1} - d_k) / 2, |d_1 - max_correspondence_distance|) less
    1e-9 (1 + d_last), without the d_k term when the target has only k
    points. By the triangle inequality a row that has moved less than its
    slack keeps its nearest neighbour, its neighbour set and its gate
    decision, so only the other rows are queried: a tie at the nearest
    point or at the k-th/(k+1)-th leaves no slack, a tie inside the set
    does. A queried row beyond the gate becomes far, and a near one is fitted
    again if its neighbour set changed or it was far; the stats count these
    outcomes. Outputs are bit for bit a fresh call's, and a k-neighbour
    query's but where the kd-tree breaks a k-th/(k+1)-th tie.
    """
    src = np.asarray(source, dtype=np.float64).reshape(-1, 3)
    tgt = np.asarray(target, dtype=np.float64).reshape(-1, 3)
    if carry is None:
        carry = _Carry(src.shape[0], tgt, config.k_neighbors)
    k = carry.k

    p_world = pose.apply(src)
    moved = p_world - carry.origin
    redo = np.flatnonzero(~(np.einsum("ni,ni->n", moved, moved) < carry.slack2))
    at = p_world[redo]
    dist, idx = carry.tree.query(at, k=min(k + 1, tgt.shape[0]), workers=_worker_count())
    if not np.isfinite(dist).all():
        raise NoiseOverflow("neighbour distances overflow the float range; scale coordinates down")
    idx[:, 1:k].sort(axis=1)  # the nearest, then the rest of the set by index
    # Column by column: numpy reduces slowly along a short last axis.
    old = carry.idx[redo]
    changed = np.logical_or.reduce([idx[:, j] != old[:, j] for j in range(k)])
    near = dist[:, 0] <= config.max_correspondence_distance
    refit = redo[near & (changed | (carry.state[redo] == _FAR))]
    carry.state[redo[~near]] = _FAR
    carry.idx[redo], carry.origin[redo] = idx[:, :k], at
    gap = dist[:, 1] - dist[:, 0]
    if dist.shape[1] > k:
        gap = np.minimum(gap, dist[:, k] - dist[:, k - 1])
    gate = np.abs(dist[:, 0] - config.max_correspondence_distance)
    slack = np.minimum(0.5 * gap, gate) - 1e-9 * (1.0 + dist[:, -1])
    carry.slack2[redo] = np.where(slack > 0.0, slack**2, -1.0)
    del moved, redo, at, dist, idx, old, changed, near, gap, gate, slack  # the first fit of a run sets the peak memory

    fits = fit_planes(tgt[carry.idx[refit]], config.sigma_i, config.sigma_n_max)
    carry.state[refit] = fits.outcome
    kept = refit[fits.outcome == _KEPT]
    carry.normals[kept], carry.covs[kept] = fits.normals, fits.covs

    far, collinear, outlier, used = map(int, np.bincount(carry.state, minlength=4))
    if used == 0:
        raise NoCorrespondences(f"no usable features of {src.shape[0]}: {far} beyond the distance limit, "
                                f"{collinear} collinear, {outlier} outliers")
    rows = np.flatnonzero(carry.state == _KEPT)
    n_w, rot_cov_w = carry.normals[rows], carry.covs[rows]

    anchors = tgt[carry.idx[rows, 0]]
    d_w = np.einsum("mi,mi->m", n_w, anchors)
    residuals = np.einsum("mi,mi->m", n_w, p_world[rows]) - d_w

    weights = _residual_weights(residuals, config.sigma_p)

    # Pull planes and noise models back into the sensor frame.
    n_l = n_w @ pose.rotation
    d_l = d_w - n_w @ pose.translation
    p_l = src[rows]

    rot_cov_l = pose.rotation.T @ rot_cov_w @ pose.rotation
    point_cov = config.sigma_p**2 * np.eye(3)

    bundle = accumulate_arrays(p_l, n_l, d_l, weights, point_cov, rot_cov_l)
    stats = FeatureStats(
        candidates=src.shape[0],
        used=used,
        rejected_distance=far,
        rejected_collinear=collinear,
        rejected_outlier=outlier,
        residual_rms=float(np.sqrt(np.mean(residuals**2))),
    )
    return bundle, stats


def icp(source, target, init: Pose | None = None, config: IcpConfig | None = None) -> RegistrationResult:
    """Register a source cloud onto a target cloud.

    Each iteration linearizes in the current sensor frame, solves with the
    configured method and composes the local update on the right of the pose.
    One carry holds the target's kd-tree for the run, and lets source points
    whose nearest neighbour, neighbour set and distance gate cannot have
    changed keep them, and their plane fits, from the previous iteration
    (extract_features; no setting).
    Iteration stops when both twist norms, rotation (rad) and translation
    (m), fall below 1e-4 or the iteration limit is reached. The final information matrix is conjugated to
    the world frame. NoCorrespondences in the first iteration is raised; in a
    later one it ends the run, unconverged, with termination
    "no-correspondences" and the iterations so far.
    """
    cfg = config if config is not None else IcpConfig()
    pose = init if init is not None else Pose.identity()
    src = np.asarray(source, dtype=np.float64).reshape(-1, 3)
    tgt = np.asarray(target, dtype=np.float64).reshape(-1, 3)
    carry = _Carry(src.shape[0], tgt, cfg.k_neighbors)

    iterations: list[IterationRecord] = []
    info_local = np.zeros((6, 6))
    termination = "max-iterations"
    for _ in range(cfg.max_iterations):
        try:
            bundle, stats = extract_features(src, tgt, pose, cfg, carry=carry)
        except NoCorrespondences:
            if not iterations:
                raise
            termination = "no-correspondences"
            break
        sol = solve_update(bundle, cfg.method)
        pose = compose(pose, exp_se3(sol.twist))
        step_rot = float(np.linalg.norm(sol.twist[:3]))
        step_trans = float(np.linalg.norm(sol.twist[3:]))
        iterations.append(IterationRecord(sol, stats, step_rot, step_trans))
        info_local = sol.information
        if step_rot < 1e-4 and step_trans < 1e-4:
            termination = "converged"
            break

    m = frame_change_matrix(pose)
    info_world = m @ info_local @ m.T
    return RegistrationResult(
        pose=pose,
        information=0.5 * (info_world + info_world.T),
        iterations=iterations,
        termination=termination,
    )
