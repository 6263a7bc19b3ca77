"""Rigid-body math for 6-DoF registration.

Conventions used throughout the package: 6-vectors are ordered
[rotation; translation], 6x6 operators use the matching block layout,
angles are radians and lengths are meters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "Pose",
    "Twist",
    "skew",
    "skew_batch",
    "exp_so3",
    "exp_se3",
    "compose",
    "inverse",
    "frame_change_matrix",
]

Array = NDArray[np.float64]

# Below this angle the Rodrigues coefficients switch to second-order Taylor
# expansions to avoid 0/0.
_SMALL_ANGLE = 1e-9


def _as_vec3(a) -> Array:
    return np.asarray(a, dtype=np.float64).reshape(3)


@dataclass(frozen=True)
class Pose:
    """Rigid transform mapping local coordinates to world coordinates."""

    rotation: Array
    translation: Array

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "rotation", np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        )
        object.__setattr__(self, "translation", _as_vec3(self.translation))

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))

    @staticmethod
    def from_matrix(m) -> "Pose":
        m = np.asarray(m, dtype=np.float64).reshape(4, 4)
        return Pose(m[:3, :3], m[:3, 3])

    def matrix(self) -> Array:
        """Homogeneous 4x4 matrix."""
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def apply(self, points) -> Array:
        """Transform a point (3,) or a batch of points (N, 3)."""
        p = np.asarray(points, dtype=np.float64)
        return p @ self.rotation.T + self.translation


@dataclass(frozen=True)
class Twist:
    """Small rigid perturbation [rot; trans], rotation block first."""

    rot: Array
    trans: Array

    def __post_init__(self) -> None:
        object.__setattr__(self, "rot", _as_vec3(self.rot))
        object.__setattr__(self, "trans", _as_vec3(self.trans))

    @staticmethod
    def zero() -> "Twist":
        return Twist(np.zeros(3), np.zeros(3))

    @staticmethod
    def from_vector(x) -> "Twist":
        v = np.asarray(x, dtype=np.float64).reshape(6)
        return Twist(v[:3], v[3:])

    def vector(self) -> Array:
        return np.concatenate([self.rot, self.trans])


def skew(a) -> Array:
    """Matrix [a]x with skew(a) @ b == cross(a, b)."""
    x, y, z = _as_vec3(a)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def skew_batch(a) -> Array:
    """skew() applied row-wise to an (N, 3) array, returning (N, 3, 3)."""
    a = np.asarray(a, dtype=np.float64)
    out = np.zeros(a.shape[:-1] + (3, 3))
    x, y, z = a[..., 0], a[..., 1], a[..., 2]
    out[..., 0, 1] = -z
    out[..., 0, 2] = y
    out[..., 1, 0] = z
    out[..., 1, 2] = -x
    out[..., 2, 0] = -y
    out[..., 2, 1] = x
    return out


def exp_so3(r) -> Array:
    """Rodrigues rotation matrix for a rotation vector."""
    r = _as_vec3(r)
    theta = float(np.linalg.norm(r))
    k = skew(r)
    if theta < _SMALL_ANGLE:
        return np.eye(3) + k + 0.5 * (k @ k)
    a = np.sin(theta) / theta
    b = (1.0 - np.cos(theta)) / theta**2
    return np.eye(3) + a * k + b * (k @ k)


def exp_se3(x) -> Pose:
    """Group element of a twist (Twist or length-6 array, [rot; trans])."""
    if isinstance(x, Twist):
        rot, trans = x.rot, x.trans
    else:
        v = np.asarray(x, dtype=np.float64).reshape(6)
        rot, trans = v[:3], v[3:]
    theta = float(np.linalg.norm(rot))
    k = skew(rot)
    kk = k @ k
    if theta < _SMALL_ANGLE:
        rotation = np.eye(3) + k + 0.5 * kk
        v_mat = np.eye(3) + 0.5 * k + kk / 6.0
    else:
        a = np.sin(theta) / theta
        b = (1.0 - np.cos(theta)) / theta**2
        c = (theta - np.sin(theta)) / theta**3
        rotation = np.eye(3) + a * k + b * kk
        v_mat = np.eye(3) + b * k + c * kk
    return Pose(rotation, v_mat @ trans)


def compose(a: Pose, b: Pose) -> Pose:
    """Pose of first applying b, then a."""
    return Pose(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


def inverse(a: Pose) -> Pose:
    return Pose(a.rotation.T, -(a.rotation.T @ a.translation))


def frame_change_matrix(pose: Pose) -> Array:
    """6x6 map carrying constraint vectors [p x n; n] from the pose's local
    frame to the world frame.

    Hessians and information matrices built from such vectors transform by
    congruence, M @ H @ M.T. Twists transform with the inverse transpose of
    this matrix; the solver side-steps that by composing local updates on
    the right of the pose.
    """
    m = np.zeros((6, 6))
    m[:3, :3] = pose.rotation
    m[:3, 3:] = skew(pose.translation) @ pose.rotation
    m[3:, 3:] = pose.rotation
    return m
