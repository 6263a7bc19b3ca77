"""Degeneracy-aware point-to-plane registration.

Detects directions of the 6-DoF perturbation space where geometry carries no
usable signal relative to sensor noise, and attenuates ICP updates there.
"""

from .degeneracy import (
    DirectionReport,
    HessianBundle,
    accumulate_arrays,
    analyze,
    degeneracy_probability,
    direction_stats,
    gaussian_cdf,
)
from .errors import (
    ConfigError,
    DegenIcpError,
    EmptyFeatureSet,
    InvalidDimensions,
    NoCorrespondences,
    NotUnitLength,
    RequiresDegenerateScene,
    SingularHessian,
    TooFewPoints,
)
from .geometry import (
    Pose,
    compose,
    exp_se3,
    exp_so3,
    frame_change_matrix,
    inverse,
    skew,
)
from .normals import fit_planes, normal_covariances
from .registration import (
    ConditionNumber,
    EigenTruncate,
    IcpConfig,
    Probabilistic,
    RegistrationResult,
    SolutionRemap,
    SolverMethod,
    Standard,
    UpdateSolution,
    attenuated_update,
    extract_features,
    icp,
    solve_update,
)
from .simulation import (
    NoiseSpec,
    SceneKind,
    SceneSample,
    SceneSpec,
    SpuriousInfoReport,
    generate_scene,
    mc_direction_stats,
    noisy_feature_arrays,
    spurious_info_demo,
    tangent_covariances,
)

__version__ = "0.1.0"
