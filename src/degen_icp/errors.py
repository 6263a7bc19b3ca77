"""Exception types shared across the package."""


class DegenIcpError(Exception):
    """Base class for all library-specific errors."""


class TooFewPoints(DegenIcpError):
    """A plane fit was requested with fewer than three points."""


class EmptyFeatureSet(DegenIcpError):
    """An operation that needs at least one feature received none."""


class NotUnitLength(DegenIcpError):
    """A direction vector was expected to have unit Euclidean norm."""


class SingularHessian(DegenIcpError):
    """The standard solver requires a nonsingular system matrix."""


class NoCorrespondences(DegenIcpError):
    """Correspondence search and filtering left no usable feature."""


class RequiresDegenerateScene(DegenIcpError):
    """The requested diagnostic only makes sense on a degenerate scene."""


class InvalidDimensions(DegenIcpError):
    """Scene dimensions or point counts are out of range."""


class NoiseOverflow(DegenIcpError):
    """The noise statistics of a direction, the Hessian or right-hand side
    of the features, or the distances to neighbours overflow the float range."""


class ConfigError(DegenIcpError):
    """A configuration file or flag value failed validation."""
