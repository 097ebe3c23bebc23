"""Exception types shared across the package."""


class HTCarnotError(Exception):
    """Base class for all library-specific errors."""


class DimensionMismatch(HTCarnotError):
    """Array shapes are inconsistent with the owning structure."""


class SpecNotRealizable(HTCarnotError):
    """The requested spectral data admits no compatible skew family."""


class StructureInvalid(HTCarnotError):
    """User-supplied (S, L) matrices fail the structure relations."""


class OutOfDomain(HTCarnotError):
    """Covector lies outside the closure of the injectivity domain."""


class ZeroCovector(HTCarnotError):
    pass


class IdentityTarget(HTCarnotError):
    pass


class CutLocusTarget(HTCarnotError):
    """Target point is outside the diffeomorphic image of the injectivity domain."""


class NoCandidateFound(HTCarnotError):
    """No covector at the cut time reaches the target (the closed form fails)."""


class WitnessNotFound(HTCarnotError):
    """Sharpness box verification kept failing after the maximum number of shrinks."""


class BoxOutsideDomain(HTCarnotError):
    pass


class UnsupportedPositiveK(HTCarnotError):
    """Positive curvature lower bounds are rejected; these groups are unbounded."""


class ConfigError(HTCarnotError):
    """Malformed or unsupported configuration input."""
