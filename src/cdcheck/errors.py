"""Exception hierarchy for cdcheck."""


class CdCheckError(Exception):
    """Base class for all cdcheck errors."""


class DimensionError(CdCheckError):
    """Inadmissible (n, N) pair: n < 2 or 1 < N < n."""


class RangeError(CdCheckError):
    """Epsilon lies outside the admissible range for the given (n, N)."""


class ConfigError(CdCheckError):
    """Inconsistent configuration (e.g. non-constant weight with N = n)."""


class SingularJacobian(CdCheckError):
    """det(dF_t) <= 0 somewhere on [0, 1]: the transport ray is inadmissible."""


class HypothesisError(CdCheckError):
    """The pointwise hypothesis of an interpolation inequality failed on samples."""


class PreconditionError(CdCheckError):
    """A named hypothesis of a functional inequality could not be verified."""

    def __init__(self, message: str, failed: str | None = None):
        self.failed = failed if failed is not None else message
        super().__init__(message)
