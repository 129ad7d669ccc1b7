"""Exception types shared across the package.

Input problems (bad files, bad arguments, invalid parameter vectors) raise
plain ValueError/OSError.  Anything that goes wrong inside the numerics
derives from NumericsError so callers can tell the two apart.
"""

__all__ = [
    "NumericsError",
    "PoleError",
    "NearPoleError",
    "IterationError",
    "ScanResolutionError",
    "RankError",
]


class NumericsError(Exception):
    """Base class for numerical failures."""


class PoleError(NumericsError):
    """An evaluation point coincides with a pole of a transform."""

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where


class NearPoleError(NumericsError):
    """The pole -1/s of a real s < 0 lies too close to the model support.

    Raised only by ``mp_u_map``, by one rule for every model: ``where``
    holds the support point t nearest -1/s and ``margin`` is |1 + t s|
    there, which fell below the guard (0 up to rounding inside the support).
    """

    def __init__(self, message, where=None, margin=None):
        super().__init__(message)
        self.where = where
        self.margin = margin


class IterationError(NumericsError):
    """An iterative solver stopped without reaching its residual target."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ScanResolutionError(NumericsError):
    """A sign-change scan could not separate features at the current resolution."""


class RankError(NumericsError):
    """A linear system is rank deficient; usually the evaluation net is too small."""
