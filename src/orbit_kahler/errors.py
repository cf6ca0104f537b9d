"""Exception hierarchy for orbit_kahler.

Every domain failure raises a subclass of :class:`OrbitKahlerError` so callers
(and the CLI exit-code mapping) can distinguish input problems from violated
mathematical contracts.
"""

__all__ = [
    "OrbitKahlerError", "DimMismatchError", "NotHermitianError", "NotUnitaryError",
    "NotDensityError", "DegenerateGapError", "BaseMismatchError", "NotOffDiagonalError",
    "NonRealResultError", "NegativeVarianceError", "DegenerateDriftError",
    "TheoremViolationError",
]


class OrbitKahlerError(Exception):
    """Base class for all orbit_kahler errors."""


class DimMismatchError(OrbitKahlerError):
    """Operands have incompatible dimensions."""


class NotHermitianError(OrbitKahlerError):
    """Matrix is not Hermitian within tolerance."""


class NotUnitaryError(OrbitKahlerError):
    """Matrix is not unitary within tolerance."""


class NotDensityError(OrbitKahlerError):
    """Operator is not a density operator (negative eigenvalue or trace != 1)."""


class DegenerateGapError(OrbitKahlerError):
    """Eigenvalue clustering is ambiguous: a gap falls between the merge
    tolerance and twice the merge tolerance."""


class BaseMismatchError(OrbitKahlerError):
    """Tangent vectors live at different base points; no silent re-basing."""


class NotOffDiagonalError(OrbitKahlerError):
    """Operator has nonzero diagonal blocks where a purely off-block-diagonal
    operator is required."""


class NonRealResultError(OrbitKahlerError):
    """A quantity that must be real came out with a large imaginary part,
    signalling corrupted (non-Hermitian) input upstream."""


class NegativeVarianceError(OrbitKahlerError):
    """Variance radicand is negative beyond tolerance."""


class DegenerateDriftError(OrbitKahlerError):
    """A flow left the eigenvalue-clustering tolerance band of its orbit."""


class TheoremViolationError(OrbitKahlerError):
    """An uncertainty bound exceeded the uncertainty product beyond tolerance.
    This indicates a library bug, never a property of valid inputs."""
