"""Kahler geometry on unitary orbits of density operators.

The orbit of a density operator under unitary conjugation carries a symplectic
form, an integrable complex structure, and a compatible Riemannian metric.
This package materializes all three on concrete matrices, verifies their
defining identities numerically, and evaluates the geometric uncertainty
bound they induce alongside the Robertson-Schrodinger baseline.
"""

from .config import Config, DEFAULT_CONFIG
from .errors import (
    BaseMismatchError,
    DegenerateDriftError,
    DegenerateGapError,
    DimMismatchError,
    NegativeVarianceError,
    NonRealResultError,
    NotDensityError,
    NotHermitianError,
    NotOffDiagonalError,
    NotUnitaryError,
    OrbitKahlerError,
    TheoremViolationError,
)
from .operators import (
    HermitianOperator,
    OrbitPoint,
    Spectrum,
    conjugate,
    conjugate_point,
    haar_unitary,
    make_hermitian,
    make_spectrum,
    orbit_batch,
    orbit_point,
    random_density,
    with_gauge,
)
from .tangent import (
    TangentVector,
    lift,
    make_tangent,
    split_kernel,
    tangent_map,
)
from .kahler import (
    KahlerEvaluation,
    apply_J,
    hermitian_product,
    hermitian_product_blocks,
    j_generator,
    kahler_evaluation,
    metric,
    symplectic,
    symplectic_tangent,
)
from .integrability import (
    CheckReport,
    closedness_check,
    involutivity_check,
    nijenhuis_fd,
    nondegeneracy_check,
)
from .uncertainty import (
    UncertaintyReport,
    expectation,
    full_report,
    full_report_batch,
    geometric_bound,
    rs_bound,
    uncertainty,
    variance_decomposition,
)
from .dynamics import Trajectory, ehrenfest_check, evolve, trajectory, unitary_propagator
from .checks import CHECK_NAMES, run_checks

__version__ = "0.1.0"

__all__ = [
    "Config", "DEFAULT_CONFIG",
    "OrbitKahlerError", "DimMismatchError", "NotHermitianError",
    "NotUnitaryError", "NotDensityError", "DegenerateGapError",
    "BaseMismatchError", "NotOffDiagonalError", "NonRealResultError",
    "NegativeVarianceError", "DegenerateDriftError", "TheoremViolationError",
    "HermitianOperator", "Spectrum", "OrbitPoint",
    "make_hermitian", "make_spectrum", "orbit_point", "orbit_batch", "conjugate",
    "conjugate_point", "with_gauge", "random_density", "haar_unitary",
    "TangentVector", "tangent_map", "make_tangent", "split_kernel", "lift",
    "KahlerEvaluation", "j_generator", "apply_J", "symplectic",
    "symplectic_tangent", "metric", "hermitian_product",
    "hermitian_product_blocks", "kahler_evaluation",
    "CheckReport", "involutivity_check", "nijenhuis_fd", "closedness_check",
    "nondegeneracy_check",
    "UncertaintyReport", "expectation", "uncertainty",
    "variance_decomposition", "geometric_bound", "rs_bound", "full_report",
    "full_report_batch",
    "Trajectory", "unitary_propagator", "evolve", "ehrenfest_check", "trajectory",
    "CHECK_NAMES", "run_checks",
]
