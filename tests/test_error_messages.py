"""Exact error class and message at every validation site.

Each site is pinned through its single-point entry point and, where a batch
can fail there, as row 1 of a batch whose row 0 passes every check. A batch
raises the error its failing row raises alone, prefixed ``row 1:``. Inputs
that no validated path produces (non-Hermitian operands, points with a lying
spectrum or frame) are built white box, as in the guard tests.
"""

import warnings

import numpy as np
import pytest

from orbit_kahler import (
    DegenerateGapError,
    DimMismatchError,
    HermitianOperator,
    NegativeVarianceError,
    NonRealResultError,
    NotDensityError,
    NotHermitianError,
    NotOffDiagonalError,
    NotUnitaryError,
    OrbitPoint,
    Spectrum,
    TangentVector,
    TheoremViolationError,
    conjugate,
    conjugate_point,
    full_report,
    full_report_batch,
    hermitian_product,
    hermitian_product_blocks,
    j_generator,
    make_hermitian,
    make_spectrum,
    make_tangent,
    nondegeneracy_check,
    orbit_batch,
    orbit_point,
    rs_bound,
    run_checks,
    symplectic,
    symplectic_tangent,
    tangent_map,
    uncertainty,
    with_gauge,
)
from orbit_kahler.cli import main
from orbit_kahler.sampling import random_spectrum

from conftest import labelled_point

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
GOOD = np.diag([0.6, 0.4]).astype(complex)
QUBIT = orbit_point(make_hermitian(np.diag([0.7, 0.3])))
MIXED = orbit_point(make_hermitian(np.eye(2) / 2))
QUTRIT = orbit_point(make_hermitian(np.diag([0.5, 0.3, 0.2])))


def _raw(matrix):
    """A HermitianOperator that skips validation (white box)."""
    return HermitianOperator(np.asarray(matrix, dtype=complex))


def _fake_point(values, frame=np.eye(2)):
    """A point on diag(values) with an unchecked spectrum and frame."""
    return labelled_point(np.diag(values).astype(complex),
                          Spectrum(tuple(values), (1,) * len(values)),
                          np.asarray(frame, dtype=complex))


def _batch_after_zero_row(p):
    """The batch [0, p]: at rho = 0 every full_report check passes for any
    operands, since every trace and tangent vector vanishes."""
    d = p.dim
    return OrbitPoint(rho=[np.zeros((d, d)), p.rho], frame=[np.eye(d), p.frame],
                      eigenvalues=[np.zeros(d), p.eigenvalues])


NOT_HERMITIAN = np.array([[0.6, 0.1], [0.0, 0.4]])
NON_FINITE = np.diag([np.nan, 0.4])
AMBIGUOUS = np.diag([0.5 + 7.5e-10, 0.5 - 7.5e-10])
NEGATIVE = np.diag([1.1, -0.1])
OVER_TRACE = np.diag([0.6, 0.6])
NOT_UNITARY = np.diag([1.0, 2.0])

# operand pairs whose first failing full_report check is the named one
IMAG_MEAN = (_raw(np.diag([1j, 0.0])), _raw(SZ), QUBIT)
IMAG_SECOND = (_raw([[0, 1], [1j, 0]]), _raw(SZ), QUBIT)
IMAG_PAIRING = (_raw([[0, 1j], [0, 0]]), _raw(SX), QUBIT)
IMAG_COVARIANCE = (_raw([[0, 1j], [0, 0]]), _raw(SX), MIXED)
# one claimed cluster: every lift vanishes, so only the RS traces see the operands
REAL_COMMUTATOR = (_raw([[0, 1], [0, 0]]), _raw(SX),
                   labelled_point(QUBIT.rho, make_spectrum([0.5], [2]), np.eye(2)))
NEGATIVE_VARIANCE = (make_hermitian(np.diag([0.0, 1.0])),
                     make_hermitian(np.diag([0.0, 1.0])), _fake_point([1.1, -0.1]))
LYING_SPECTRUM = (make_hermitian(SX), make_hermitian(np.array([[0, -1j], [1j, 0]])),
                  labelled_point(QUBIT.rho, make_spectrum([0.55, 0.45], [1, 1]), QUBIT.frame))

SINGLE = {
    "hermiticity": (lambda: make_hermitian(NOT_HERMITIAN), NotHermitianError,
                    "max |M - M^dag| = 1.000e-01 exceeds 1.0e-10"),
    "tangent hermiticity": (lambda: make_tangent(NOT_HERMITIAN, QUBIT), NotHermitianError,
                            "max |M - M^dag| = 1.000e-01 exceeds 1.0e-10"),
    "non-finite": (lambda: make_hermitian(NON_FINITE), NotHermitianError,
                   "non-finite entries"),
    "unitarity": (lambda: conjugate(make_hermitian(SX), NOT_UNITARY), NotUnitaryError,
                  "unitarity defect 3.000e+00"),
    "point unitarity": (lambda: conjugate_point(QUBIT, NOT_UNITARY), NotUnitaryError,
                        "unitarity defect 3.000e+00"),
    "non-finite unitary": (lambda: conjugate_point(QUBIT, np.diag([np.inf, 1.0])),
                           NotUnitaryError, "non-finite entries"),
    "point unitary shape": (lambda: conjugate_point(QUTRIT, np.eye(2)), DimMismatchError,
                            "point dim 3 vs unitary shape (2, 2)"),
    "point unitary stack": (lambda: conjugate_point(QUTRIT, np.array([np.eye(3)] * 3)),
                            DimMismatchError, "point dim 3 vs unitary shape (3, 3, 3)"),
    "frame unitarity": (lambda: with_gauge(QUBIT, NOT_UNITARY), NotUnitaryError,
                        "frame unitarity defect 3.000e+00"),
    "frame residual": (lambda: conjugate_point(_fake_point([0.7, 0.3], SX), np.eye(2)),
                       NotHermitianError,
                       "frame does not reduce rho to block-diagonal form: "
                       "residual 4.000e-01"),
    "ambiguous gap": (lambda: orbit_point(make_hermitian(AMBIGUOUS)), DegenerateGapError,
                      "cluster gap 1.500e-09 falls in the ambiguous band "
                      "(1.0e-09, 2.0e-09)"),
    "negative eigenvalue": (lambda: orbit_point(make_hermitian(NEGATIVE)),
                            NotDensityError, "negative eigenvalue -0.1"),
    "trace": (lambda: orbit_point(make_hermitian(OVER_TRACE)), NotDensityError,
              "trace 1.2 differs from 1 beyond 1e-08"),
    # an unvalidated operator: eigh reads the lower triangle, so a NaN there
    # gives NaN eigenvalues, which passed every gate written x > bound, and a
    # NaN above the diagonal gives finite ones
    **{f"orbit_point non-finite {where}": (lambda m=m: orbit_point(_raw(m)), NotHermitianError,
                                           "non-finite entries")
       for where, m in (("everywhere", np.full((2, 2), np.nan)),
                        ("diagonal", NON_FINITE),
                        ("upper", [[0.6, np.nan], [0.0, 0.4]]),
                        ("lower infinite", [[0.6, 0.0], [np.inf, 0.4]]),
                        ("upper infinite", [[0.6, np.inf], [0.0, 0.4]]))},
    "j_generator off-diagonal": (lambda: j_generator(make_hermitian(SZ), QUBIT),
                                 NotOffDiagonalError,
                                 "diagonal blocks reach 1.000e+00; "
                                 "split off the commuting part first"),
    "blocks first off-diagonal": (
        lambda: hermitian_product_blocks(make_hermitian(SZ), make_hermitian(2 * SZ), QUBIT),
        NotOffDiagonalError,
        "diagonal blocks reach 1.000e+00; split off the commuting part first"),
    "blocks second off-diagonal": (
        lambda: hermitian_product_blocks(make_hermitian(SX), make_hermitian(2 * SZ), QUBIT),
        NotOffDiagonalError,
        "diagonal blocks reach 2.000e+00; split off the commuting part first"),
    "symplectic non-real": (lambda: symplectic(_raw([[0, 1], [0, 0]]), _raw(SX), QUBIT),
                            NonRealResultError,
                            "symplectic form has imaginary part -4.000e-01; "
                            "inputs are likely not Hermitian"),
    "symplectic_tangent non-real": (
        lambda: symplectic_tangent(TangentVector(QUBIT, [[0, 1j], [0, 0]]),
                                   tangent_map(make_hermitian(SX), QUBIT)),
        NonRealResultError,
        "symplectic form has imaginary part -1.000e+00; inputs are likely not Hermitian"),
    "hermitian_product non-real": (
        lambda: hermitian_product(tangent_map(IMAG_PAIRING[0], QUBIT),
                                  tangent_map(IMAG_PAIRING[1], QUBIT)),
        NonRealResultError,
        "symplectic form has imaginary part 4.000e-01; inputs are likely not Hermitian"),
    "expectation non-real": (lambda: uncertainty(IMAG_MEAN[0], QUBIT), NonRealResultError,
                             "expectation has imaginary part 7.000e-01; "
                             "inputs are likely not Hermitian"),
    "second moment non-real": (lambda: uncertainty(IMAG_SECOND[0], QUBIT),
                               NonRealResultError,
                               "second moment has imaginary part 1.000e+00; "
                               "inputs are likely not Hermitian"),
    "rs covariance non-real": (lambda: rs_bound(*IMAG_COVARIANCE), NonRealResultError,
                               "symmetrized covariance has imaginary part 5.000e-01; "
                               "inputs are likely not Hermitian"),
    "rs commutator real part": (lambda: rs_bound(*REAL_COMMUTATOR), NonRealResultError,
                                "commutator expectation has real part 4.000e-01"),
    "negative variance": (lambda: uncertainty(*NEGATIVE_VARIANCE[1:]),
                          NegativeVarianceError, "variance radicand -1.100e-01"),
    "theorem slack": (lambda: full_report(*LYING_SPECTRUM), TheoremViolationError,
                      "bound exceeds uncertainty product: geometric slack -6.000e-01, "
                      "RS slack 6.000e-01"),
}

# checks on the other arguments, and operands that arithmetic does not take
QUBIT_OP = make_hermitian(SZ)
QUBIT_X = tangent_map(make_hermitian(SX), QUBIT)


class _TiedLevels:
    """A seeded Generator whose level draw is two levels 1e-12 apart."""

    def __init__(self):
        self._rng = np.random.default_rng(0)

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def uniform(self, low, high, size):
        return np.array([0.5, 0.5 + 1e-12])


def _unsupported(symbol, left, right):
    return f"unsupported operand type(s) for {symbol}: '{left}' and '{right}'"


ARGUMENTS = {
    "run_checks samples": (lambda: run_checks(samples=0), ValueError,
                           "samples must be >= 1, got 0"),
    "nondegeneracy samples": (lambda: nondegeneracy_check(QUBIT, 0, 0), ValueError,
                              "samples must be >= 1, got 0"),
    "empty spectrum": (lambda: make_spectrum([], []), ValueError,
                       "values and mults must be nonempty and of equal length"),
    "spectrum lengths": (lambda: make_spectrum([0.5, 0.5], [1]), ValueError,
                         "values and mults must be nonempty and of equal length"),
    "zero multiplicity": (lambda: make_spectrum([1.0], [0]), ValueError,
                          "multiplicities must be positive, got (0,)"),
    "unitary shape": (lambda: conjugate(QUBIT_OP, np.eye(3)), DimMismatchError,
                      "operator dim 2 vs unitary shape (3, 3)"),
    "gauge shape": (lambda: with_gauge(QUBIT, np.eye(3)), DimMismatchError,
                    "gauge shape (3, 3) vs dim 2"),
    "tangent shape": (lambda: make_tangent(np.eye(3), QUBIT), DimMismatchError,
                      "shape (3, 3) vs point dim 2"),
    "tangent vector shape": (lambda: TangentVector(QUBIT, np.zeros((3, 3))), DimMismatchError,
                             "shape (3, 3) vs point dim 2"),
    "run_checks names string": (lambda: run_checks(names="j_squared"), ValueError,
                                "names must be a list of check names, "
                                "got the string 'j_squared'"),
    "operator + int": (lambda: QUBIT_OP + 1, TypeError,
                       _unsupported("+", "HermitianOperator", "int")),
    "operator - int": (lambda: QUBIT_OP - 1, TypeError,
                       _unsupported("-", "HermitianOperator", "int")),
    "operator * complex": (lambda: QUBIT_OP * 1j, TypeError,
                           _unsupported("*", "HermitianOperator", "complex")),
    "tangent + operator": (lambda: QUBIT_X + QUBIT_OP, TypeError,
                           _unsupported("+", "TangentVector", "HermitianOperator")),
    "tangent - operator": (lambda: QUBIT_X - QUBIT_OP, TypeError,
                           _unsupported("-", "TangentVector", "HermitianOperator")),
    "tangent * complex": (lambda: QUBIT_X * 1j, TypeError,
                          _unsupported("*", "TangentVector", "complex")),
    "unsplittable dim": (lambda: random_spectrum(16, np.random.default_rng(0)), ValueError,
                         "dim 16 cannot be split into <= 4 clusters of multiplicity <= 3"),
    "tied levels": (lambda: random_spectrum(2, _TiedLevels(), max_clusters=2, max_mult=1,
                                            min_gap=0.0),
                    DegenerateGapError, "values not strictly descending with gap > 1e-09: "
                                        "0.5000000000004999 vs 0.49999999999949996"),
}

ORBIT_ROWS = {
    "hermiticity": NOT_HERMITIAN,
    "non-finite": NON_FINITE,
    "ambiguous gap": AMBIGUOUS,
    "negative eigenvalue": NEGATIVE,
    "trace": OVER_TRACE,
}

REPORT_ROWS = {
    "expectation non-real": IMAG_MEAN,
    "second moment non-real": IMAG_SECOND,
    "hermitian_product non-real": IMAG_PAIRING,
    "rs covariance non-real": IMAG_COVARIANCE,
    "rs commutator real part": REAL_COMMUTATOR,
    "negative variance": NEGATIVE_VARIANCE,
    "theorem slack": LYING_SPECTRUM,
}


def _raised(call):
    with pytest.raises(Exception) as caught:
        call()
    return type(caught.value), str(caught.value)


@pytest.mark.parametrize("site", SINGLE)
def test_single_point_message(site):
    call, error, message = SINGLE[site]
    assert _raised(call) == (error, message)


@pytest.mark.parametrize("site", [site for site in SINGLE if "orbit_point non-finite" in site])
def test_orbit_point_non_finite_warns_nothing(site):
    # the error::RuntimeWarning filter of pyproject.toml turns a warning into
    # an exception that orbit_point's error path swallows, so record them
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _raised(SINGLE[site][0]) == SINGLE[site][1:]
    assert [str(warning.message) for warning in caught] == []


@pytest.mark.parametrize("site", ARGUMENTS)
def test_argument_message(site):
    call, error, message = ARGUMENTS[site]
    assert _raised(call) == (error, message)


@pytest.mark.parametrize("site", ORBIT_ROWS)
def test_orbit_batch_row_message(site):
    _, error, message = SINGLE[site]
    rows = np.array([GOOD, ORBIT_ROWS[site]], dtype=complex)
    assert _raised(lambda: orbit_batch(rows)) == (error, f"row 1: {message}")


@pytest.mark.parametrize("site", REPORT_ROWS)
def test_full_report_batch_row_message(site):
    _, error, message = SINGLE[site]
    a, b, p = REPORT_ROWS[site]
    assert _raised(lambda: full_report(a, b, p)) == (error, message)
    batch = _batch_after_zero_row(p)
    assert _raised(lambda: full_report_batch(a, b, batch)) == (error, f"row 1: {message}")


def test_sweep_error_line(capsys):
    assert main(["sweep", "--grid", "0.5:0.5000000015:3", "--seed", "0"]) == 3
    assert capsys.readouterr().err == (
        "error: row 1: cluster gap 1.500e-09 falls in the ambiguous band "
        "(1.0e-09, 2.0e-09)\n")
