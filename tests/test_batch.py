"""The batch API against the single-point API it generalizes.

Rows of a batch must equal the single-point results bitwise (``==``), and a
failing batch must raise what evaluating its rows one at a time raises first.
"""

import dataclasses

import numpy as np
import pytest

from orbit_kahler import (
    Config,
    DegenerateGapError,
    DimMismatchError,
    NegativeVarianceError,
    NotDensityError,
    NotHermitianError,
    OrbitBatch,
    OrbitKahlerError,
    UncertaintyReport,
    full_report,
    full_report_batch,
    make_hermitian,
    make_spectrum,
    orbit_batch,
    orbit_point,
    random_density,
)
from orbit_kahler.sampling import gaussian_hermitian, random_spectrum

FIELDS = [field.name for field in dataclasses.fields(UncertaintyReport)]


def _spectra(dim, rng):
    """Spectra with a cluster of multiplicity >= 3 wherever dim allows,
    the maximally mixed and the pure one among them."""
    spectra = [make_spectrum([1.0 / dim], [dim])]
    if dim >= 2:
        spectra.append(make_spectrum([1.0, 0.0], [1, dim - 1]))
    if dim >= 3:
        mults = [3] + [1] * (dim - 3)
        levels = np.linspace(1.0, 0.2, len(mults))
        spectra.append(make_spectrum(levels / np.dot(mults, levels), mults))
    if dim >= 4:
        spectra.append(random_spectrum(dim, rng, max_clusters=8, max_mult=6))
    return spectra


def _stack(dim, rng):
    """Haar-rotated densities (near-ties) and their diagonal forms (exact ties)."""
    rows = []
    for spectrum in _spectra(dim, rng):
        rows.append(random_density(spectrum, rng).rho)
        rows.append(np.diag(spectrum.full_values()).astype(complex))
    return np.array(rows)


def _first_row_error(evaluate, rows):
    """The error a one-at-a-time loop raises first, as a batch states it."""
    for i, row in enumerate(rows):
        try:
            evaluate(row)
        except OrbitKahlerError as exc:
            return type(exc), f"row {i}: {exc}"
    return None


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 7, 8, 9, 16])
def test_batch_rows_equal_single_points(dim):
    rng = np.random.default_rng(dim)
    rhos = _stack(dim, rng)
    a = gaussian_hermitian(dim, rng)
    b = gaussian_hermitian(dim, rng)
    batch = orbit_batch(rhos)
    reports = full_report_batch(a, b, batch)
    assert len(batch) == len(rhos)
    for i, rho in enumerate(rhos):
        single = orbit_point(make_hermitian(rho))
        row = batch[i]
        assert row.spectrum == single.spectrum
        for name in ("rho", "frame", "eigenvalues", "gaps", "same_cluster", "inv_gaps"):
            assert np.array_equal(getattr(row, name), getattr(single, name)), name
            assert np.array_equal(getattr(batch, name)[i], getattr(single, name)), name
        expected = full_report(a, b, single)
        for name in FIELDS:
            assert getattr(reports, name)[i] == getattr(expected, name), name


def _reference_spectrum(rho, cfg=Config()):
    """Single linkage over the descending eigenvalues, one np.mean per cluster."""
    groups = [[]]
    for w in np.sort(np.linalg.eigh(rho)[0])[::-1]:
        if groups[-1] and groups[-1][-1] - w > cfg.tol_cluster:
            groups.append([])
        groups[-1].append(w)
    return (tuple(max(float(np.mean(g)), 0.0) for g in groups),
            tuple(len(g) for g in groups))


@pytest.mark.parametrize("dim", [3, 9, 16])
def test_cluster_values_are_np_mean(dim):
    # clusters of 3 to 16 near-equal eigenvalues, summed as np.mean sums them
    rhos = _stack(dim, np.random.default_rng(100 + dim))
    batch = orbit_batch(rhos)
    for i, rho in enumerate(rhos):
        spectrum = batch[i].spectrum
        assert (spectrum.values, spectrum.mults) == _reference_spectrum(rho)


def test_empty_batch():
    batch = orbit_batch(np.zeros((0, 3, 3)))
    assert len(batch) == 0 and batch.eigenvalues.shape == (0, 3)
    report = full_report_batch(gaussian_hermitian(3, np.random.default_rng(0)),
                               gaussian_hermitian(3, np.random.default_rng(1)), batch)
    assert report.deltaA.shape == (0,)


def test_shape_and_dim_mismatch():
    with pytest.raises(DimMismatchError):
        orbit_batch(np.eye(2))
    with pytest.raises(DimMismatchError):
        orbit_batch(np.zeros((2, 2, 3)))
    batch = orbit_batch([np.diag([0.6, 0.4])])
    with pytest.raises(DimMismatchError):
        full_report_batch(make_hermitian(np.eye(3)), make_hermitian(np.eye(3)), batch)


GOOD = np.diag([0.6, 0.4])
AMBIGUOUS = np.diag([0.5 + 7.5e-10, 0.5 - 7.5e-10])    # gap 1.5e-9, in the band
OVER_TRACE = np.diag([0.6, 0.6])                        # passes the gap checks
AMBIGUOUS_OVER_TRACE = np.diag([0.6 + 7.5e-10, 0.6 - 7.5e-10])
NEGATIVE = np.diag([1.1, -0.1])
NOT_HERMITIAN = np.array([[0.6, 0.1], [0.0, 0.4]])
NON_FINITE = np.diag([np.nan, 0.4])


@pytest.mark.parametrize("rows, error, row", [
    ([GOOD, AMBIGUOUS, NEGATIVE], DegenerateGapError, 1),
    # a later check of an earlier row beats an earlier check of a later row
    ([OVER_TRACE, AMBIGUOUS], NotDensityError, 0),
    # within a row the checks keep their single-point order
    ([GOOD, AMBIGUOUS_OVER_TRACE], DegenerateGapError, 1),
    ([GOOD, GOOD, NOT_HERMITIAN, AMBIGUOUS], NotHermitianError, 2),
    ([GOOD, NON_FINITE, AMBIGUOUS], NotHermitianError, 1),
    ([GOOD, AMBIGUOUS, NON_FINITE], DegenerateGapError, 1),
])
def test_orbit_batch_raises_first_failing_row(rows, error, row):
    rows = np.array(rows, dtype=complex)
    expected = _first_row_error(lambda rho: orbit_point(make_hermitian(rho)), rows)
    with pytest.raises(error) as caught:
        orbit_batch(rows)
    assert (type(caught.value), str(caught.value)) == expected
    assert str(caught.value).startswith(f"row {row}: ")


def test_full_report_batch_raises_first_failing_row():
    # white box, as in the single-point guard test: rows with a negative
    # "eigenvalue" make the variance of the matching projector negative
    values = np.array([[0.7, 0.3], [0.6, 0.4], [1.1, -0.1], [1.2, -0.2]])
    rhos = np.array([np.diag(v) for v in values], dtype=complex)
    starts = np.ones_like(values, dtype=bool)
    batch = OrbitBatch(rho=rhos, frame=np.array([np.eye(2)] * 4, dtype=complex),
                       eigenvalues=values, cluster_start=starts)
    projector = make_hermitian(np.diag([0.0, 1.0]))
    expected = _first_row_error(
        lambda i: full_report(projector, projector, batch[i]), range(len(batch)))
    with pytest.raises(NegativeVarianceError) as caught:
        full_report_batch(projector, projector, batch)
    assert (type(caught.value), str(caught.value)) == expected
    assert str(caught.value).startswith("row 2: ")
