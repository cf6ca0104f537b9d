"""The batch API against the single-point API it generalizes.

Rows of a batch must equal the single-point results bitwise (``==``), and a
failing batch must raise what evaluating its rows one at a time raises first.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import orbit_kahler as ok
from orbit_kahler import (
    Config,
    DegenerateGapError,
    DimMismatchError,
    NegativeVarianceError,
    NotDensityError,
    NotHermitianError,
    OrbitKahlerError,
    OrbitPoint,
    UncertaintyReport,
    full_report,
    full_report_batch,
    haar_unitary,
    make_hermitian,
    make_spectrum,
    orbit_batch,
    orbit_point,
    random_density,
)
from orbit_kahler.sampling import (
    gaussian_hermitian,
    random_gauge,
    random_spectrum,
)

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


@pytest.mark.parametrize("rows", [slice(1, 4), slice(0, 0), slice(2, None), slice(None),
                                  slice(None, None, 3), slice(-2, None)])
@pytest.mark.parametrize("dim", [2, 5])
def test_sliced_batch_equals_batch_of_slice(dim, rows):
    rhos = _stack(dim, np.random.default_rng(dim))
    sliced = orbit_batch(rhos)[rows]
    assert isinstance(sliced, OrbitPoint)
    expected = orbit_batch(rhos[rows])
    for name in ("rho", "frame", "eigenvalues", "gaps", "same_cluster", "inv_gaps"):
        assert np.array_equal(getattr(sliced, name), getattr(expected, name)), name


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
    # clusters of 3 to 16 near-equal eigenvalues, summed as np.mean sums them;
    # from 8 entries on, np.mean sums pairwise
    rhos = _stack(dim, np.random.default_rng(100 + dim))
    batch = orbit_batch(rhos)
    for i, rho in enumerate(rhos):
        expected = _reference_spectrum(rho)
        for point in (batch[i], orbit_point(make_hermitian(rho))):
            assert (point.spectrum.values, point.spectrum.mults) == expected


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


TOL = Config().tol_cluster


@st.composite
def _degenerate_densities(draw):
    """Densities with clusters of up to 9 near-ties inside ``tol_cluster`` (np.mean
    sums pairwise from 8), up to two top gaps in the ambiguous band and two
    clusters that clamp to 0.0 (or are -0.0), diagonal or Haar-rotated; some
    have a negative eigenvalue or a trace off 1."""
    mults = draw(st.lists(st.integers(1, 9), min_size=1, max_size=4))
    levels = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(mults),
                                    max_size=len(mults))))
    levels *= draw(st.sampled_from([1.0, 1.0, 1.0, 1.5])) / np.dot(mults, levels)
    near_tie = st.sampled_from([0.0, 0.3 * TOL, -0.3 * TOL, 0.45 * TOL])
    values = [level + draw(near_tie) for level, m in zip(levels, mults) for _ in range(m)]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        values.append(max(values) + draw(st.floats(1.05 * TOL, 1.95 * TOL)))
    if draw(st.booleans()):
        for zero in (draw(st.sampled_from([0.0, -0.0, -0.4 * TOL])),
                     draw(st.sampled_from([-3 * TOL] * 3 + [-30 * TOL]))):
            values += [zero] * draw(st.integers(1, 3))
    values = np.array(values)
    seed = draw(st.none() | st.integers(0, 2 ** 32 - 1))
    if seed is None:
        return np.diag(values).astype(complex)
    u = haar_unitary(values.size, seed)
    return (u * values) @ u.conj().T


@given(_degenerate_densities())
@example(np.diag([1.0, -0.0]).astype(complex))             # -0.0 reads 0.0
@example(np.diag([1.0, -0.0, -0.0]).astype(complex))
@example(np.diag([1.5, -3 * TOL, -3 * TOL]).astype(complex))  # the trace is of clamped values
@settings(max_examples=100, deadline=None)
def test_point_labels_equal_row_labels(rho):
    # a single point is labelled in Python floats, a stack row in one
    # vectorized pass; the two agree bit for bit, errors included
    try:
        single = orbit_point(make_hermitian(rho))
    except OrbitKahlerError as exc:
        with pytest.raises(OrbitKahlerError) as caught:
            orbit_batch([rho])
        assert (type(caught.value), str(caught.value)) == (type(exc), f"row 0: {exc}")
        return
    row = orbit_batch([rho])[0]
    assert row.spectrum == single.spectrum
    for name in ("eigenvalues", "frame"):
        assert getattr(row, name).tobytes() == getattr(single, name).tobytes(), name


def test_full_report_batch_raises_first_failing_row():
    # white box, as in the single-point guard test: rows with a negative
    # "eigenvalue" make the variance of the matching projector negative
    values = np.array([[0.7, 0.3], [0.6, 0.4], [1.1, -0.1], [1.2, -0.2]])
    rhos = np.array([np.diag(v) for v in values], dtype=complex)
    batch = OrbitPoint(rho=rhos, frame=np.array([np.eye(2)] * 4, dtype=complex),
                       eigenvalues=values)
    projector = make_hermitian(np.diag([0.0, 1.0]))
    expected = _first_row_error(
        lambda i: full_report(projector, projector, batch[i]), range(len(batch)))
    with pytest.raises(NegativeVarianceError) as caught:
        full_report_batch(projector, projector, batch)
    assert (type(caught.value), str(caught.value)) == expected
    assert str(caught.value).startswith("row 2: ")


def test_full_report_batch_prefix_fails_a_later_check():
    # white box: row 1 fails the variance of A first, but row 0 fails the
    # later variance of B, and row 0 is the first failing row
    values = np.array([[0.5, 0.6, -0.1], [0.6, -0.1, 0.5]])
    batch = OrbitPoint(rho=np.array([np.diag(v) for v in values], dtype=complex),
                       frame=np.array([np.eye(3)] * 2, dtype=complex),
                       eigenvalues=values)
    a = make_hermitian(np.diag([0.0, 1.0, 0.0]))
    b = make_hermitian(np.diag([0.0, 0.0, 1.0]))
    expected = _first_row_error(lambda i: full_report(a, b, batch[i]), range(len(batch)))
    with pytest.raises(NegativeVarianceError) as caught:
        full_report_batch(a, b, batch)
    assert (type(caught.value), str(caught.value)) == expected
    assert str(caught.value) == "row 0: variance radicand -1.100e-01"


def test_failing_batches_never_evaluate_a_row_alone(monkeypatch):
    import importlib

    operators_module = importlib.import_module("orbit_kahler.operators")
    # the package attribute ``uncertainty`` is the function, not the module
    uncertainty_module = importlib.import_module("orbit_kahler.uncertainty")

    a = make_hermitian(np.diag([0.0, 1.0, 0.0]))
    b = make_hermitian(np.diag([0.0, 0.0, 1.0]))
    values = np.array([[0.5, 0.6, -0.1], [0.6, -0.1, 0.5]])
    report_rows = OrbitPoint(rho=np.array([np.diag(v) for v in values], dtype=complex),
                             frame=np.array([np.eye(3)] * 2, dtype=complex),
                             eigenvalues=values)

    def alone(*args, **kwargs):
        raise AssertionError("a failing batch evaluated a row alone")

    monkeypatch.setattr(operators_module, "orbit_point", alone)
    monkeypatch.setattr(uncertainty_module, "full_report", alone)
    with pytest.raises(DegenerateGapError, match="^row 1: "):
        orbit_batch(np.array([GOOD, AMBIGUOUS, NEGATIVE], dtype=complex))
    with pytest.raises(NegativeVarianceError, match="^row 0: "):
        full_report_batch(a, b, report_rows)


def _single_point_calls():
    """Every public function of a single point, as ``name -> call(p)``."""
    rng = np.random.default_rng(0)
    a, b, c = (gaussian_hermitian(3, rng) for _ in range(3))
    off = make_hermitian(np.diag([1.0, 1.0], 1) + np.diag([1.0, 1.0], -1))
    return {
        "conjugate_point": lambda p: ok.conjugate_point(p, np.eye(3)),
        "with_gauge": lambda p: ok.with_gauge(p, np.eye(3)),
        "TangentVector": lambda p: ok.TangentVector(p, np.zeros(p.rho.shape)),
        "tangent_map": lambda p: ok.tangent_map(a, p),
        "make_tangent": lambda p: ok.make_tangent(np.zeros((3, 3)), p),
        "split_kernel": lambda p: ok.split_kernel(a, p),
        "j_generator": lambda p: ok.j_generator(off, p),
        "symplectic": lambda p: ok.symplectic(a, b, p),
        "hermitian_product_blocks": lambda p: ok.hermitian_product_blocks(off, off, p),
        "kahler_evaluation": lambda p: ok.kahler_evaluation(a, b, p),
        "uncertainty": lambda p: ok.uncertainty(a, p),
        "variance_decomposition": lambda p: ok.variance_decomposition(a, p),
        "geometric_bound": lambda p: ok.geometric_bound(a, b, p),
        "rs_bound": lambda p: ok.rs_bound(a, b, p),
        "full_report": lambda p: ok.full_report(a, b, p),
        "involutivity_check": lambda p: ok.involutivity_check(p, 2, 0),
        "nijenhuis_fd": lambda p: ok.nijenhuis_fd(a, b, p),
        "closedness_check": lambda p: ok.closedness_check(a, b, c, p),
        "nondegeneracy_check": lambda p: ok.nondegeneracy_check(p, 2, 0),
        "evolve": lambda p: ok.evolve(p, a, 0.1),
        "ehrenfest_check": lambda p: ok.ehrenfest_check(a, b, p),
        "trajectory": lambda p: ok.trajectory(p, a, 1.0, 3),
        "random_gauge": lambda p: random_gauge(p, rng),
    }


@pytest.mark.parametrize("name", list(_single_point_calls()))
def test_single_point_functions_reject_a_stack(name):
    # a stack once leaked _BatchFailure, raised a bare numpy error or
    # returned a value of the wrong size (lift of a vector at a stack of 2
    # had dim 2)
    diag = np.diag([0.5, 0.3, 0.2]).astype(complex)
    stack = orbit_batch([diag, diag[::-1, ::-1]])
    call = _single_point_calls()[name]
    call(stack[0])
    with pytest.raises(TypeError, match="single point"):
        call(stack)


def test_full_report_batch_rejects_a_single_point():
    a = make_hermitian(np.diag([1.0, -1.0]))
    with pytest.raises(TypeError, match="expected a stack of points"):
        full_report_batch(a, a, orbit_point(make_hermitian(np.diag([0.6, 0.4]))))
