import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest

import orbit_kahler
import orbit_kahler.operators as operators
from orbit_kahler import (
    CheckReport,
    HermitianOperator,
    OrbitPoint,
    conjugate,
    conjugate_point,
    evolve,
    full_report,
    full_report_batch,
    hermitian_product,
    j_generator,
    kahler_evaluation,
    lift,
    make_hermitian,
    make_spectrum,
    metric,
    orbit_batch,
    orbit_point,
    random_density,
    split_kernel,
    symplectic_tangent,
    tangent_map,
    trajectory,
    with_gauge,
)
from orbit_kahler.sampling import gaussian_hermitian, random_gauge

MODULES = [info.name for info in pkgutil.iter_modules(orbit_kahler.__path__)]
REEXPORTED = ("config", "errors", "operators", "tangent", "kahler", "integrability",
              "uncertainty", "dynamics", "checks")
PUBLIC = {
    "Config", "DEFAULT_CONFIG",
    "OrbitKahlerError", "DimMismatchError", "NotHermitianError", "NotUnitaryError",
    "NotDensityError", "DegenerateGapError", "BaseMismatchError", "NotOffDiagonalError",
    "NonRealResultError", "NegativeVarianceError", "DegenerateDriftError",
    "TheoremViolationError",
    "HermitianOperator", "Spectrum", "OrbitPoint", "make_hermitian", "make_spectrum",
    "orbit_point", "orbit_batch", "conjugate", "conjugate_point", "with_gauge",
    "random_density", "haar_unitary",
    "TangentVector", "tangent_map", "make_tangent", "split_kernel", "lift",
    "KahlerEvaluation", "j_generator", "apply_J", "symplectic", "symplectic_tangent",
    "metric", "hermitian_product", "hermitian_product_blocks", "kahler_evaluation",
    "CheckReport", "involutivity_check", "nijenhuis_fd", "closedness_check",
    "nondegeneracy_check",
    "UncertaintyReport", "uncertainty", "variance_decomposition",
    "geometric_bound", "rs_bound", "full_report", "full_report_batch",
    "Trajectory", "unitary_propagator", "evolve", "ehrenfest_check", "trajectory",
    "CHECK_NAMES", "run_checks",
}


@pytest.mark.parametrize("name", [None] + MODULES)
def test_all_exports_resolve_without_duplicates(name):
    module = orbit_kahler if name is None else importlib.import_module(
        f"orbit_kahler.{name}")
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    missing = [item for item in exported if not hasattr(module, item)]
    assert missing == []


@pytest.mark.parametrize("name", REEXPORTED)
def test_package_reexports_each_module_api(name):
    module = importlib.import_module(f"orbit_kahler.{name}")
    assert [item for item in module.__all__
            if getattr(orbit_kahler, item) is not getattr(module, item)] == []


def test_package_api_is_unchanged():
    assert len(orbit_kahler.__all__) == len(PUBLIC) == 59
    assert set(orbit_kahler.__all__) == PUBLIC
    # besides the API, only the submodules are public attributes
    public = {name for name in dir(orbit_kahler) if not name.startswith("_")}
    assert public - PUBLIC <= set(MODULES)
    assert callable(orbit_kahler.uncertainty)


def test_orbit_point_label_is_derived():
    assert [f.name for f in dataclasses.fields(OrbitPoint)] == ["rho", "frame", "eigenvalues"]
    with pytest.raises(TypeError):
        OrbitPoint(np.eye(2) / 2, np.eye(2), [0.5, 0.5], [True, True])
    mixed = OrbitPoint(np.eye(2) / 2, np.eye(2), [0.5, 0.5])
    assert mixed.spectrum == make_spectrum([0.5], [2]) and mixed.same_cluster.all()
    rho = random_density(make_spectrum([0.5, 0.25], [1, 2]), 4).rho
    batch = orbit_batch([rho, np.diag([0.6, 0.3, 0.1])])
    assert [batch[i].spectrum.mults for i in range(2)] == [(1, 2), (1, 1, 1)]
    assert batch.same_cluster[0].tolist() == [[True, False, False], [False, True, True],
                                              [False, True, True]]
    for point in (orbit_point(make_hermitian(rho)), batch, batch[1]):
        assert not point.same_cluster.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            point.same_cluster = np.ones((3, 3), bool)


def test_check_report_verdict_is_derived():
    with pytest.raises(TypeError):
        CheckReport("x", 0.0, 1, 1e-9, {}, passed=True)
    assert not CheckReport("x", 1.0, 1, 1e-9, {}).passed
    assert not CheckReport("x", float("nan"), 1, 1e-9, {}).passed
    report = CheckReport("x", np.float64(1e-10), np.int64(3), 1e-9, {})
    assert report.passed
    assert [type(report.max_residual), type(report.samples)] == [float, int]
    assert not dataclasses.replace(report, max_residual=1.0).passed


def test_public_arrays_are_read_only():
    rng = np.random.default_rng(0)
    p = random_density(make_spectrum([0.4, 0.2, 0.1], [1, 2, 2]), rng)
    a = gaussian_hermitian(5, rng)
    b = make_hermitian(a.matrix)
    x = tangent_map(a, p)
    kernel, complement = split_kernel(a, p)
    u = np.linalg.qr(a.matrix + 1j * np.eye(5))[0]
    source = np.array([p.rho, conjugate_point(p, u).rho])
    batch = orbit_batch(source)
    report = full_report_batch(a, b, batch)
    # orbit_point freezes the arrays it made in place; at d = 1 its frame is a
    # view of the array eigh returned
    points = {"orbit_point": orbit_point(make_hermitian(p.rho)),
              "orbit_point d=1": orbit_point(make_hermitian([[1.0]])),
              "with_gauge": with_gauge(p, random_gauge(p, rng)), "batch row": batch[1]}
    arrays = {
        "gaussian_hermitian": a.matrix,
        "make_hermitian": b.matrix,
        "conjugate": conjugate(a, u).matrix,
        "rho": p.rho,
        "frame": p.frame,
        "gaps": p.gaps,
        "same_cluster": p.same_cluster,
        "inv_gaps": p.inv_gaps,
        "frame_dagger": p.frame_dagger,
        "eigenvalues": p.eigenvalues,
        "batch rho": batch.rho,
        "batch frame": batch.frame,
        "batch eigenvalues": batch.eigenvalues,
        "batch gaps": batch.gaps,
        "batch same_cluster": batch.same_cluster,
        "batch inv_gaps": batch.inv_gaps,
        "batch frame_dagger": batch.frame_dagger,
        **{f"batch {row} {name}": getattr(batch[index], name)
           for row, index in (("row", 1), ("numpy row", np.int64(0)), ("slice", slice(1, None)),
                              ("index array", [1, 0]))
           for name in ("rho", "frame", "eigenvalues", "gaps", "same_cluster", "inv_gaps",
                        "frame_dagger")},
        **{f"batch report {name}": value for name, value in vars(report).items()},
        "tangent_map": x.ambient,
        "lift": lift(x).matrix,
        "j_generator": j_generator(complement, p).matrix,
        "kernel part": kernel.matrix,
        "complement part": complement.matrix,
        "conjugate_point rho": conjugate_point(p, u).rho,
        "with_gauge frame": with_gauge(p, random_gauge(p, rng)).frame,
        "evolve rho": evolve(p, a, 0.1).rho,
        **{f"{point} {name}": getattr(q, name) for point, q in points.items()
           for name in ("rho", "frame", "eigenvalues", "gaps", "same_cluster", "inv_gaps",
                        "frame_dagger")},
    }
    writeable = [name for name, arr in arrays.items() if arr.flags.writeable]
    assert writeable == []
    # nor is any array they view, through which they could be written
    def viewed(arr):
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
            yield arr
    writeable = [name for name, arr in arrays.items()
                 if any(base.flags.writeable for base in viewed(arr))]
    assert writeable == []
    # orbit_batch and the public constructors copy the arrays a caller holds
    assert source.flags.writeable and not np.shares_memory(batch.rho, source)
    held = [np.array(p.rho), np.array(p.frame), np.array(p.eigenvalues)]
    copied = OrbitPoint(*held)
    for arr, name in zip(held, ("rho", "frame", "eigenvalues")):
        assert arr.flags.writeable and not np.shares_memory(arr, getattr(copied, name))
    # a row or a slice of a stack is a view of it that cannot be made writeable;
    # an index array gives a copy
    for index in (1, np.int64(0), slice(1, None), slice(None, None, -1)):
        for name in ("rho", "frame", "eigenvalues"):
            view = getattr(batch[index], name)
            assert np.shares_memory(view, getattr(batch, name))
            with pytest.raises(ValueError):
                view.setflags(write=True)
    assert not np.shares_memory(batch[[1, 0]].rho, batch.rho)
    # the cached adjoint is the one every frame change formed before, bit for
    # bit and in the same memory layout
    for q in (p, batch, batch[1:], *points.values()):
        adjoint = q.frame.conj().swapaxes(-1, -2)
        assert q.frame_dagger.tobytes() == adjoint.tobytes()
        assert q.frame_dagger.strides == adjoint.strides
    # the frame checks subtract on the diagonal, with the defects that
    # subtracting the identity gives, bit for bit, on stacks of 0, 1 and N
    # rows: each row passes at its defect as the bound and fails just under it
    for rows in (batch[:0], batch[:1], batch):
        eye = np.eye(rows.dim)
        for product, diagonal, subtracted in (
                (rows.frame @ rows.frame_dagger, 1.0, eye),
                (rows.frame_dagger @ rows.rho @ rows.frame, rows.eigenvalues,
                 rows.eigenvalues[..., None, :] * eye)):
            defect = np.abs(product - subtracted).max(axis=(-2, -1))
            operators._require_diagonal(product.copy(), diagonal, defect, ValueError, "")
            for i in range(len(rows)):
                bound = defect.copy()
                bound[i] = np.nextafter(bound[i], -np.inf)
                with pytest.raises(operators._BatchFailure) as failure:
                    operators._require_diagonal(product.copy(), diagonal, bound, ValueError, "")
                assert failure.value.args[0] == i


def test_values_copy_their_input():
    source = np.diag([0.7, 0.3]).astype(complex)
    op = HermitianOperator(source)
    batch = orbit_batch(source[None])
    source[0, 0] = 5.0
    assert op.matrix[0, 0] == 0.7
    assert batch.rho[0, 0, 0] == 0.7


def test_values_compare_by_value():
    rng = np.random.default_rng(3)
    m = gaussian_hermitian(3, rng).matrix
    rho = random_density(make_spectrum([0.5, 0.25], [1, 2]), rng).rho
    p, q = orbit_point(make_hermitian(rho)), orbit_point(make_hermitian(rho))
    assert p is not q and p == q and not p != q and q in [p]
    assert make_hermitian(m) == make_hermitian(m)
    a, b = make_hermitian(m), gaussian_hermitian(3, rng)
    assert tangent_map(a, p) == tangent_map(a, q) and tangent_map(a, p) != tangent_map(b, p)
    batch = orbit_batch([rho, rho.conj()])
    assert full_report_batch(a, b, batch) == full_report_batch(a, b, orbit_batch(batch.rho))
    assert trajectory(p, a, 1.0, 4) == trajectory(q, a, 1.0, 4)
    assert kahler_evaluation(a, b, p) == kahler_evaluation(a, b, q)
    # a gauge that moves the frame inside the 2-cluster gives a different value
    gauge = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
    assert with_gauge(p, gauge) != p
    assert (tangent_map(a, p) == a) is False and (a == tangent_map(a, p)) is False


def test_values_holding_arrays_stay_unhashable():
    p = orbit_point(make_hermitian(np.diag([0.6, 0.4])))
    a = make_hermitian(np.diag([1.0, -1.0]))
    for value in (p, a, tangent_map(a, p), full_report_batch(a, a, orbit_batch(p.rho[None]))):
        with pytest.raises(TypeError):
            hash(value)
    assert hash(full_report(a, a, p)) == hash(full_report(a, a, p))


def test_vectors_at_equal_points_combine():
    # the value branch of the base check: equal but distinct point objects
    rho = make_hermitian(np.diag([0.6, 0.4]))
    p, q = orbit_point(rho), orbit_point(rho)
    a, b = make_hermitian([[0, 1], [1, 0]]), make_hermitian([[0, -1j], [1j, 0]])
    x, y = tangent_map(a, p), tangent_map(b, q)
    assert symplectic_tangent(x, y) == symplectic_tangent(x, tangent_map(b, p))
    assert metric(x, y) == metric(tangent_map(a, p), tangent_map(b, p))
    assert hermitian_product(x, y) == hermitian_product(x, tangent_map(b, p))
