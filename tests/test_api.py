import importlib
import pkgutil

import numpy as np
import pytest

import orbit_kahler
from orbit_kahler import (
    HermitianOperator,
    conjugate,
    conjugate_point,
    evolve,
    full_report_batch,
    j_generator,
    lift,
    make_hermitian,
    make_spectrum,
    orbit_batch,
    random_density,
    split_kernel,
    tangent_map,
    with_gauge,
)
from orbit_kahler.sampling import gaussian_hermitian, random_gauge

MODULES = [info.name for info in pkgutil.iter_modules(orbit_kahler.__path__)]


@pytest.mark.parametrize("name", [None] + MODULES)
def test_all_exports_resolve_without_duplicates(name):
    module = orbit_kahler if name is None else importlib.import_module(
        f"orbit_kahler.{name}")
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    missing = [item for item in exported if not hasattr(module, item)]
    assert missing == []


def test_public_arrays_are_read_only():
    rng = np.random.default_rng(0)
    p = random_density(make_spectrum([0.4, 0.2, 0.1], [1, 2, 2]), rng)
    a = gaussian_hermitian(5, rng)
    b = make_hermitian(a.matrix)
    x = tangent_map(a, p)
    kernel, complement = split_kernel(a, p)
    u = np.linalg.qr(a.matrix + 1j * np.eye(5))[0]
    batch = orbit_batch([p.rho, conjugate_point(p, u).rho])
    report = full_report_batch(a, b, batch)
    arrays = {
        "gaussian_hermitian": a.matrix,
        "make_hermitian": b.matrix,
        "operator sum": (a + b).matrix,
        "operator scaled": (2.0 * a).matrix,
        "operator negated": (-a).matrix,
        "conjugate": conjugate(a, u).matrix,
        "rho": p.rho,
        "frame": p.frame,
        "gaps": p.gaps,
        "same_cluster": p.same_cluster,
        "inv_gaps": p.inv_gaps,
        "eigenvalues": p.eigenvalues,
        "batch rho": batch.rho,
        "batch frame": batch.frame,
        "batch eigenvalues": batch.eigenvalues,
        "batch cluster_start": batch.cluster_start,
        "batch gaps": batch.gaps,
        "batch same_cluster": batch.same_cluster,
        "batch inv_gaps": batch.inv_gaps,
        "batch row frame": batch[1].frame,
        **{f"batch report {name}": value for name, value in vars(report).items()},
        "tangent_map": x.ambient,
        "tangent sum": (x + x).ambient,
        "tangent difference": (x - x).ambient,
        "tangent scaled": (3.0 * x).ambient,
        "tangent negated": (-x).ambient,
        "lift": lift(x).matrix,
        "j_generator": j_generator(complement, p).matrix,
        "kernel part": kernel.matrix,
        "complement part": complement.matrix,
        "conjugate_point rho": conjugate_point(p, u).rho,
        "with_gauge frame": with_gauge(p, random_gauge(p, rng)).frame,
        "evolve rho": evolve(p, a, 0.1).rho,
    }
    writeable = [name for name, arr in arrays.items() if arr.flags.writeable]
    assert writeable == []


def test_values_copy_their_input():
    source = np.diag([0.7, 0.3]).astype(complex)
    op = HermitianOperator(source)
    batch = orbit_batch(source[None])
    source[0, 0] = 5.0
    assert op.matrix[0, 0] == 0.7
    assert batch.rho[0, 0, 0] == 0.7
