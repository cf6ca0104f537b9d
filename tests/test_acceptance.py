"""Acceptance suite: every release-gating property at its fixed tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per criterion.
All tolerances are pinned here, not configurable.
"""

import json
import time

import numpy as np
import pytest

from orbit_kahler import (
    Config,
    apply_J,
    conjugate,
    conjugate_point,
    ehrenfest_check,
    evolve,
    full_report,
    geometric_bound,
    haar_unitary,
    hermitian_product,
    hermitian_product_blocks,
    involutivity_check,
    make_hermitian,
    metric,
    nijenhuis_fd,
    closedness_check,
    orbit_point,
    random_density,
    rs_bound,
    split_kernel,
    symplectic,
    symplectic_tangent,
    tangent_map,
    trajectory,
    uncertainty,
    with_gauge,
)
from orbit_kahler.cli import main as cli_main
from orbit_kahler.sampling import (
    gaussian_hermitian,
    maximally_mixed_spectrum,
    pure_spectrum,
    random_gauge,
    random_spectrum,
)
from orbit_kahler.serialize import matrix_to_json

CFG = Config()
DIMS = (2, 3, 4, 5, 6, 7, 8)


def _announce(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number:2d}] {status} {name}: {detail}", flush=True)


def _sample_point(index, rng):
    dim = DIMS[index % len(DIMS)]
    if index % 10 == 9:
        spectrum = maximally_mixed_spectrum(dim)
    else:
        spectrum = random_spectrum(dim, rng, max_clusters=4, max_mult=3)
    return random_density(spectrum, rng)


@pytest.fixture(scope="module")
def tangent_samples():
    """1000 tangent vectors across dims 2-8, k in 1..4, multiplicities <= 3."""
    rng = np.random.default_rng(2024)
    samples = []
    for index in range(1000):
        p = _sample_point(index, rng)
        x = tangent_map(gaussian_hermitian(p.dim, rng), p, CFG)
        y = tangent_map(gaussian_hermitian(p.dim, rng), p, CFG)
        samples.append((p, x, y))
    ks = {p.spectrum.k for p, _, _ in samples}
    mults = {m for p, _, _ in samples for m in p.spectrum.mults}
    assert ks >= {1, 2, 3, 4} and {2, 3} <= mults
    return samples


@pytest.fixture(scope="module")
def bound_sweep():
    """10^4 random (A, B, rho) reports, shared by criteria 4 and 9."""
    rng = np.random.default_rng(777)
    reports = []
    start = time.monotonic()
    for index in range(10_000):
        p = _sample_point(index, rng)
        a = gaussian_hermitian(p.dim, rng)
        b = gaussian_hermitian(p.dim, rng)
        reports.append(full_report(a, b, p, CFG))
    return reports, time.monotonic() - start


def test_criterion_1_j_squared(tangent_samples):
    start = time.monotonic()
    worst = 0.0
    for _, x, _ in tangent_samples:
        twice = apply_J(apply_J(x, CFG), CFG)
        worst = max(worst, float(np.max(np.abs(twice.ambient + x.ambient))))
    elapsed = time.monotonic() - start
    passed = worst <= 1e-10 and elapsed < 10.0
    _announce(1, "J^2 = -1", passed,
              f"max residual {worst:.3e} (tol 1e-10) over 1000 vectors in {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_2_kahler_compatibility(tangent_samples):
    antisym = 0.0
    asym_g = 0.0
    herm = 0.0
    im_h = 0.0
    witness = np.inf
    for p, x, y in tangent_samples:
        omega_xy = symplectic_tangent(x, y, CFG)
        antisym = max(antisym, abs(omega_xy + symplectic_tangent(y, x, CFG)))
        g_xy = metric(x, y, CFG)
        asym_g = max(asym_g, abs(g_xy - metric(y, x, CFG)))
        h_xy = hermitian_product(x, y, CFG)
        herm = max(herm, abs(h_xy - np.conj(hermitian_product(y, x, CFG))))
        im_h = max(im_h, abs(h_xy.imag - omega_xy))
        squared = float(np.linalg.norm(x.ambient)) ** 2
        if squared > 1e-16:
            witness = min(witness, metric(x, x, CFG) / squared)
    passed = (antisym <= 1e-10 and asym_g <= 1e-10 and herm <= 1e-10
              and im_h <= 1e-10 and witness > 0.0)
    _announce(2, "Kahler compatibility", passed,
              f"antisym {antisym:.2e}, g-sym {asym_g:.2e}, herm-sym {herm:.2e}, "
              f"Im h = omega {im_h:.2e}, positivity witness {witness:.3e}")
    assert antisym <= 1e-10
    assert asym_g <= 1e-10
    assert herm <= 1e-10
    assert im_h <= 1e-10
    assert witness > 0.0


def test_criterion_3_block_formula_equivalence():
    rng = np.random.default_rng(31)
    worst = 0.0
    for index in range(1000):
        p = _sample_point(index, rng)
        a = split_kernel(gaussian_hermitian(p.dim, rng), p)[1]
        b = split_kernel(gaussian_hermitian(p.dim, rng), p)[1]
        definitional = hermitian_product(tangent_map(a, p, CFG),
                                         tangent_map(b, p, CFG), CFG)
        closed_form = hermitian_product_blocks(a, b, p, CFG)
        worst = max(worst, abs(closed_form - definitional) / max(1.0, abs(definitional)))
    passed = worst <= 1e-9
    _announce(3, "block formula = definitional h", passed,
              f"max relative residual {worst:.3e} (tol 1e-9) over 1000 triples")
    assert worst <= 1e-9


def test_criterion_4_geometric_uncertainty(bound_sweep):
    reports, elapsed = bound_sweep
    min_slack = min(report.slack_geometric for report in reports)

    sx = make_hermitian([[0, 1], [1, 0]])
    sy = make_hermitian([[0, -1j], [1j, 0]])
    grid_error = 0.0
    product_error = 0.0
    for p in np.linspace(0.5, 1.0, 51):
        point = orbit_point(make_hermitian(np.diag([p, 1 - p]).astype(complex)))
        bound = geometric_bound(sx, sy, point, CFG)
        grid_error = max(grid_error, abs(bound - abs(2 * p - 1)))
        product = uncertainty(sx, point, CFG) * uncertainty(sy, point, CFG)
        product_error = max(product_error, abs(product - 1.0))
    passed = (min_slack >= -1e-10 and grid_error <= 1e-12
              and product_error <= 1e-12 and elapsed < 60.0)
    _announce(4, "geometric uncertainty bound", passed,
              f"min slack {min_slack:.3e} over 10^4 triples ({elapsed:.1f}s), "
              f"qubit grid error {grid_error:.2e}, product error {product_error:.2e}")
    assert min_slack >= -1e-10
    assert grid_error <= 1e-12
    assert product_error <= 1e-12
    assert elapsed < 60.0


def test_criterion_5_pure_state_equality():
    rng = np.random.default_rng(55)
    worst = 0.0
    for index in range(1000):
        dim = 2 + index % 5  # dims 2..6
        p = random_density(pure_spectrum(dim), rng)
        a = gaussian_hermitian(dim, rng)
        x = tangent_map(a, p, CFG)
        residual = abs(uncertainty(a, p, CFG) ** 2
                       - 0.5 * hermitian_product(x, x, CFG).real)
        worst = max(worst, residual)
    passed = worst <= 1e-10
    _announce(5, "pure-state equality", passed,
              f"max residual {worst:.3e} (tol 1e-10) over 1000 rank-1 cases")
    assert worst <= 1e-10


def test_criterion_6_integrability():
    rng = np.random.default_rng(66)
    involutivity_worst = 0.0
    for dim in (2, 3, 4, 5, 6):
        p = random_density(random_spectrum(dim, rng, max_clusters=4), rng)
        report = involutivity_check(p, samples=50, seed=rng)
        involutivity_worst = max(involutivity_worst, report.max_residual)

    steps = [1e-3 / 2 ** j for j in range(7)]  # 1e-3 down to ~1.6e-5
    floor = 2e-9  # below this, eigensolver noise dominates and ratios detach
    ratio_band_ok = True
    measured = 0
    terminal_worst = 0.0
    for dim in (3, 4):
        while True:
            p = random_density(random_spectrum(dim, rng, max_clusters=3), rng)
            if p.spectrum.k >= 2:
                break
        a = gaussian_hermitian(dim, rng)
        b = gaussian_hermitian(dim, rng)
        c = gaussian_hermitian(dim, rng)
        for values in (
            [nijenhuis_fd(a, b, p, Config(fd_step=h)) for h in steps],
            [closedness_check(a, b, c, p, Config(fd_step=h)) for h in steps],
        ):
            for coarse, fine in zip(values, values[1:]):
                if fine > floor:
                    measured += 1
                    if not 3.5 <= coarse / fine <= 4.5:
                        ratio_band_ok = False
            terminal_worst = max(terminal_worst, values[-1])

    passed = (involutivity_worst <= 1e-12 and ratio_band_ok
              and measured >= 3 and terminal_worst <= 1e-6)
    _announce(6, "integrability", passed,
              f"involutivity {involutivity_worst:.2e} (tol 1e-12), "
              f"{measured} halving ratios in [3.5, 4.5]: {ratio_band_ok}, "
              f"terminal FD residual {terminal_worst:.3e} (tol 1e-6)")
    assert involutivity_worst <= 1e-12
    assert ratio_band_ok and measured >= 3
    assert terminal_worst <= 1e-6


def _scalar_panel(a, b, p):
    x = tangent_map(a, p, CFG)
    y = tangent_map(b, p, CFG)
    h = hermitian_product(x, y, CFG)
    return np.array([
        symplectic(a, b, p, CFG),
        metric(x, y, CFG),
        h.real,
        h.imag,
        uncertainty(a, p, CFG),
        geometric_bound(a, b, p, CFG),
        rs_bound(a, b, p, CFG),
    ])


def test_criterion_7_equivariance_and_gauge():
    rng = np.random.default_rng(70)
    worst = 0.0
    for index in range(500):
        dim = DIMS[index % len(DIMS)]
        p = random_density(random_spectrum(dim, rng, max_clusters=4, max_mult=3), rng)
        a = gaussian_hermitian(dim, rng)
        b = gaussian_hermitian(dim, rng)
        reference = _scalar_panel(a, b, p)
        u = haar_unitary(dim, rng)
        conjugated = _scalar_panel(conjugate(a, u, CFG), conjugate(b, u, CFG),
                                   conjugate_point(p, u, CFG))
        gauged = _scalar_panel(a, b, with_gauge(p, random_gauge(p, rng), CFG))
        worst = max(worst, float(np.max(np.abs(conjugated - reference))),
                    float(np.max(np.abs(gauged - reference))))
    passed = worst <= 1e-9
    _announce(7, "Ad-equivariance and gauge invariance", passed,
              f"max scalar deviation {worst:.3e} (tol 1e-9) over 500 cases")
    assert worst <= 1e-9


def test_criterion_8_dynamics():
    rng = np.random.default_rng(80)
    drift_worst = 0.0
    composition_worst = 0.0
    for index in range(20):
        dim = DIMS[index % len(DIMS)]
        p = random_density(random_spectrum(dim, rng), rng)
        h = gaussian_hermitian(dim, rng)
        traj = trajectory(p, h, t_max=2.0, steps=5, cfg=CFG)
        for point in traj.points:
            eigenvalues = np.sort(np.linalg.eigvalsh(point.rho))[::-1]
            drift_worst = max(drift_worst, float(np.max(np.abs(
                eigenvalues - p.spectrum.full_values()))))
        s, t = rng.uniform(-2, 2, size=2)
        left = evolve(evolve(p, h, float(s), CFG), h, float(t), CFG)
        right = evolve(p, h, float(s + t), CFG)
        composition_worst = max(composition_worst,
                                float(np.max(np.abs(left.rho - right.rho))))

    ehrenfest_ok = True
    measured = 0
    for dim in (2, 4, 6):
        p = random_density(random_spectrum(dim, rng), rng)
        a = gaussian_hermitian(dim, rng)
        h = gaussian_hermitian(dim, rng)
        coarse = ehrenfest_check(a, h, p, Config(fd_step=1e-3))
        fine = ehrenfest_check(a, h, p, Config(fd_step=5e-4))
        if fine > 1e-10:
            measured += 1
            if not 3.5 <= coarse / fine <= 4.5:
                ehrenfest_ok = False

    passed = (drift_worst <= 1e-10 and composition_worst <= 1e-10
              and ehrenfest_ok and measured >= 1)
    _announce(8, "dynamics", passed,
              f"spectrum drift {drift_worst:.3e}, composition {composition_worst:.3e} "
              f"(tol 1e-10), Ehrenfest quadratic over {measured} instances: {ehrenfest_ok}")
    assert drift_worst <= 1e-10
    assert composition_worst <= 1e-10
    assert ehrenfest_ok and measured >= 1


def test_criterion_9_robertson_schrodinger(bound_sweep):
    reports, _ = bound_sweep
    min_slack = min(report.slack_rs for report in reports)

    sx = make_hermitian([[0, 1], [1, 0]])
    sy = make_hermitian([[0, -1j], [1j, 0]])
    agreement = 0.0
    for p in np.linspace(0.5, 1.0, 51):
        point = orbit_point(make_hermitian(np.diag([p, 1 - p]).astype(complex)))
        geometric = geometric_bound(sx, sy, point, CFG)
        robertson = rs_bound(sx, sy, point, CFG)
        agreement = max(agreement, abs(geometric - robertson),
                        abs(robertson - abs(2 * p - 1)))
    passed = min_slack >= -1e-10 and agreement <= 1e-12
    _announce(9, "Robertson-Schrodinger baseline", passed,
              f"min slack {min_slack:.3e} over the shared 10^4 sweep, "
              f"qubit geometric/RS agreement {agreement:.2e} (tol 1e-12)")
    assert min_slack >= -1e-10
    assert agreement <= 1e-12


def test_criterion_10_cli_determinism(tmp_path):
    checks_args = ["checks", "--dims", "2,3", "--samples", "25", "--seed", "3"]
    first, second = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    assert cli_main(checks_args + ["--out", str(first)]) == 0
    assert cli_main(checks_args + ["--out", str(second)]) == 0
    checks_identical = first.read_bytes() == second.read_bytes()

    sx_file = tmp_path / "sx.json"
    sy_file = tmp_path / "sy.json"
    sx_file.write_text(json.dumps(matrix_to_json(np.array([[0, 1], [1, 0]],
                                                          dtype=complex))))
    sy_file.write_text(json.dumps(matrix_to_json(np.array([[0, -1j], [1j, 0]]))))
    sweep_args = ["sweep", "--grid", "0.5:1.0:11", "--a", str(sx_file),
                  "--b", str(sy_file), "--seed", "3"]
    sweep_one, sweep_two = tmp_path / "one.csv", tmp_path / "two.csv"
    assert cli_main(sweep_args + ["--out", str(sweep_one)]) == 0
    assert cli_main(sweep_args + ["--out", str(sweep_two)]) == 0
    sweep_identical = sweep_one.read_bytes() == sweep_two.read_bytes()

    passed = checks_identical and sweep_identical
    _announce(10, "CLI determinism", passed,
              f"checks byte-identical: {checks_identical}, "
              f"sweep byte-identical: {sweep_identical}")
    assert checks_identical
    assert sweep_identical
