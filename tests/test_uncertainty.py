from pathlib import Path

import numpy as np
import pytest

from orbit_kahler import (
    Config,
    DimMismatchError,
    NegativeVarianceError,
    Spectrum,
    TheoremViolationError,
    full_report,
    full_report_batch,
    geometric_bound,
    hermitian_product,
    kahler_evaluation,
    make_hermitian,
    make_spectrum,
    orbit_batch,
    orbit_point,
    random_density,
    rs_bound,
    tangent_map,
    uncertainty,
    variance_decomposition,
)
from orbit_kahler.config import DEFAULT_CONFIG
from orbit_kahler.uncertainty import _mean
from orbit_kahler.sampling import (
    gaussian_hermitian,
    maximally_mixed_spectrum,
    pure_spectrum,
    random_point,
    random_spectrum,
)

from conftest import labelled_point


def expectation(a, p):
    """Tr(rho A) by the kernel that uncertainty, rs_bound and full_report share."""
    return float(_mean(p.rho @ a.matrix, DEFAULT_CONFIG))


class TestExpectation:
    def test_identity_has_unit_mean(self, qubit_point):
        assert expectation(make_hermitian(np.eye(2)), qubit_point) == pytest.approx(1.0)

    def test_sigma_z_value(self, sigma_z, qubit_point):
        assert expectation(sigma_z, qubit_point) == pytest.approx(0.4, abs=1e-14)

    def test_off_diagonal_observable_vanishes(self, sigma_x, qubit_point):
        assert expectation(sigma_x, qubit_point) == 0.0

    def test_dim_mismatch(self, qubit_point):
        with pytest.raises(DimMismatchError):
            uncertainty(make_hermitian(np.eye(3)), qubit_point)


class TestUncertainty:
    def test_identity_sharp(self, qubit_point):
        assert uncertainty(make_hermitian(np.eye(2)), qubit_point) == 0.0

    def test_sigma_x_unit_for_any_p(self, sigma_x):
        # Tr(rho sx^2) = 1 and <sx> = 0 whenever rho is diagonal
        for p in (0.55, 0.7, 0.95):
            point = orbit_point(make_hermitian(np.diag([p, 1 - p]).astype(complex)))
            assert uncertainty(sigma_x, point) == pytest.approx(1.0, abs=1e-14)

    def test_sigma_z_value(self, sigma_z, qubit_point):
        assert uncertainty(sigma_z, qubit_point) == pytest.approx(np.sqrt(0.84),
                                                                  abs=1e-14)

    def test_negative_variance_guard(self):
        # white box: a corrupted point with a negative "eigenvalue" makes the
        # variance of the matching projector negative, which must be flagged
        fake = labelled_point(np.diag([1.1, -0.1]).astype(complex),
                              Spectrum((1.1, -0.1), (1, 1)),
                              np.eye(2, dtype=complex))
        projector = make_hermitian(np.diag([0.0, 1.0]))
        with pytest.raises(NegativeVarianceError):
            uncertainty(projector, fake)


class TestVarianceDecomposition:
    def test_diagonal_observable_classical(self, qubit_point):
        a = make_hermitian(np.diag([2.0, -1.0]))
        delta_perp_sq, sum_plus, sum_minus = variance_decomposition(a, qubit_point)
        assert sum_plus == 0.0 and sum_minus == 0.0
        # classical variance of (2, -1) under weights (0.7, 0.3)
        mean = 0.7 * 2.0 - 0.3
        expected = 0.7 * 4.0 + 0.3 * 1.0 - mean ** 2
        assert delta_perp_sq == pytest.approx(expected, abs=1e-13)

    def test_pure_state_structure(self):
        rng = np.random.default_rng(0)
        for dim in (2, 4):
            p = random_density(pure_spectrum(dim), rng)
            a = gaussian_hermitian(dim, rng)
            delta_perp_sq, sum_plus, sum_minus = variance_decomposition(a, p)
            assert abs(delta_perp_sq) < 1e-12
            assert sum_plus == pytest.approx(sum_minus, abs=1e-12)

    def test_reassembles_variance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            dim = int(rng.integers(2, 8))
            p = random_point(dim, rng)
            a = gaussian_hermitian(dim, rng)
            delta_perp_sq, sum_plus, sum_minus = variance_decomposition(a, p)
            assert delta_perp_sq + sum_plus == pytest.approx(
                uncertainty(a, p) ** 2, abs=1e-11)
            assert sum_minus <= sum_plus + 1e-12
            x = tangent_map(a, p)
            assert sum_minus == pytest.approx(
                0.5 * hermitian_product(x, x).real, abs=1e-11)


class TestGeometricBound:
    def test_qubit_closed_form(self, sigma_x, sigma_y):
        for p in np.linspace(0.5, 1.0, 11):
            point = orbit_point(make_hermitian(np.diag([p, 1 - p]).astype(complex)))
            bound = geometric_bound(sigma_x, sigma_y, point)
            assert bound == pytest.approx(abs(2 * p - 1), abs=1e-12)
            product = uncertainty(sigma_x, point) * uncertainty(sigma_y, point)
            assert product == pytest.approx(1.0, abs=1e-13)
            assert product >= bound - 1e-12

    def test_commuting_diagonals_zero(self, qubit_point):
        a = make_hermitian(np.diag([1.0, 2.0]))
        b = make_hermitian(np.diag([3.0, -1.0]))
        assert geometric_bound(a, b, qubit_point) == 0.0

    def test_pre_schwarz_self_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            dim = int(rng.integers(2, 7))
            p = random_point(dim, rng)
            a = gaussian_hermitian(dim, rng)
            assert geometric_bound(a, a, p) <= uncertainty(a, p) ** 2 + 1e-11


def _pure_degenerate_mixed(dim):
    """The pure and the maximally mixed spectrum, and from dim 3 one with three
    clusters, two of them degenerate once dim reaches 5."""
    spectra = [pure_spectrum(dim), maximally_mixed_spectrum(dim)]
    if dim >= 3:
        mults = [1, (dim - 1) // 2, dim - 1 - (dim - 1) // 2]
        levels = np.array([3.0, 2.0, 1.0])
        spectra.append(make_spectrum(levels / np.dot(mults, levels), mults))
    return spectra


class TestLiftPairing:
    """full_report's frame pairing against the definitional chain and the
    closed block form, across dims, spectra, hbar and operand scale."""

    DIMS = [*range(1, 13), 16, 32]

    @pytest.mark.parametrize("hbar", [1.0, 0.7])
    @pytest.mark.parametrize("dim", DIMS)
    def test_matches_chain_and_closed_form(self, dim, hbar):
        cfg = Config(hbar=hbar)
        rng = np.random.default_rng(dim)
        for spectrum in _pure_degenerate_mixed(dim):
            p = random_density(spectrum, rng, cfg)
            a, b = gaussian_hermitian(dim, rng), gaussian_hermitian(dim, rng)
            bound = full_report(a, b, p, cfg).geometric_bound
            tol = 1e-12 * max(1.0, np.linalg.norm(a.matrix) * np.linalg.norm(b.matrix))
            chain = hermitian_product(tangent_map(a, p, cfg), tangent_map(b, p, cfg), cfg)
            assert abs(bound - 0.5 * hbar * abs(chain)) <= tol
            assert abs(bound - 0.5 * hbar * abs(kahler_evaluation(a, b, p, cfg).h)) <= tol

    @pytest.mark.parametrize("hbar", [1.0, 0.7])
    @pytest.mark.parametrize("dim", DIMS)
    def test_batch_rows_equal_full_report(self, dim, hbar):
        cfg = Config(hbar=hbar)
        rng = np.random.default_rng(100 + dim)
        batch = orbit_batch([random_density(s, rng, cfg).rho
                             for s in _pure_degenerate_mixed(dim)], cfg)
        a, b = gaussian_hermitian(dim, rng), gaussian_hermitian(dim, rng)
        report = full_report_batch(a, b, batch, cfg)
        for i in range(len(batch)):
            row = full_report(a, b, batch[i], cfg)
            assert all(getattr(report, name)[i] == value for name, value in vars(row).items())

    @pytest.mark.parametrize("hbar", [1.0, 0.7])
    @pytest.mark.parametrize("dim", DIMS)
    def test_bound_scales_quadratically(self, dim, hbar):
        # unit Frobenius norm operands: the tolerances are absolute and
        # calibrated for unit-scale matrices, so c stops at 1e3
        cfg = Config(hbar=hbar)
        rng = np.random.default_rng(200 + dim)
        for spectrum in _pure_degenerate_mixed(dim):
            p = random_density(spectrum, rng, cfg)
            a, b = (gaussian_hermitian(dim, rng) for _ in range(2))
            a, b = (make_hermitian((1.0 / np.linalg.norm(m.matrix)) * m.matrix) for m in (a, b))
            bound = full_report(a, b, p, cfg).geometric_bound
            for c in 10.0 ** np.arange(-6, 4):
                scaled = full_report(make_hermitian(c * a.matrix), make_hermitian(c * b.matrix),
                                     p, cfg).geometric_bound
                assert scaled == pytest.approx(c * c * bound, rel=1e-12, abs=0.0)


class TestTraceMoments:
    """full_report's variances and RS bound, read as traces of rho A and rho B,
    against the formulas with explicit products, across dims, spectra and hbar."""

    @pytest.mark.parametrize("hbar", [1.0, 0.7])
    @pytest.mark.parametrize("dim", TestLiftPairing.DIMS)
    def test_matches_explicit_products(self, dim, hbar):
        cfg = Config(hbar=hbar)
        rng = np.random.default_rng(300 + dim)
        for spectrum in _pure_degenerate_mixed(dim):
            p = random_density(spectrum, rng, cfg)
            a, b = gaussian_hermitian(dim, rng), gaussian_hermitian(dim, rng)
            report = full_report(a, b, p, cfg)
            rho, ma, mb = p.rho, a.matrix, b.matrix
            for delta, m in ((report.deltaA, ma), (report.deltaB, mb)):
                variance = np.trace(rho @ m @ m).real - np.trace(rho @ m).real ** 2
                assert abs(delta ** 2 - variance) <= 1e-12 * max(1.0, np.linalg.norm(m) ** 2)
            mean_a, mean_b = np.trace(rho @ ma).real, np.trace(rho @ mb).real
            symmetrized = np.trace(rho @ (ma @ mb + mb @ ma)).real / 2.0 - mean_a * mean_b
            commutator = np.trace(rho @ (ma @ mb - mb @ ma)).imag / 2.0
            tol = 1e-12 * max(1.0, np.linalg.norm(ma) * np.linalg.norm(mb))
            assert abs(report.rs_bound - np.hypot(symmetrized, commutator)) <= tol
            # the single-quantity functions run the same kernels
            assert uncertainty(a, p, cfg) == report.deltaA
            assert rs_bound(a, b, p, cfg) == report.rs_bound


class TestRsBound:
    def test_qubit_value(self, sigma_x, sigma_y, qubit_point):
        # anticommutator term 0, commutator term |<sz>| = 0.4
        assert rs_bound(sigma_x, sigma_y, qubit_point) == pytest.approx(0.4, abs=1e-13)

    def test_self_pairing_covariance(self, qubit_point):
        rng = np.random.default_rng(3)
        a = gaussian_hermitian(2, rng)
        variance = uncertainty(a, qubit_point) ** 2
        assert rs_bound(a, a, qubit_point) == pytest.approx(variance, abs=1e-11)

    def test_never_violated_random_sweep(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            dim = int(rng.integers(2, 8))
            p = random_point(dim, rng)
            a = gaussian_hermitian(dim, rng)
            b = gaussian_hermitian(dim, rng)
            product = uncertainty(a, p) * uncertainty(b, p)
            assert product >= rs_bound(a, b, p) - 1e-10


class TestFullReport:
    def test_qubit_reference_case(self, sigma_x, sigma_y, qubit_point):
        report = full_report(sigma_x, sigma_y, qubit_point)
        assert report.deltaA == pytest.approx(1.0, abs=1e-13)
        assert report.deltaB == pytest.approx(1.0, abs=1e-13)
        assert report.product == pytest.approx(1.0, abs=1e-13)
        assert report.geometric_bound == pytest.approx(0.4, abs=1e-13)
        assert report.rs_bound == pytest.approx(0.4, abs=1e-13)
        assert report.slack_geometric == pytest.approx(0.6, abs=1e-13)
        assert report.slack_rs == pytest.approx(0.6, abs=1e-13)

    def test_identity_pair_all_zero(self, qubit_point):
        eye = make_hermitian(np.eye(2))
        report = full_report(eye, eye, qubit_point)
        assert report.deltaA == report.deltaB == report.product == 0.0
        assert report.geometric_bound == 0.0 and report.rs_bound == 0.0

    def test_single_cluster_orbit_zero_bounds(self):
        p = orbit_point(make_hermitian(np.eye(3) / 3.0))
        rng = np.random.default_rng(5)
        report = full_report(gaussian_hermitian(3, rng), gaussian_hermitian(3, rng), p)
        assert report.geometric_bound <= 1e-13

    def test_pure_state_self_slack_zero(self):
        rng = np.random.default_rng(6)
        p = random_density(pure_spectrum(3), rng)
        a = gaussian_hermitian(3, rng)
        report = full_report(a, a, p)
        # bound = (1/2) h(X_A, X_A) = dA^2 = product for pure states
        assert report.slack_geometric == pytest.approx(0.0, abs=1e-11)

    def test_shift_invariance(self):
        rng = np.random.default_rng(7)
        p = random_point(4, rng)
        a = gaussian_hermitian(4, rng)
        b = gaussian_hermitian(4, rng)
        shifted = make_hermitian(a.matrix + 3.7 * np.eye(4))
        before = full_report(a, b, p)
        after = full_report(shifted, b, p)
        assert after.deltaA == pytest.approx(before.deltaA, abs=1e-11)
        assert after.geometric_bound == pytest.approx(before.geometric_bound, abs=1e-11)
        assert after.rs_bound == pytest.approx(before.rs_bound, abs=1e-11)
        assert after.slack_geometric == pytest.approx(before.slack_geometric, abs=1e-11)

    def test_theorem_violation_guard(self, sigma_x, sigma_y, qubit_point):
        # white box: lie about the spectrum so the lifted generator (and with
        # it the bound) is inflated past the product; must raise, not return
        lying = labelled_point(qubit_point.rho, make_spectrum([0.55, 0.45], [1, 1]),
                               qubit_point.frame)
        with pytest.raises(TheoremViolationError):
            full_report(sigma_x, sigma_y, lying)


def _single_point_lines(seed=0, repeat=2, dims=(16, 16, 16, 32)):
    """One line per unit of the benchmark's library loop at large dims: the
    eigenvalues of orbit_point, the 7 full_report fields and the omega and
    metric of kahler_evaluation, each as the repr of its Python floats."""
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(repeat):
        for dim in dims:
            spectrum = random_spectrum(dim, rng, max_clusters=8, max_mult=6)
            rho = make_hermitian(random_density(spectrum, rng).rho)
            a, b = gaussian_hermitian(dim, rng), gaussian_hermitian(dim, rng)
            p = orbit_point(rho)
            report = full_report(a, b, p)
            e = kahler_evaluation(a, b, p)
            lines += [f"d={dim} eigenvalues={p.eigenvalues.tolist()!r}",
                      f"d={dim} full_report={list(vars(report).values())!r}",
                      f"d={dim} kahler_evaluation={[e.omega, e.metric]!r}"]
    return "".join(line + "\n" for line in lines)


def test_single_point_golden_large_dims():
    # the single-point path at d = 16 and 32, degenerate spectra, bit for bit
    golden = Path(__file__).parent / "data" / "single_point_d16_d32_seed0.txt"
    assert _single_point_lines() == golden.read_text()
