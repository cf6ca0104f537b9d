import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbit_kahler import (
    Config,
    DegenerateGapError,
    DimMismatchError,
    NotDensityError,
    NotHermitianError,
    NotUnitaryError,
    conjugate,
    conjugate_point,
    evolve,
    haar_unitary,
    make_hermitian,
    make_spectrum,
    orbit_point,
    random_density,
    with_gauge,
)
from orbit_kahler.sampling import gaussian_hermitian, random_gauge, random_spectrum


class TestMakeHermitian:
    def test_identity_accepted(self):
        op = make_hermitian(np.eye(2))
        assert op.dim == 2

    def test_pauli_x_accepted(self, sigma_x):
        assert np.array_equal(sigma_x.matrix, np.array([[0, 1], [1, 0]], dtype=complex))

    def test_strictly_upper_rejected(self):
        with pytest.raises(NotHermitianError):
            make_hermitian([[0, 1], [0, 0]])

    def test_non_square_rejected(self):
        with pytest.raises(DimMismatchError):
            make_hermitian(np.zeros((2, 3)))

    def test_non_finite_rejected(self):
        # an inf entry leaves a NaN defect, which no tolerance comparison catches
        for bad in (np.inf, -np.inf, np.nan, complex(0.0, np.inf)):
            with pytest.raises(NotHermitianError, match="non-finite"):
                make_hermitian([[bad, 0], [0, 1]])

    def test_no_silent_symmetrization(self):
        # within tolerance the matrix is kept as-is, not averaged
        almost = np.array([[1.0, 1e-12j], [0.0, 1.0]])
        op = make_hermitian(almost)
        assert op.matrix[1, 0] == 0.0

    def test_arithmetic_stays_hermitian(self, sigma_x, sigma_z):
        combo = 2.0 * sigma_x - sigma_z
        assert np.allclose(combo.matrix, combo.matrix.conj().T)


class TestSpectrum:
    def test_valid_density(self, cfg):
        s = make_spectrum([0.7, 0.3], [1, 1], cfg)
        assert s.total_dim == 2 and s.k == 2

    def test_trace_enforced(self, cfg):
        with pytest.raises(NotDensityError):
            make_spectrum([0.7, 0.4], [1, 1], cfg)

    def test_negative_rejected(self, cfg):
        with pytest.raises(NotDensityError):
            make_spectrum([1.2, -0.2], [1, 1], cfg)

    def test_tiny_negative_clamped(self, cfg):
        s = make_spectrum([1.0 + 1e-9, -1e-9], [1, 1], cfg)
        assert s.values[1] == 0.0

    def test_ordering_enforced(self, cfg):
        with pytest.raises(DegenerateGapError):
            make_spectrum([0.3, 0.7], [1, 1], cfg)

    def test_non_finite_rejected(self, cfg):
        for values in ([np.nan], [np.inf, 0.0], [0.5, np.nan]):
            with pytest.raises(ValueError, match="finite"):
                make_spectrum(values, [1] * len(values), cfg)
            with pytest.raises(ValueError, match="finite"):
                make_spectrum(values, [1] * len(values), cfg, density=False)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_spectrum_is_valid(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 9))
        s = random_spectrum(dim, rng)
        assert s.total_dim == dim
        assert all(a > b for a, b in zip(s.values, s.values[1:]))
        assert abs(s.weighted_sum - 1.0) < 1e-12
        assert max(s.mults) <= 3 and s.k <= 4


class TestOrbitPoint:
    def test_diagonal_density(self, qubit_point):
        assert qubit_point.spectrum.values == (0.7, 0.3)
        assert qubit_point.spectrum.mults == (1, 1)
        assert np.allclose(np.abs(qubit_point.frame), np.eye(2))

    def test_maximally_mixed_single_cluster(self):
        p = orbit_point(make_hermitian(np.eye(2) * 0.5))
        assert p.spectrum.values == (0.5,)
        assert p.spectrum.mults == (2,)

    def test_conjugated_density_same_spectrum(self):
        rho = np.diag([0.7, 0.3]).astype(complex)
        u = haar_unitary(2, 11)
        p = orbit_point(make_hermitian(u @ rho @ u.conj().T))
        assert p.spectrum.mults == (1, 1)
        np.testing.assert_allclose(p.spectrum.values, (0.7, 0.3), atol=1e-12)

    def test_frame_reduces_rho(self):
        rng = np.random.default_rng(3)
        p = random_density(random_spectrum(5, rng), rng)
        residual = p.to_frame(p.rho) - p.diagonal_matrix()
        assert np.max(np.abs(residual)) <= 10 * Config().tol_hermitian

    def test_not_density_rejected(self):
        with pytest.raises(NotDensityError):
            orbit_point(make_hermitian(np.diag([1.2, -0.2]).astype(complex)))
        with pytest.raises(NotDensityError):
            orbit_point(make_hermitian(np.diag([0.7, 0.4]).astype(complex)))

    def test_ambiguous_gap_flagged(self):
        cfg = Config(tol_cluster=1e-3)
        rho = make_hermitian(np.diag([0.5 + 7.5e-4, 0.5 - 7.5e-4]).astype(complex), cfg)
        with pytest.raises(DegenerateGapError):
            orbit_point(rho, cfg)

    def test_gap_just_above_band_ok(self):
        cfg = Config(tol_cluster=1e-3)
        rho = make_hermitian(np.diag([0.5 + 1.5e-3, 0.5 - 1.5e-3]).astype(complex), cfg)
        assert orbit_point(rho, cfg).spectrum.k == 2

    def test_gap_below_merge_tolerance_clusters(self):
        cfg = Config(tol_cluster=1e-3)
        rho = make_hermitian(np.diag([0.5 + 4e-4, 0.5 - 4e-4]).astype(complex), cfg)
        assert orbit_point(rho, cfg).spectrum.mults == (2,)


class TestConjugate:
    def test_identity(self, sigma_x):
        out = conjugate(sigma_x, np.eye(2))
        assert np.allclose(out.matrix, sigma_x.matrix)

    def test_sigma_z_flips_sigma_x(self, sigma_x):
        # direct 2x2 evaluation: sz sx sz = -sx
        sz = np.diag([1.0, -1.0]).astype(complex)
        out = conjugate(sigma_x, sz)
        assert np.allclose(out.matrix, -sigma_x.matrix)

    def test_non_unitary_rejected(self, sigma_x):
        with pytest.raises(NotUnitaryError):
            conjugate(sigma_x, np.diag([2.0, 1.0]))

    def test_non_finite_unitary_rejected(self):
        # a NaN unitarity defect compares False against any tolerance
        with pytest.raises(NotUnitaryError, match="non-finite"):
            conjugate(make_hermitian(np.eye(2)), [[np.nan, 0], [0, 1]])

    def test_non_finite_unitary_moves_no_point(self, qubit_point):
        with pytest.raises(NotUnitaryError, match="non-finite"):
            conjugate_point(qubit_point, [[np.inf, 0], [0, 1]])

    def test_spectrum_invariant_under_conjugation(self):
        # invariant: 100 random (rho, U) pairs per dim
        for dim in range(2, 9):
            rng = np.random.default_rng(dim)
            for _ in range(100):
                p = random_density(random_spectrum(dim, rng), rng)
                u = haar_unitary(dim, rng)
                moved = orbit_point(conjugate(make_hermitian(p.rho), u))
                assert moved.spectrum.mults == p.spectrum.mults
                np.testing.assert_allclose(moved.spectrum.values,
                                           p.spectrum.values, atol=1e-10)


class TestRandomGenerators:
    def test_dim_one_orbit(self, cfg):
        p = random_density(make_spectrum([1.0], [1], cfg), 0)
        assert np.allclose(p.rho, [[1.0]])

    def test_scalar_matrix_frame_independent(self, cfg):
        p = random_density(make_spectrum([0.5], [2], cfg), 123)
        assert np.max(np.abs(p.rho - 0.5 * np.eye(2))) <= cfg.tol_hermitian

    def test_random_density_deterministic(self, cfg):
        s = make_spectrum([0.5, 0.3, 0.2], [1, 1, 1], cfg)
        assert np.array_equal(random_density(s, 42).rho, random_density(s, 42).rho)

    def test_gaussian_hermitian_valid_and_deterministic(self):
        a = gaussian_hermitian(4, np.random.default_rng(5))
        b = gaussian_hermitian(4, np.random.default_rng(5))
        assert np.array_equal(a.matrix, b.matrix)
        make_hermitian(a.matrix)

    def test_gaussian_hermitian_dim_one_real(self):
        a = gaussian_hermitian(1, np.random.default_rng(9))
        assert a.matrix.shape == (1, 1) and a.matrix[0, 0].imag == 0.0

    def test_haar_unitary_is_unitary(self):
        u = haar_unitary(6, 8)
        assert np.max(np.abs(u @ u.conj().T - np.eye(6))) < 1e-12


class TestGauge:
    def test_gauge_preserves_point(self):
        rng = np.random.default_rng(17)
        p = random_density(make_spectrum([0.4, 0.1], [2, 2]), rng)
        gauged = with_gauge(p, random_gauge(p, rng))
        assert np.array_equal(gauged.rho, p.rho)
        assert gauged.spectrum == p.spectrum
        residual = gauged.to_frame(gauged.rho) - gauged.diagonal_matrix()
        assert np.max(np.abs(residual)) < 1e-12

    def test_non_finite_frame_rejected(self):
        # the point validator behind with_gauge, random_density and evolve
        rng = np.random.default_rng(19)
        p = random_density(make_spectrum([0.4, 0.1], [2, 2]), rng)
        gauge = random_gauge(p, rng)
        gauge[0, 0] = np.nan
        with pytest.raises(NotUnitaryError, match="non-finite"):
            with_gauge(p, gauge)
        with pytest.raises(NotUnitaryError, match="non-finite"):
            evolve(p, gaussian_hermitian(4, rng), float("nan"))

    def test_non_block_gauge_rejected(self):
        rng = np.random.default_rng(18)
        p = random_density(make_spectrum([0.4, 0.1], [2, 2]), rng)
        with pytest.raises(NotUnitaryError):
            with_gauge(p, haar_unitary(4, rng))
