import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbit_kahler import (
    BaseMismatchError,
    DimMismatchError,
    NotHermitianError,
    conjugate,
    conjugate_point,
    haar_unitary,
    lift,
    make_hermitian,
    make_tangent,
    random_density,
    split_kernel,
    tangent_map,
)
from orbit_kahler.sampling import gaussian_hermitian, random_point, random_spectrum


class TestTangentMap:
    def test_kernel_gives_zero(self, qubit_point):
        x = tangent_map(make_hermitian(qubit_point.rho), qubit_point)
        assert x.max_norm == 0.0

    def test_qubit_value(self, sigma_x, qubit_point):
        # direct 2x2 evaluation of (1/i)[sigma_x, diag(0.7, 0.3)]
        expected = np.array([[0.0, 0.4j], [-0.4j, 0.0]])
        x = tangent_map(sigma_x, qubit_point)
        np.testing.assert_allclose(x.ambient, expected, atol=1e-15)

    def test_dim_mismatch(self, qubit_point):
        with pytest.raises(DimMismatchError):
            tangent_map(make_hermitian(np.eye(3)), qubit_point)

    @given(st.floats(-5, 5), st.floats(-5, 5), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_linearity(self, a, b, seed):
        rng = np.random.default_rng(seed)
        p = random_point(4, rng)
        h1 = gaussian_hermitian(4, rng)
        h2 = gaussian_hermitian(4, rng)
        combined = tangent_map(a * h1 + b * h2, p)
        separate = a * tangent_map(h1, p) + b * tangent_map(h2, p)
        np.testing.assert_allclose(combined.ambient, separate.ambient, atol=1e-12)

    def test_diagonal_blocks_vanish(self):
        rng = np.random.default_rng(0)
        for dim in (3, 5, 6):
            p = random_point(dim, rng)
            x = tangent_map(gaussian_hermitian(dim, rng), p)
            framed = x.in_frame()
            for s in p.block_slices():
                assert np.max(np.abs(framed[s, s])) < 1e-13

    def test_equivariance(self):
        rng = np.random.default_rng(1)
        p = random_point(4, rng)
        h = gaussian_hermitian(4, rng)
        u = haar_unitary(4, rng)
        moved = tangent_map(conjugate(h, u), conjugate_point(p, u))
        expected = u @ tangent_map(h, p).ambient @ u.conj().T
        np.testing.assert_allclose(moved.ambient, expected, atol=1e-12)


class TestSplitKernel:
    def test_rho_is_its_own_kernel(self, qubit_point):
        kernel, complement = split_kernel(make_hermitian(qubit_point.rho), qubit_point)
        np.testing.assert_allclose(kernel.matrix, qubit_point.rho, atol=1e-14)
        assert np.max(np.abs(complement.matrix)) < 1e-14

    def test_sigma_x_is_pure_complement(self, sigma_x, qubit_point):
        kernel, complement = split_kernel(sigma_x, qubit_point)
        assert np.max(np.abs(kernel.matrix)) < 1e-14
        np.testing.assert_allclose(complement.matrix, sigma_x.matrix, atol=1e-14)

    def test_recombination_oracle(self):
        # lambda kills the kernel part and sees only the complement
        rng = np.random.default_rng(2)
        for _ in range(50):
            dim = int(rng.integers(2, 8))
            p = random_point(dim, rng)
            h = gaussian_hermitian(dim, rng)
            kernel, complement = split_kernel(h, p)
            np.testing.assert_allclose(kernel.matrix + complement.matrix,
                                       h.matrix, atol=1e-13)
            assert tangent_map(kernel, p).max_norm < 1e-13
            np.testing.assert_allclose(tangent_map(h, p).ambient,
                                       tangent_map(complement, p).ambient,
                                       atol=1e-13)

    def test_trace_orthogonality(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            p = random_point(5, rng)
            kernel, complement = split_kernel(gaussian_hermitian(5, rng), p)
            assert abs(np.trace(kernel.matrix @ complement.matrix)) < 1e-13


class TestBlocks:
    # cluster blocks are read off the gap masks of the point
    def test_sigma_x_blocks(self, sigma_x, qubit_point):
        np.testing.assert_allclose(qubit_point.gaps, [[0.0, 0.4], [-0.4, 0.0]], atol=1e-15)
        np.testing.assert_array_equal(qubit_point.same_cluster,
                                      [[True, False], [False, True]])
        framed = qubit_point.to_frame(sigma_x.matrix)
        np.testing.assert_allclose(framed[qubit_point.same_cluster], [0.0, 0.0],
                                   atol=1e-15)
        np.testing.assert_allclose(framed[qubit_point.gaps > 0], [1.0], atol=1e-15)

    def test_sigma_y_upper_block(self, sigma_y, qubit_point):
        framed = qubit_point.to_frame(sigma_y.matrix)
        np.testing.assert_allclose(framed[qubit_point.gaps > 0], [-1j], atol=1e-15)

    def test_reassembly_roundtrip(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            dim = int(rng.integers(2, 8))
            p = random_point(dim, rng)
            h = gaussian_hermitian(dim, rng)
            kernel, complement = split_kernel(h, p)
            rebuilt = kernel + complement
            np.testing.assert_allclose(rebuilt.matrix, h.matrix, atol=1e-12)
            values = p.spectrum.full_values()
            np.testing.assert_array_equal(p.same_cluster,
                                          values[:, None] == values[None, :])
            off_cluster = np.abs(p.to_frame(kernel.matrix))[~p.same_cluster]
            assert np.max(off_cluster, initial=0.0) < 1e-13
            assert np.max(np.abs(p.to_frame(complement.matrix))[p.same_cluster]) < 1e-13


class TestLift:
    def test_zero_maps_to_zero(self, qubit_point):
        x = tangent_map(make_hermitian(np.eye(2)), qubit_point)
        assert np.max(np.abs(lift(x).matrix)) == 0.0

    def test_sigma_x_recovered(self, sigma_x, qubit_point):
        # sigma_x already lies in the complement, so the round trip returns it
        x = tangent_map(sigma_x, qubit_point)
        np.testing.assert_allclose(lift(x).matrix, sigma_x.matrix, atol=1e-14)

    def test_roundtrip_identity_across_dims(self):
        # >= 1000 instances, spectra with and without degeneracies
        rng = np.random.default_rng(5)
        for index in range(1000):
            dim = 2 + index % 7
            p = random_point(dim, rng)
            x = tangent_map(gaussian_hermitian(dim, rng), p)
            back = tangent_map(lift(x), p)
            assert np.max(np.abs(back.ambient - x.ambient)) < 1e-12

    def test_lift_lands_in_complement(self):
        rng = np.random.default_rng(6)
        p = random_point(6, rng)
        x = tangent_map(gaussian_hermitian(6, rng), p)
        kernel, complement = split_kernel(lift(x), p)
        assert np.max(np.abs(kernel.matrix)) < 1e-13

    def test_lift_inverts_on_complement(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = random_point(4, rng)
            complement = split_kernel(gaussian_hermitian(4, rng), p)[1]
            back = lift(tangent_map(complement, p))
            np.testing.assert_allclose(back.matrix, complement.matrix, atol=1e-12)

    def test_degenerate_spectra_roundtrip(self):
        rng = np.random.default_rng(8)
        p = random_density(random_spectrum(6, rng, max_clusters=2), rng)
        assert p.spectrum.k <= 2
        x = tangent_map(gaussian_hermitian(6, rng), p)
        back = tangent_map(lift(x), p)
        assert np.max(np.abs(back.ambient - x.ambient)) < 1e-12


class TestTangentVector:
    def test_base_mismatch_raises(self, qubit_point):
        rng = np.random.default_rng(9)
        other = random_point(2, rng)
        x = tangent_map(gaussian_hermitian(2, rng), qubit_point)
        y = tangent_map(gaussian_hermitian(2, rng), other)
        with pytest.raises(BaseMismatchError):
            _ = x + y

    def test_make_tangent_validates_hermiticity(self, qubit_point):
        with pytest.raises(NotHermitianError):
            make_tangent([[0.0, 1.0], [0.0, 0.0]], qubit_point)

    def test_make_tangent_rejects_non_finite(self, qubit_point):
        with pytest.raises(NotHermitianError, match="non-finite"):
            make_tangent([[np.nan, 0.0], [0.0, 0.0]], qubit_point)

    def test_make_tangent_rejects_diagonal_blocks(self, qubit_point):
        with pytest.raises(NotHermitianError):
            make_tangent(np.diag([1.0, -1.0]), qubit_point)

    def test_make_tangent_accepts_valid(self, qubit_point):
        x = make_tangent([[0.0, 0.4j], [-0.4j, 0.0]], qubit_point)
        assert x.max_norm == pytest.approx(0.4)

    def test_scalar_arithmetic(self, sigma_x, qubit_point):
        x = tangent_map(sigma_x, qubit_point)
        doubled = 2.0 * x
        np.testing.assert_allclose(doubled.ambient, 2.0 * x.ambient)
        np.testing.assert_allclose((doubled - x).ambient, x.ambient)
