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
    haar_unitary,
    make_hermitian,
    make_spectrum,
    orbit_batch,
    orbit_point,
    random_density,
    with_gauge,
)
from orbit_kahler.sampling import gaussian_hermitian, random_gauge, random_spectrum
from orbit_kahler.serialize import spectrum_from_json, spectrum_to_json

from conftest import labelled_point


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

    def test_clusters_clamped_to_zero_merge(self, cfg):
        s = make_spectrum([1.0 + 7e-9, -2e-9, -4e-9], [1, 1, 1], cfg)
        assert (s.values, s.mults) == ((1.000000007, 0.0), (1, 2))
        assert make_spectrum(s.values, s.mults, cfg) == s

    def test_ordering_enforced(self, cfg):
        with pytest.raises(DegenerateGapError):
            make_spectrum([0.3, 0.7], [1, 1], cfg)

    def test_non_finite_rejected(self, cfg):
        for values in ([np.nan], [np.inf, 0.0], [0.5, np.nan]):
            with pytest.raises(ValueError, match="finite"):
                make_spectrum(values, [1] * len(values), cfg)

    def test_fractional_multiplicity_rejected(self, cfg):
        # int() would truncate 2.7 to 2 and build a different spectrum
        with pytest.raises(ValueError, match="integers"):
            make_spectrum([0.5, 0.25], [1, 2.7], cfg)
        assert make_spectrum([0.5, 0.25], [1, 2.0], cfg).mults == (1, 2)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_spectrum_is_valid(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 9))
        s = random_spectrum(dim, rng)
        assert s.total_dim == dim
        assert all(a > b for a, b in zip(s.values, s.values[1:]))
        assert abs(s.full_values().sum() - 1.0) < 1e-12
        assert max(s.mults) <= 3 and s.k <= 4

    def test_random_spectrum_draws_as_numpy_rejection(self, cfg):
        # the rejection test on Python floats makes the decisions, and so
        # the RNG calls, of the numpy reduction it replaced
        def reference(dim, rng, max_clusters, max_mult, min_gap):
            k = int(rng.integers(-(-dim // max_mult), min(max_clusters, dim) + 1))
            while True:
                mults = rng.multinomial(dim - k, [1.0 / k] * k) + 1
                if mults.max() <= max_mult:
                    break
            while True:
                levels = np.sort(rng.uniform(0.1, 1.0, size=k))[::-1]
                if k == 1 or np.min(-np.diff(levels)) >= min_gap:
                    break
            return make_spectrum(levels / float(np.dot(mults, levels)), mults, cfg)

        for kwargs in ((4, 3, .05), (8, 6, .05), (2, 6, .05), (4, 3, 0), (3, 4, .2)):
            for dim in range(1, 13):
                for seed in range(300):
                    rng, expected = np.random.default_rng(seed), np.random.default_rng(seed)
                    s = random_spectrum(dim, rng, *kwargs, cfg=cfg)
                    t = reference(dim, expected, *kwargs)
                    assert (s.values, s.mults) == (t.values, t.mults)
                    assert [type(v) for v in s.values] == [float] * s.k
                    assert [type(m) for m in s.mults] == [int] * s.k
                    assert rng.bit_generator.state == expected.bit_generator.state


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
        residual = p.to_frame(p.rho) - np.diag(p.eigenvalues)
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

    def test_only_a_stack_has_rows(self, qubit_point):
        # one type holds a point and a stack, so only these guards keep a
        # single point from yielding the rows of its matrices
        for read in (len, lambda p: p[0], list):
            with pytest.raises(TypeError, match="a single OrbitPoint has no rows"):
                read(qubit_point)
        assert qubit_point and not orbit_batch(np.zeros((0, 2, 2)))
        stack = orbit_batch([qubit_point.rho] * 3)
        assert len(stack) == len(list(stack)) == 3
        assert stack[2].spectrum == qubit_point.spectrum
        with pytest.raises(TypeError, match="a stack has one spectrum per row"):
            stack.spectrum

    def test_clusters_clamped_to_zero_one_label(self):
        # -2e-9 and -4e-9 are split by their raw gap but both clamp to 0.0
        rho = make_hermitian(np.diag([1.0 + 6e-9, -2e-9, -4e-9]).astype(complex))
        for p in (orbit_point(rho), orbit_batch(rho.matrix[None])[0]):
            assert (p.spectrum.values, p.spectrum.mults) == ((1.000000006, 0.0), (1, 2))
            cluster = np.repeat(np.arange(p.spectrum.k), p.spectrum.mults)
            assert np.array_equal(p.same_cluster, cluster[:, None] == cluster)
            assert random_density(p.spectrum, 0).spectrum == p.spectrum
            assert spectrum_from_json(spectrum_to_json(p.spectrum)) == p.spectrum


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
                s = random_spectrum(dim, rng)
                p = random_density(s, rng)
                u = haar_unitary(dim, rng)
                moved = orbit_point(conjugate(make_hermitian(p.rho), u))
                assert moved.spectrum.mults == p.spectrum.mults
                np.testing.assert_allclose(moved.spectrum.values,
                                           p.spectrum.values, atol=1e-10)
                # a point reads its label from its own eigenvalues, so it is
                # exactly the label it was built with, unlike re-diagonalizing
                assert p.spectrum == conjugate_point(p, u).spectrum == s


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
        residual = gauged.to_frame(gauged.rho) - np.diag(gauged.eigenvalues)
        assert np.max(np.abs(residual)) < 1e-12

    def test_non_finite_frame_rejected(self):
        # the point validator behind with_gauge, random_density and evolve
        rng = np.random.default_rng(19)
        p = random_density(make_spectrum([0.4, 0.1], [2, 2]), rng)
        gauge = random_gauge(p, rng)
        gauge[0, 0] = np.nan
        with pytest.raises(NotUnitaryError, match="non-finite"):
            with_gauge(p, gauge)

    def test_non_block_gauge_rejected(self):
        rng = np.random.default_rng(18)
        p = random_density(make_spectrum([0.4, 0.1], [2, 2]), rng)
        with pytest.raises(NotUnitaryError):
            with_gauge(p, haar_unitary(4, rng))


def _per_matrix_haar(dim, rng):
    """The per-matrix Haar draw that the stacked pass replaced: QR of one
    normal matrix, phases fixed."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 8])
def test_haar_pass_rows_equal_one_point_draws(dim):
    # a stacked pass over draws of one stream gives, row for row, exactly
    # the points and unitaries drawn one at a time from the same stream
    from orbit_kahler.operators import _haar_frames, _haar_points, _normals
    from orbit_kahler.sampling import maximally_mixed_spectrum, pure_spectrum

    cfg = Config()
    rng = np.random.default_rng(100 + dim)
    # random spectra (degenerate ones included) and the one-cluster and
    # rank-one edge cases
    spectra = ([random_spectrum(dim, rng) for _ in range(12)]
               + [maximally_mixed_spectrum(dim), pure_spectrum(dim)])
    stream = np.random.default_rng(dim)
    frames = _haar_frames(np.stack([_normals(dim, stream) for _ in spectra]))
    points = _haar_points(spectra, frames, cfg)
    unitaries, densities, reference = (np.random.default_rng(dim) for _ in range(3))
    for spectrum, frame, point in zip(spectra, frames, points):
        assert np.array_equal(frame, haar_unitary(dim, unitaries))
        alone = random_density(spectrum, densities)
        u = _per_matrix_haar(dim, reference)
        rho = u @ np.diag(spectrum.full_values()) @ u.conj().T
        rho = 0.5 * (rho + rho.conj().T)
        fresh = labelled_point(rho, spectrum, u)
        for other in (alone, fresh):
            assert other.spectrum == point.spectrum
            for name in ("rho", "frame", "eigenvalues", "gaps", "same_cluster", "inv_gaps"):
                assert np.array_equal(getattr(point, name), getattr(other, name)), name


@pytest.mark.parametrize("rows, result, failure, runs", [
    ([0, 5, 0, 7], [0], (1, ValueError, "value 5"), [4, 1]),
    # the prefix before row 2 fails the later check at row 1
    ([0, 1, 5], [0], (1, KeyError, "'value 1'"), [3, 2, 1]),
    ([5, 0], None, (0, ValueError, "value 5"), [2]),
    ([0, 0], [0, 0], None, [2]),
])
def test_passing_hands_back_the_passing_prefix(rows, result, failure, runs):
    # the first failing row's own error comes with the run of the rows
    # before it, and no pass runs twice on the same rows
    from orbit_kahler.operators import _passing, _require

    lengths = []

    def run(stack):
        lengths.append(len(stack))
        _require(stack > 4, ValueError, lambda i: f"value {stack[i]}")
        _require(stack == 1, KeyError, lambda i: f"value {stack[i]}")
        return (10 * stack).tolist()

    done, failed = _passing(run, np.array(rows))
    assert done == result and lengths == runs
    if failure is None:
        assert failed is None
    else:
        m, error = failed
        assert (m, type(error), str(error)) == failure
