import numpy as np
import pytest

from orbit_kahler import (
    BaseMismatchError,
    Config,
    HermitianOperator,
    NonRealResultError,
    NotOffDiagonalError,
    TangentVector,
    apply_J,
    conjugate,
    conjugate_point,
    haar_unitary,
    hermitian_product,
    hermitian_product_blocks,
    j_generator,
    kahler_evaluation,
    lift,
    make_hermitian,
    metric,
    random_density,
    split_kernel,
    symplectic,
    symplectic_tangent,
    tangent_map,
    with_gauge,
)
from orbit_kahler.dynamics import ehrenfest_check
from orbit_kahler.sampling import (
    gaussian_hermitian,
    maximally_mixed_spectrum,
    pure_spectrum,
    random_gauge,
    random_point,
    random_spectrum,
)


def _random_tangent(p, rng, cfg=None):
    from orbit_kahler import DEFAULT_CONFIG
    return tangent_map(gaussian_hermitian(p.dim, rng), p, cfg or DEFAULT_CONFIG)


class TestJGenerator:
    def test_sigma_x_twisted(self, sigma_x, qubit_point):
        # upper entry 1 picks up a factor i
        expected = np.array([[0.0, 1j], [-1j, 0.0]])
        np.testing.assert_allclose(j_generator(sigma_x, qubit_point).matrix,
                                   expected, atol=1e-15)

    def test_double_twist_negates(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = random_point(5, rng)
            off = split_kernel(gaussian_hermitian(5, rng), p)[1]
            twice = j_generator(j_generator(off, p), p)
            np.testing.assert_allclose(twice.matrix, -off.matrix, atol=1e-12)

    def test_zero_maps_to_zero(self, qubit_point):
        zero = make_hermitian(np.zeros((2, 2)))
        assert np.max(np.abs(j_generator(zero, qubit_point).matrix)) == 0.0

    def test_block_diagonal_rejected(self, sigma_z, qubit_point):
        with pytest.raises(NotOffDiagonalError):
            j_generator(sigma_z, qubit_point)


class TestApplyJ:
    def test_j_squared_is_minus_one(self):
        rng = np.random.default_rng(1)
        for dim in range(2, 9):
            for _ in range(10):
                p = random_point(dim, rng)
                x = _random_tangent(p, rng)
                twice = apply_J(apply_J(x))
                assert np.max(np.abs(twice.ambient + x.ambient)) < 1e-12

    def test_zero_fixed(self, qubit_point):
        x = tangent_map(make_hermitian(np.eye(2)), qubit_point)
        assert np.abs(apply_J(x).ambient).max() == 0.0

    def test_qubit_composition(self, sigma_x, qubit_point):
        # J(lambda(sigma_x)) equals lambda of the twisted generator
        twisted = make_hermitian([[0.0, 1j], [-1j, 0.0]])
        expected = tangent_map(twisted, qubit_point)
        out = apply_J(tangent_map(sigma_x, qubit_point))
        np.testing.assert_allclose(out.ambient, expected.ambient, atol=1e-14)


class TestSymplectic:
    def test_self_pairing_vanishes(self):
        rng = np.random.default_rng(2)
        p = random_point(4, rng)
        a = gaussian_hermitian(4, rng)
        assert symplectic(a, a, p) == 0.0

    def test_commuting_diagonals_vanish(self, qubit_point):
        a = make_hermitian(np.diag([1.0, 2.0]))
        b = make_hermitian(np.diag([-1.0, 3.0]))
        assert symplectic(a, b, qubit_point) == 0.0

    def test_qubit_value(self, sigma_x, sigma_y, qubit_point):
        # (1/i) Tr([sx, sy] rho) = 2 (p1 - p2) = 0.8
        assert symplectic(sigma_x, sigma_y, qubit_point) == pytest.approx(0.8, abs=1e-13)

    def test_antisymmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            p = random_point(5, rng)
            a = gaussian_hermitian(5, rng)
            b = gaussian_hermitian(5, rng)
            assert abs(symplectic(a, b, p) + symplectic(b, a, p)) < 1e-12

    def test_hbar_scaling(self, sigma_x, sigma_y, qubit_point):
        from orbit_kahler import Config
        assert symplectic(sigma_x, sigma_y, qubit_point,
                          Config(hbar=2.0)) == pytest.approx(0.4, abs=1e-13)

    def test_corrupted_input_flagged(self, qubit_point):
        # bypasses validation on purpose: a non-Hermitian operand must trip
        # the imaginary-residual guard instead of being silently truncated
        bad = HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
        good = HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        with pytest.raises(NonRealResultError):
            symplectic(bad, good, qubit_point)


class TestSymplecticTangent:
    def test_matches_generator_form(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            p = random_point(4, rng)
            a = gaussian_hermitian(4, rng)
            b = gaussian_hermitian(4, rng)
            via_tangent = symplectic_tangent(tangent_map(a, p), tangent_map(b, p))
            assert abs(via_tangent - symplectic(a, b, p)) < 1e-12

    def test_equals_lifted_pairing(self):
        rng = np.random.default_rng(5)
        p = random_point(3, rng)
        x = _random_tangent(p, rng)
        y = _random_tangent(p, rng)
        direct = symplectic_tangent(x, y)
        relifted = symplectic(lift(x), lift(y), p)
        assert abs(direct - relifted) < 1e-12

    def test_self_pairing_and_qubit_value(self, sigma_x, sigma_y, qubit_point):
        x = tangent_map(sigma_x, qubit_point)
        y = tangent_map(sigma_y, qubit_point)
        assert symplectic_tangent(x, x) == 0.0
        assert symplectic_tangent(x, y) == pytest.approx(0.8, abs=1e-13)

    def test_base_mismatch(self, qubit_point):
        rng = np.random.default_rng(6)
        other = random_point(2, rng)
        with pytest.raises(BaseMismatchError):
            symplectic_tangent(_random_tangent(qubit_point, rng),
                               _random_tangent(other, rng))


class TestMetric:
    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            p = random_point(5, rng)
            x = _random_tangent(p, rng)
            y = _random_tangent(p, rng)
            assert abs(metric(x, y) - metric(y, x)) < 1e-12

    def test_positivity(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            p = random_point(4, rng)
            x = _random_tangent(p, rng)
            if np.linalg.norm(x.ambient) > 1e-10:
                assert metric(x, x) > 0.0

    def test_qubit_value(self, sigma_x, qubit_point):
        # block oracle: 2 (p1 - p2) |A_12|^2 = 2 * 0.4
        x = tangent_map(sigma_x, qubit_point)
        assert metric(x, x) == pytest.approx(0.8, abs=1e-13)


class TestHermitianProduct:
    def test_self_product_real_nonnegative(self):
        rng = np.random.default_rng(9)
        p = random_point(4, rng)
        x = _random_tangent(p, rng)
        value = hermitian_product(x, x)
        assert abs(value.imag) < 1e-13
        assert value.real > 0.0

    def test_zero_vector(self, qubit_point):
        x = tangent_map(make_hermitian(np.eye(2)), qubit_point)
        assert hermitian_product(x, x) == 0.0

    def test_qubit_purely_imaginary(self, sigma_x, sigma_y, qubit_point):
        value = hermitian_product(tangent_map(sigma_x, qubit_point),
                                  tangent_map(sigma_y, qubit_point))
        assert abs(value) == pytest.approx(0.8, abs=1e-13)
        assert abs(value.real) < 1e-13
        assert value.imag == pytest.approx(0.8, abs=1e-13)

    def test_hermitian_symmetry(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            p = random_point(5, rng)
            x = _random_tangent(p, rng)
            y = _random_tangent(p, rng)
            assert abs(hermitian_product(x, y)
                       - np.conj(hermitian_product(y, x))) < 1e-12

    def test_complex_linearity_convention(self):
        # linear in the first slot: h(JX, Y) = i h(X, Y), and conjugate
        # linear in the second: h(X, JY) = -i h(X, Y); real scalars factor out
        rng = np.random.default_rng(11)
        p = random_point(4, rng)
        x = _random_tangent(p, rng)
        y = _random_tangent(p, rng)
        base = hermitian_product(x, y)
        assert abs(hermitian_product(apply_J(x), y) - 1j * base) < 1e-12
        assert abs(hermitian_product(x, apply_J(y)) + 1j * base) < 1e-12
        assert abs(hermitian_product(TangentVector(p, 2.5 * x.ambient), y) - 2.5 * base) < 1e-12


class TestHermitianProductBlocks:
    def test_self_pairing_value(self, sigma_x, qubit_point):
        value = hermitian_product_blocks(sigma_x, sigma_x, qubit_point)
        assert value == pytest.approx(0.8, abs=1e-13)

    def test_cross_pairing_sign_matches_definitional(self, sigma_x, sigma_y,
                                                     qubit_point):
        closed_form = hermitian_product_blocks(sigma_x, sigma_y, qubit_point)
        definitional = hermitian_product(tangent_map(sigma_x, qubit_point),
                                         tangent_map(sigma_y, qubit_point))
        assert abs(closed_form - definitional) < 1e-13
        assert closed_form == pytest.approx(0.8j, abs=1e-13)

    def test_requires_off_diagonal(self, sigma_z, qubit_point):
        with pytest.raises(NotOffDiagonalError):
            hermitian_product_blocks(sigma_z, sigma_z, qubit_point)

    def test_equivalence_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            dim = int(rng.integers(2, 9))
            p = random_point(dim, rng)
            a = split_kernel(gaussian_hermitian(dim, rng), p)[1]
            b = split_kernel(gaussian_hermitian(dim, rng), p)[1]
            closed_form = hermitian_product_blocks(a, b, p)
            definitional = hermitian_product(tangent_map(a, p), tangent_map(b, p))
            scale = max(1.0, abs(definitional))
            assert abs(closed_form - definitional) / scale < 1e-9


class TestHamiltonianField:
    # the Hamiltonian vector field of <A> is tangent_map(A, p)
    def test_identity_generates_zero_field(self, qubit_point):
        assert np.abs(tangent_map(make_hermitian(np.eye(2)), qubit_point).ambient).max() == 0.0

    def test_pairing_is_derivative_of_expectation(self):
        # central-difference d/dt Tr(rho(t) A) along the flow of B
        rng = np.random.default_rng(14)
        for _ in range(5):
            p = random_point(3, rng)
            a = gaussian_hermitian(3, rng)
            b = gaussian_hermitian(3, rng)
            assert ehrenfest_check(a, b, p) < 1e-6


class TestInvariance:
    def test_ad_equivariance_of_scalars(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            dim = int(rng.integers(2, 7))
            p = random_point(dim, rng)
            a = gaussian_hermitian(dim, rng)
            b = gaussian_hermitian(dim, rng)
            u = haar_unitary(dim, rng)
            moved = conjugate_point(p, u)
            before = kahler_evaluation(a, b, p)
            after = kahler_evaluation(conjugate(a, u), conjugate(b, u), moved)
            assert abs(before.omega - after.omega) < 1e-10
            assert abs(before.metric - after.metric) < 1e-10
            assert abs(before.h - after.h) < 1e-10

    def test_gauge_invariance_of_scalars(self):
        rng = np.random.default_rng(16)
        from orbit_kahler import make_spectrum, random_density
        for _ in range(25):
            p = random_density(make_spectrum([0.3, 0.2], [2, 2]), rng)
            a = gaussian_hermitian(4, rng)
            b = gaussian_hermitian(4, rng)
            gauged = with_gauge(p, random_gauge(p, rng))
            before = kahler_evaluation(a, b, p)
            after = kahler_evaluation(a, b, gauged)
            assert abs(before.omega - after.omega) < 1e-10
            assert abs(before.metric - after.metric) < 1e-10

    def test_compatibility(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            p = random_point(5, rng)
            x = _random_tangent(p, rng)
            y = _random_tangent(p, rng)
            assert abs(symplectic_tangent(apply_J(x), apply_J(y))
                       - symplectic_tangent(x, y)) < 1e-12

    def test_evaluation_consistency(self, sigma_x, sigma_y, qubit_point):
        evaluation = kahler_evaluation(sigma_x, sigma_y, qubit_point)
        assert evaluation.h == complex(evaluation.metric, evaluation.omega)


class TestKahlerEvaluation:
    @pytest.mark.parametrize("hbar", [1.0, 0.7])
    def test_closed_form_matches_definitional_chain(self, hbar):
        # kahler_evaluation sums the closed block form over the full generators;
        # hermitian_product runs lift, J and lift on the generated tangent vectors
        cfg = Config(hbar=hbar)
        rng = np.random.default_rng(29)
        for dim in [*range(1, 13), 16, 32]:
            spectra = [random_spectrum(dim, rng, max_clusters=8, max_mult=6, cfg=cfg),
                       pure_spectrum(dim, cfg), maximally_mixed_spectrum(dim, cfg)]
            for spectrum in spectra:
                p = random_density(spectrum, rng, cfg)
                a, b = gaussian_hermitian(dim, rng), gaussian_hermitian(dim, rng)
                evaluation = kahler_evaluation(a, b, p, cfg)
                definitional = hermitian_product(tangent_map(a, p, cfg),
                                                 tangent_map(b, p, cfg), cfg)
                scale = max(1.0, np.linalg.norm(a.matrix) * np.linalg.norm(b.matrix))
                assert abs(evaluation.h - definitional) <= 1e-12 * scale
                assert evaluation.h == complex(evaluation.metric, evaluation.omega)


def _eigh_lift(x, rho, hbar):
    """The lift of the tangent matrix ``x`` solved from [B, rho] = i hbar X entry by
    entry in np.linalg.eigh's frame ``v`` of rho, zero inside each cluster; returns
    B in that frame, J's factor there, and ``v``."""
    w, v = np.linalg.eigh(rho)
    gap = w[None, :] - w[:, None]  # [B, rho] has entries B_ab (w_b - w_a) in this frame
    off = np.abs(gap) > 1e-9
    framed = np.zeros(x.shape, complex)
    framed[off] = 1j * hbar * (v.conj().T @ x @ v)[off] / gap[off]
    return framed, -1j * np.sign(gap) * off, v


@pytest.mark.parametrize("hbar", [1.0, 0.7])
@pytest.mark.parametrize("dim", [*range(2, 9), 16, 32])
def test_framed_kernels_match_commutator_reference(dim, hbar):
    # the reference chain: lift, twist by J's factor, push down by the ambient
    # commutator with rho; omega = Tr([B_X, B_Y] rho) / (i hbar)
    cfg = Config(hbar=hbar)
    rng = np.random.default_rng(dim)
    for _ in range(5):
        spectrum = random_spectrum(dim, rng, max_clusters=8, max_mult=6, cfg=cfg)
        p = random_density(spectrum, rng, cfg)
        x, y = _random_tangent(p, rng, cfg), _random_tangent(p, rng, cfg)
        rho = p.rho
        (bx, factor, v), by = _eigh_lift(x.ambient, rho, hbar), _eigh_lift(y.ambient, rho, hbar)[0]
        lift_x, twisted, lift_y = (v @ m @ v.conj().T for m in (bx, factor * bx, by))
        j_x = (twisted @ rho - rho @ twisted) / (1j * hbar)
        omega, g = (np.trace((b @ lift_y - lift_y @ b) @ rho) / (1j * hbar)
                    for b in (lift_x, twisted))
        # the lift amplifies by 1 / gap and omega pairs two lifts
        min_gap = min(-np.diff(spectrum.values), default=1.0)
        scale = np.linalg.norm(x.ambient) / min_gap
        np.testing.assert_allclose(lift(x, cfg).matrix, lift_x, rtol=0, atol=1e-12 * hbar * scale)
        np.testing.assert_allclose(apply_J(x, cfg).ambient, j_x, rtol=0, atol=1e-12 * scale)
        tol = 1e-12 * hbar * scale * np.linalg.norm(y.ambient) / min_gap
        assert abs(symplectic_tangent(x, y, cfg) - omega) <= tol
        assert abs(hermitian_product(x, y, cfg) - (g.real + 1j * omega.real)) <= tol
