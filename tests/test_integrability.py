import numpy as np
import pytest

from orbit_kahler import (
    Config,
    DegenerateDriftError,
    apply_J,
    closedness_check,
    involutivity_check,
    make_hermitian,
    make_spectrum,
    nijenhuis_fd,
    nondegeneracy_check,
    orbit_point,
    random_density,
    symplectic_tangent,
    tangent_map,
)
from orbit_kahler.sampling import gaussian_hermitian, random_point


def _multi_cluster_point(dim, rng, cfg=None):
    from orbit_kahler import DEFAULT_CONFIG
    cfg = cfg or DEFAULT_CONFIG
    while True:
        p = random_point(dim, rng, cfg)
        if p.spectrum.k >= 2:
            return p


class TestInvolutivity:
    def test_single_cluster_trivial(self):
        p = orbit_point(make_hermitian(np.eye(3) / 3.0))
        report = involutivity_check(p, samples=10, seed=0)
        assert report.max_residual == 0.0
        assert report.passed

    def test_two_clusters_exact_zero(self):
        # strictly-upper two-block matrices multiply to zero
        rng = np.random.default_rng(1)
        p = random_density(make_spectrum([0.4, 0.1], [2, 2]), rng)
        report = involutivity_check(p, samples=25, seed=2)
        assert report.max_residual == 0.0

    def test_four_clusters(self):
        rng = np.random.default_rng(3)
        p = random_density(make_spectrum([0.4, 0.3, 0.2, 0.1], [1, 1, 1, 1]), rng)
        report = involutivity_check(p, samples=50, seed=4)
        assert report.max_residual <= report.tolerance
        assert report.passed == (report.max_residual <= report.tolerance)

    def test_samples_required(self, qubit_point):
        with pytest.raises(ValueError):
            involutivity_check(qubit_point, samples=0, seed=0)


class TestNijenhuis:
    def test_equal_arguments_exact_zero(self, qubit_point):
        rng = np.random.default_rng(5)
        a = gaussian_hermitian(2, rng)
        assert nijenhuis_fd(a, a, qubit_point) == 0.0

    def test_qubit_quadratic_convergence(self, sigma_x, sigma_y, qubit_point):
        residuals = [nijenhuis_fd(sigma_x, sigma_y, qubit_point, Config(fd_step=h))
                     for h in (1e-3, 5e-4, 2.5e-4)]
        assert residuals[0] <= 10 * 1e-6  # C * fd_step^2 with modest C
        # the qubit orbit is two dimensional, where any J is integrable;
        # residuals just need to stay at discretization scale
        assert all(r <= 1e-5 for r in residuals)

    def test_degenerate_spectra_quadratic(self):
        rng = np.random.default_rng(6)
        for dim, spectrum in ((3, make_spectrum([0.45, 0.1], [2, 1])),
                              (4, make_spectrum([0.35, 0.15], [2, 2]))):
            p = random_density(spectrum, rng)
            a = gaussian_hermitian(dim, rng)
            b = gaussian_hermitian(dim, rng)
            coarse = nijenhuis_fd(a, b, p, Config(fd_step=1e-3))
            fine = nijenhuis_fd(a, b, p, Config(fd_step=5e-4))
            assert coarse <= 100 * (1e-3) ** 2
            if fine > 1e-9:  # above the noise floor the decay is quadratic
                assert 3.5 <= coarse / fine <= 4.5

    def test_drift_guard(self, sigma_x, sigma_y, qubit_point):
        # an absurdly tight unitarity tolerance makes every flowed point fail
        # validation, which must surface as drift, not a generic error
        with pytest.raises(DegenerateDriftError):
            nijenhuis_fd(sigma_x, sigma_y, qubit_point, Config(tol_unitary=1e-18))

    @pytest.mark.parametrize("failing_call, sign", [(1, ""), (2, "-")])
    def test_drift_names_time_of_failing_flow(self, sigma_x, sigma_y, qubit_point,
                                              monkeypatch, failing_call, sign):
        # all flows of the check run as one stack, with the flow of X_A at
        # +fd_step and -fd_step in rows 0 and 1; the error still names the
        # time of the row that failed
        import orbit_kahler.operators as operators
        from orbit_kahler.errors import NotUnitaryError

        row = failing_call - 1
        original = operators._require_frame

        def require_frame(rho, frame, values, cfg):
            point = original(rho, frame, values, cfg)
            if frame.ndim == 3 and len(frame) > row:
                raise operators._BatchFailure(row, NotUnitaryError("injected"))
            return point

        monkeypatch.setattr(operators, "_require_frame", require_frame)
        step = Config().fd_step
        with pytest.raises(DegenerateDriftError,
                           match=f"^flow for time {sign}{step} left .*: injected$"):
            nijenhuis_fd(sigma_x, sigma_y, qubit_point)


class TestClosedness:
    def test_repeated_argument_exact_zero(self):
        rng = np.random.default_rng(7)
        p = _multi_cluster_point(3, rng)
        a = gaussian_hermitian(3, rng)
        c = gaussian_hermitian(3, rng)
        assert closedness_check(a, a, c, p) == 0.0

    def test_diagonal_inputs_exact_zero(self, qubit_point):
        a = make_hermitian(np.diag([1.0, -2.0]))
        b = make_hermitian(np.diag([0.5, 1.5]))
        c = make_hermitian(np.diag([-1.0, 2.0]))
        assert closedness_check(a, b, c, qubit_point) == 0.0

    def test_random_triples_quadratic(self):
        rng = np.random.default_rng(8)
        for dim in (2, 4, 6):
            p = _multi_cluster_point(dim, rng)
            a = gaussian_hermitian(dim, rng)
            b = gaussian_hermitian(dim, rng)
            c = gaussian_hermitian(dim, rng)
            coarse = closedness_check(a, b, c, p, Config(fd_step=1e-3))
            fine = closedness_check(a, b, c, p, Config(fd_step=5e-4))
            assert coarse <= 100 * (1e-3) ** 2
            if fine > 1e-9:
                assert 3.5 <= coarse / fine <= 4.5


class TestNondegeneracy:
    def test_single_cluster_vacuous(self):
        p = orbit_point(make_hermitian(np.eye(4) / 4.0))
        report = nondegeneracy_check(p, samples=5, seed=0)
        assert report.passed and report.max_residual == 0.0

    def test_qubit_witness(self, sigma_x, qubit_point):
        x = tangent_map(sigma_x, qubit_point)
        value = symplectic_tangent(x, apply_J(x))
        assert abs(value) == pytest.approx(0.8, abs=1e-12)

    def test_floor_holds_across_dims(self):
        rng = np.random.default_rng(9)
        for dim in range(2, 9):
            p = _multi_cluster_point(dim, rng)
            report = nondegeneracy_check(p, samples=50, seed=dim)
            assert report.passed
            floor = 1.0 / p.spectrum.span
            assert report.worst_case["smallest_witness"] >= floor - 1e-9

    def test_report_shape(self, qubit_point):
        report = nondegeneracy_check(qubit_point, samples=3, seed=1)
        assert report.check_name == "nondegeneracy"
        assert report.samples == 3
        assert report.passed == (report.max_residual <= report.tolerance)

    def test_reports_deterministic(self, qubit_point):
        assert (nondegeneracy_check(qubit_point, samples=5, seed=3)
                == nondegeneracy_check(qubit_point, samples=5, seed=3))
        assert (involutivity_check(qubit_point, samples=5, seed=3)
                == involutivity_check(qubit_point, samples=5, seed=3))
