import math
import tracemalloc

import numpy as np
import pytest

import orbit_kahler.operators as operators_module
from orbit_kahler import (
    CheckReport,
    Config,
    DegenerateDriftError,
    NonRealResultError,
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
from orbit_kahler.integrability import _case, _involutivity, _nondegeneracy
from orbit_kahler.kahler import _j, _j_factor, _omega
from orbit_kahler.operators import _normals
from orbit_kahler.sampling import (
    _gaussian,
    gaussian_hermitian,
    maximally_mixed_spectrum,
    pure_spectrum,
    random_point,
    random_spectrum,
)
from orbit_kahler.serialize import check_report_to_json, dumps
from orbit_kahler.tangent import _framed_tangent


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


# The per-sample loops the stacked panel kernels replaced, with the draws and
# the tie rule they used, as references for the kernels.

def _reference_normals(dim, rng):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def _reference_worst(pairs):
    worst = (0.0, {})
    for pair in pairs:
        if pair[0] >= worst[0] or math.isnan(pair[0]):
            worst = pair
    return worst


def _reference_involutivity(p, samples, rng, cfg):
    factor = _j_factor(p)
    upper, lower = factor == 1j, factor == -1j
    scale = 1.0
    pairs = []
    for index in range(samples):
        upper_a = np.where(upper, _reference_normals(p.dim, rng), 0.0)
        upper_b = np.where(upper, _reference_normals(p.dim, rng), 0.0)
        commutator = upper_a @ upper_b - upper_b @ upper_a
        residual = float(np.max(np.abs(commutator), where=lower, initial=0.0))
        scale = max(scale, float(np.linalg.norm(upper_a) * np.linalg.norm(upper_b)))
        pairs.append((residual, _case(p, index)))
    max_residual, worst = _reference_worst(pairs)
    return max_residual, samples, 100.0 * np.finfo(float).eps * scale, worst


def _reference_nondegeneracy(p, samples, rng, cfg):
    if p.spectrum.k == 1:
        note = {"note": "single-cluster orbit: tangent space is zero", "dim": p.dim}
        return 0.0, samples, cfg.tol_check, note
    floor = cfg.hbar / p.spectrum.span
    max_deficit = 0.0
    smallest_witness = np.inf
    worst = _case(p, 0, floor=floor)
    for index in range(samples):
        z = _reference_normals(p.dim, rng)
        x = _framed_tangent(0.5 * (z + z.conj().T), p, cfg.hbar)
        squared = float(np.linalg.norm(x)) ** 2
        if squared == 0.0:
            continue
        witness = abs(float(_omega(x, _j(x, p, cfg), p, cfg))) / squared
        deficit = max(0.0, floor - witness)
        if witness < smallest_witness:
            smallest_witness = witness
            worst["sample"] = index
            worst["smallest_witness"] = witness
        max_deficit = max(max_deficit, deficit)
    return max_deficit, samples, cfg.tol_check, worst


_PANELS = [("involutivity", _involutivity, _reference_involutivity),
           ("nondegeneracy", _nondegeneracy, _reference_nondegeneracy)]
_SPECTRA = [lambda dim, rng: random_spectrum(dim, rng), lambda dim, rng: pure_spectrum(dim),
            lambda dim, rng: maximally_mixed_spectrum(dim)]


def _report_line(name, fields):
    return dumps(check_report_to_json(CheckReport(name, *fields)))


@pytest.mark.parametrize("hbar", [0.7, 1.0, 2.3])
@pytest.mark.parametrize("entries", [1, None], ids=["one-sample-passes", "default-passes"])
def test_stacked_panels_match_the_per_sample_loops(hbar, entries, monkeypatch):
    # the panel kernels draw and evaluate each pass as one stack; they give the
    # reports of one draw and one evaluation per sample, and leave the stream
    # where those leave it, on random, pure and maximally mixed orbits
    if entries is not None:
        monkeypatch.setattr(operators_module, "_CHUNK_ENTRIES", entries)
    cfg = Config(hbar=hbar)
    for dim in [*range(1, 9), 12]:
        for kind, spectrum in enumerate(_SPECTRA):
            rng = np.random.default_rng([dim, kind])
            p = random_density(spectrum(dim, rng), rng, cfg)
            for samples in (1, 2, 7, 40):
                for name, kernel, reference in _PANELS:
                    stacked, looped = (np.random.default_rng([dim, kind, samples])
                                       for _ in range(2))
                    fields = kernel(p, samples, stacked, cfg)
                    expected = reference(p, samples, looped, cfg)
                    assert CheckReport(name, *fields) == CheckReport(name, *expected)
                    assert _report_line(name, fields) == _report_line(name, expected)
                    assert stacked.bit_generator.state == looped.bit_generator.state


@pytest.mark.parametrize("entries", [1, None], ids=["one-sample-passes", "default-passes"])
def test_stacked_nondegeneracy_raises_the_first_failing_sample(entries, monkeypatch):
    # at tol_check 1e-30 the rounding in the imaginary part of omega fails a
    # sample: the stacked pass raises the error of the sample the loop raises at
    if entries is not None:
        monkeypatch.setattr(operators_module, "_CHUNK_ENTRIES", entries)
    cfg = Config(tol_check=1e-30)
    raised = 0
    for dim in (3, 4, 6, 12):
        rng = np.random.default_rng(dim)
        p = _multi_cluster_point(dim, rng, cfg)
        errors = []
        for kernel in (_nondegeneracy, _reference_nondegeneracy):
            with pytest.raises(Exception) as caught:
                kernel(p, 40, np.random.default_rng(dim), cfg)
            errors.append((type(caught.value), str(caught.value)))
        assert errors[0] == errors[1]
        raised += errors[0][0] is NonRealResultError
    assert raised == 4


@pytest.mark.parametrize("check", [involutivity_check, nondegeneracy_check])
def test_panel_memory_stays_bounded(check):
    # 5000 samples at d = 12 are drawn in passes of about _CHUNK_ENTRIES matrix
    # entries; drawn at once, their normals alone would take 23 MB or more
    p = _multi_cluster_point(12, np.random.default_rng(12))
    tracemalloc.start()
    try:
        report = check(p, 5000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 4e6, peak


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint8)


@pytest.mark.parametrize("dim", range(1, 13))
def test_stacked_draws_are_per_matrix_draws(dim):
    # one standard_normal call per stack gives the bits, signed zeros included,
    # of one call per matrix in row-major order, and leaves the stream in the
    # same state
    for seed in range(50):
        stacked, looped = np.random.default_rng(seed), np.random.default_rng(seed)
        normals = _normals(dim, stacked, 3, 2)
        hermitian = _gaussian(dim, stacked, 4)
        assert np.array_equal(_bits(normals), _bits(np.array(
            [[_reference_normals(dim, looped) for _ in range(2)] for _ in range(3)])))
        z = [_reference_normals(dim, looped) for _ in range(4)]
        assert np.array_equal(_bits(hermitian), _bits(np.array(
            [0.5 * (m + m.conj().T) for m in z])))
        assert stacked.bit_generator.state == looped.bit_generator.state
        assert np.array_equal(_bits(_normals(dim, stacked)),
                              _bits(_reference_normals(dim, looped)))
