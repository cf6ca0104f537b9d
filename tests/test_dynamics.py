import itertools
import math

import numpy as np
import pytest

from orbit_kahler import (
    Config,
    DegenerateDriftError,
    DimMismatchError,
    closedness_check,
    conjugate,
    ehrenfest_check,
    evolve,
    geometric_bound,
    make_hermitian,
    nijenhuis_fd,
    orbit_batch,
    random_density,
    rs_bound,
    symplectic,
    trajectory,
    unitary_propagator,
)
from orbit_kahler.dynamics import Trajectory
from orbit_kahler.sampling import (
    gaussian_hermitian,
    maximally_mixed_spectrum,
    pure_spectrum,
    random_point,
    random_spectrum,
)

from conftest import labelled_point


class TestEvolve:
    def test_zero_time_identity(self, qubit_point, sigma_x):
        moved = evolve(qubit_point, sigma_x, 0.0)
        np.testing.assert_allclose(moved.rho, qubit_point.rho, atol=1e-15)

    def test_commuting_generator_stationary(self, qubit_point, sigma_z):
        for t in (0.3, 1.7, -4.0):
            moved = evolve(qubit_point, sigma_z, t)
            np.testing.assert_allclose(moved.rho, qubit_point.rho, atol=1e-14)

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            dim = int(rng.integers(2, 8))
            p = random_point(dim, rng)
            h = gaussian_hermitian(dim, rng)
            moved = evolve(p, h, float(rng.uniform(-3, 3)))
            assert moved.spectrum == p.spectrum
            eigenvalues = np.sort(np.linalg.eigvalsh(moved.rho))[::-1]
            assert np.max(np.abs(eigenvalues - p.spectrum.full_values())) < 1e-12

    def test_spectrum_with_clamped_equal_values_kept(self):
        # make_spectrum merges -2e-9 and -4e-9, both clamped to 0.0, into one
        # cluster of multiplicity 2; a flowed, conjugated or gauged point,
        # which reads its label from its eigenvalues, keeps that label
        from orbit_kahler import conjugate_point, haar_unitary, make_spectrum, with_gauge
        from orbit_kahler.sampling import random_gauge

        spectrum = make_spectrum([1.0 + 7e-9, -2e-9, -4e-9], [1, 1, 1])
        assert spectrum.mults == (1, 2) and spectrum.values[1:] == (0.0,)
        u = haar_unitary(3, 4)
        p = labelled_point(u @ np.diag(spectrum.full_values()) @ u.conj().T, spectrum, u)
        h = gaussian_hermitian(3, np.random.default_rng(5))
        gauge = random_gauge(p, np.random.default_rng(6))
        assert np.abs(gauge[1:, 1:] - np.eye(2)).max() > 0.1
        moved = [evolve(p, h, 0.4), conjugate_point(p, haar_unitary(3, 6)),
                 with_gauge(p, gauge), *trajectory(p, h, 1.0, 3).points]
        for point in moved:
            assert point.spectrum == spectrum

    def test_flow_composition(self):
        rng = np.random.default_rng(1)
        p = random_point(4, rng)
        h = gaussian_hermitian(4, rng)
        left = evolve(evolve(p, h, 0.6), h, 0.9)
        right = evolve(p, h, 1.5)
        assert np.max(np.abs(left.rho - right.rho)) < 1e-12

    def test_propagator_unitary(self):
        rng = np.random.default_rng(2)
        h = gaussian_hermitian(5, rng)
        u = unitary_propagator(h, 2.3, hbar=1.0)
        assert np.max(np.abs(u @ u.conj().T - np.eye(5))) < 1e-13

    def test_hbar_slows_the_clock(self, qubit_point, sigma_x):
        # evolving for time t at hbar=2 equals time t/2 at hbar=1
        slow = evolve(qubit_point, sigma_x, 1.0, Config(hbar=2.0))
        fast = evolve(qubit_point, sigma_x, 0.5)
        np.testing.assert_allclose(slow.rho, fast.rho, atol=1e-13)

    def test_dim_mismatch(self, qubit_point):
        with pytest.raises(DimMismatchError):
            evolve(qubit_point, make_hermitian(np.eye(3)), 1.0)

    @pytest.mark.parametrize("flow, message", [
        (lambda p, h: unitary_propagator(h, math.nan, 1.0), "flow times must be finite"),
        (lambda p, h: unitary_propagator(h, 1.0, 0.0), "hbar must be finite and strictly"),
        (lambda p, h: unitary_propagator(h, 1.0, -1.0), "hbar must be finite and strictly"),
        (lambda p, h: unitary_propagator(h, 1.0, math.inf), "hbar must be finite"),
        (lambda p, h: evolve(p, h, math.nan), "flow times must be finite"),
        (lambda p, h: evolve(p, h, -math.inf), "flow times must be finite"),
        (lambda p, h: trajectory(p, h, math.nan, 3), "t_max must be finite, got nan"),
        (lambda p, h: trajectory(p, h, math.inf, 3), "t_max must be finite, got inf"),
    ], ids=["propagator-nan-time", "propagator-zero-hbar", "propagator-negative-hbar",
            "propagator-inf-hbar", "evolve-nan", "evolve-minus-inf", "trajectory-nan",
            "trajectory-inf"])
    def test_non_finite_time_or_hbar_is_input_error(self, qubit_point, sigma_x, flow, message):
        # rejected before any propagator or frame is built, so no all-NaN
        # matrix comes back and no RuntimeWarning is raised on the way
        with pytest.raises(ValueError, match=message):
            flow(qubit_point, sigma_x)


class TestEhrenfest:
    def test_energy_conservation(self):
        rng = np.random.default_rng(3)
        p = random_point(3, rng)
        h = gaussian_hermitian(3, rng)
        assert ehrenfest_check(h, h, p) < 1e-9

    def test_identity_conserved(self, qubit_point, sigma_x):
        assert ehrenfest_check(make_hermitian(np.eye(2)), sigma_x, qubit_point) < 1e-10

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_central_difference_is_the_inline_formula(self, dim):
        # the derivative taken through _differences equals, bit for bit,
        # (f(+step) - f(-step)) / (2 step) written out on the flowed pair
        from orbit_kahler.dynamics import _flows

        rng = np.random.default_rng(30 + dim)
        for cfg in (Config(), Config(fd_step=1e-3)):
            for _ in range(10):
                p = random_point(dim, rng)
                a, h = gaussian_hermitian(dim, rng), gaussian_hermitian(dim, rng)
                step = cfg.fd_step
                flowed = _flows(p, h.matrix[None], (step, -step), cfg)
                forward, backward = (flowed.rho @ a.matrix).trace(axis1=-2, axis2=-1).real
                inline = abs((forward - backward) / (2.0 * step) - symplectic(a, h, p, cfg))
                assert ehrenfest_check(a, h, p, cfg) == inline

    def test_quadratic_convergence(self):
        rng = np.random.default_rng(4)
        for dim in (2, 4, 6):
            p = random_point(dim, rng)
            a = gaussian_hermitian(dim, rng)
            h = gaussian_hermitian(dim, rng)
            coarse = ehrenfest_check(a, h, p, Config(fd_step=1e-3))
            fine = ehrenfest_check(a, h, p, Config(fd_step=5e-4))
            assert coarse <= 100 * (1e-3) ** 2
            if fine > 1e-10:
                assert 3.5 <= coarse / fine <= 4.5


class TestTrajectory:
    def test_single_sample_is_start(self, qubit_point, sigma_x):
        traj = trajectory(qubit_point, sigma_x, t_max=0.0, steps=1)
        assert isinstance(traj, Trajectory)
        assert traj.times == (0.0,)
        assert traj.points[0] is qubit_point

    def test_steps_validated(self, qubit_point, sigma_x):
        with pytest.raises(ValueError):
            trajectory(qubit_point, sigma_x, t_max=1.0, steps=0)

    def test_corotated_pairing_constant(self):
        # Ad-invariance: omega with co-rotated observables does not move
        rng = np.random.default_rng(5)
        p = random_point(3, rng)
        h = gaussian_hermitian(3, rng)
        a = gaussian_hermitian(3, rng)
        b = gaussian_hermitian(3, rng)
        reference = symplectic(a, b, p)
        traj = trajectory(p, h, 2.0, 9)
        for t, point in zip(traj.times, traj.points):
            u = unitary_propagator(h, t, hbar=1.0)
            value = symplectic(conjugate(a, u), conjugate(b, u), point)
            assert value == pytest.approx(reference, abs=1e-11)

    def test_bounds_vary_continuously(self):
        # continuity sweep: max step-to-step jump scales down ~linearly when
        # the sampling is refined fourfold
        rng = np.random.default_rng(6)
        p = random_point(3, rng)
        h = gaussian_hermitian(3, rng)
        a = gaussian_hermitian(3, rng)
        b = gaussian_hermitian(3, rng)

        def max_jump(steps):
            traj = trajectory(p, h, 1.0, steps)
            geo = [geometric_bound(a, b, q) for q in traj.points]
            rs = [rs_bound(a, b, q) for q in traj.points]
            jumps = [abs(x - y) for x, y in zip(geo, geo[1:])]
            jumps += [abs(x - y) for x, y in zip(rs, rs[1:])]
            return max(jumps)

        coarse, fine = max_jump(25), max_jump(97)
        assert fine <= coarse / 2.0 + 1e-12


class TestTrajectorySpectra:
    def test_every_sample_on_the_orbit(self):
        rng = np.random.default_rng(7)
        p = random_point(5, rng)
        h = gaussian_hermitian(5, rng)
        traj = trajectory(p, h, t_max=3.0, steps=7)
        for point in traj.points:
            assert point.spectrum == p.spectrum
            residual = point.to_frame(point.rho) - np.diag(point.eigenvalues)
            assert np.max(np.abs(residual)) < 1e-12


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 8])
def test_flow_rows_equal_one_evolve_each(dim):
    # one stacked pass over (generator, time) rows gives, row for row, the
    # point evolve returns alone and the per-matrix propagator's conjugation
    from orbit_kahler.dynamics import _flows

    rng = np.random.default_rng(dim)
    p = random_point(dim, rng)
    generators = [gaussian_hermitian(dim, rng) for _ in range(3)]
    times = (1e-4, -1e-4, 0.7)
    flowed = _flows(p, np.stack([h.matrix for h in generators]), times, Config())
    for name in ("gaps", "same_cluster", "inv_gaps"):
        mask = getattr(flowed, name)
        assert mask.shape == (9, dim, dim)
        assert np.array_equal(mask, np.broadcast_to(getattr(p, name), mask.shape)), name
    for row, (h, t) in enumerate((h, t) for h in generators for t in times):
        alone = evolve(p, h, t)
        w, v = np.linalg.eigh(h.matrix)
        u = (v * np.exp(-1j * w * t)) @ v.conj().T
        rho = u @ p.rho @ u.conj().T
        for point in (flowed[row], alone):
            assert point.spectrum == p.spectrum
            assert np.array_equal(point.rho, 0.5 * (rho + rho.conj().T))
            assert np.array_equal(point.frame, u @ p.frame)
    # a stack of points, one generator each, to shared or per-point times:
    # row (generator, time) holds, at point n, the point evolve gives alone
    batch = orbit_batch([random_point(dim, rng).rho for _ in range(3)])
    h = np.stack([[gaussian_hermitian(dim, rng).matrix for _ in range(3)] for _ in range(2)])
    for times in ((1e-4, -0.7), rng.uniform(-1.0, 1.0, size=(2, 3))):
        flowed = _flows(batch, h, times, Config())
        assert flowed.rho.shape == (4, 3, dim, dim)
        for row, n in itertools.product(range(4), range(3)):
            time = np.asarray(times)[row % 2]
            alone = evolve(batch[n], make_hermitian(h[row // 2, n]),
                           float(time[n] if time.ndim else time))
            for name in ("rho", "frame", "eigenvalues", "frame_dagger"):
                assert np.array_equal(getattr(flowed[row][n], name), getattr(alone, name))


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_stacked_flow_kernels_equal_public_rows(dim, n):
    # each row of a stacked kernel or flow residual is, bit for bit, the
    # public function on that row's point alone
    from orbit_kahler.checks import _flow_composition, _spectrum_preservation
    from orbit_kahler.dynamics import _ehrenfest
    from orbit_kahler.integrability import _closedness, _nijenhuis

    rng = np.random.default_rng(10 * dim + n)
    # random, maximally mixed and pure spectra, degenerate ones included
    spectra = [random_spectrum(dim, rng), maximally_mixed_spectrum(dim), pure_spectrum(dim)]
    batch = orbit_batch([random_density(spectra[i % 3], rng).rho for i in range(n)])
    a, b, c = (np.stack([gaussian_hermitian(dim, rng).matrix for _ in range(n)]) for _ in range(3))
    times = rng.uniform(-1.0, 1.0, size=(n, 2))
    cfg = Config()
    stacked = {
        "nijenhuis": _nijenhuis(a, b, batch, cfg),
        "closedness": _closedness(a, b, c, batch, cfg),
        "ehrenfest": _ehrenfest(a, b, batch, cfg),
        "spectrum": _spectrum_preservation(batch, a, cfg)[0],
        "composition": _flow_composition(batch, a, times, cfg)[0],
    }
    for i in range(n):
        p = batch[i]
        ops = [make_hermitian(m[i]) for m in (a, b, c)]
        traj = trajectory(p, ops[0], 1.0, 5, cfg)
        values = np.sort(np.linalg.eigvalsh(np.stack([q.rho for q in traj.points])))[:, ::-1]
        t0, t1 = times[i]
        two_step = evolve(evolve(p, ops[0], t0, cfg), ops[0], t1, cfg)
        one_step = evolve(p, ops[0], t0 + t1, cfg)
        alone = {
            "nijenhuis": nijenhuis_fd(*ops[:2], p, cfg),
            "closedness": closedness_check(*ops, p, cfg),
            "ehrenfest": ehrenfest_check(*ops[:2], p, cfg),
            "spectrum": float(np.max(np.abs(values - p.eigenvalues))),
            "composition": float(np.max(np.abs(two_step.rho - one_step.rho))),
        }
        assert {key: float(value[i]) for key, value in stacked.items()} == alone


@pytest.mark.parametrize("flow", [
    lambda p, a, b, cfg: evolve(p, a, 0.5, cfg),
    lambda p, a, b, cfg: trajectory(p, a, 1.0, 3, cfg),
    lambda p, a, b, cfg: ehrenfest_check(a, b, p, cfg),
    lambda p, a, b, cfg: nijenhuis_fd(a, b, p, cfg),
    lambda p, a, b, cfg: closedness_check(a, b, a, p, cfg),
], ids=["evolve", "trajectory", "ehrenfest_check", "nijenhuis_fd", "closedness_check"])
def test_every_flow_names_its_drift(sigma_x, sigma_y, qubit_point, flow):
    # an absurdly tight unitarity tolerance makes every flowed point fail
    # validation; whichever entry point flowed it, that surfaces as drift
    # naming the time of the flow, not as a bare frame error
    with pytest.raises(DegenerateDriftError, match="^flow for time .* left the validated "
                                                   "orbit neighborhood: frame unitarity defect"):
        flow(qubit_point, sigma_x, sigma_y, Config(tol_unitary=1e-18))
