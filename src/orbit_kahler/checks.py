"""Sampled verification suites for every structural invariant.

Each suite draws deterministic instances from a seeded stream, evaluates one
invariant across dimensions and spectra (degenerate ones included), and
returns a :class:`CheckReport`; most suites are a draw function for one
sample wrapped by :func:`_sampled`. ``run_checks`` executes the ``_CATALOG``
table; the CLI ``checks`` command is a thin wrapper around it. Passing an
explicit ``spectra`` pool restricts sampling to those orbits.

``perturb_j`` is a fault-injection hook for the J^2 = -1 suite: it adds a
multiple of the input vector to J(J(X)) so the suite must fail, which guards
the plumbing that turns residuals into exit codes.
"""

from __future__ import annotations

import math

import numpy as np

from .config import Config, DEFAULT_CONFIG
from .dynamics import ehrenfest_check, evolve, trajectory
from .integrability import (
    CheckReport,
    _case,
    closedness_check,
    involutivity_check,
    nijenhuis_fd,
    nondegeneracy_check,
)
from .kahler import (
    apply_J,
    hermitian_product,
    hermitian_product_blocks,
    metric,
    symplectic,
    symplectic_tangent,
)
from .operators import (
    _haar_point,
    conjugate,
    conjugate_point,
    haar_unitary,
    make_spectrum,
    with_gauge,
)
from .sampling import (
    gaussian_hermitian,
    maximally_mixed_spectrum,
    pure_spectrum,
    random_gauge,
    random_spectrum,
    random_tangent,
)
from .tangent import lift, split_kernel, tangent_map
from .uncertainty import full_report, uncertainty, variance_decomposition

__all__ = ["CHECK_NAMES", "run_checks"]


class _Instances:
    """Deterministic instance factory shared by all suites.

    Points cycle through the requested dimensions with a fresh random spectrum
    each time (every tenth one maximally mixed so the zero-tangent edge case
    stays covered), or through an explicit spectra pool (validated once, here).
    """

    def __init__(self, dims, rng: np.random.Generator, cfg: Config, pool=None,
                 perturb_j: float = 0.0):
        self.rng = rng
        self.cfg = cfg
        self.perturb_j = perturb_j
        self.pool = [make_spectrum(s.values, s.mults, cfg) for s in pool] if pool else None
        self.dims = (tuple(sorted({s.total_dim for s in self.pool}))
                     if self.pool else tuple(dims))
        self._count = 0

    def point(self, mixed_every: int = 10):
        index = self._count
        self._count += 1
        if self.pool:
            spectrum = self.pool[index % len(self.pool)]
        else:
            dim = self.dims[index % len(self.dims)]
            if mixed_every and index % mixed_every == mixed_every - 1:
                spectrum = maximally_mixed_spectrum(dim, self.cfg)
            else:
                spectrum = random_spectrum(dim, self.rng, cfg=self.cfg)
        return _haar_point(spectrum, self.rng, self.cfg)

    def multi_cluster_point(self):
        """A point whose orbit has a nonzero tangent space (k >= 2)."""
        # every spectrum of dim 1 is a single cluster
        if all(s.k == 1 for s in self.pool) if self.pool else max(self.dims) < 2:
            raise ValueError("the spectra pool or dims give only single-cluster "
                             "orbits; this check needs a nonzero tangent space")
        while True:
            p = self.point(mixed_every=0)
            if p.spectrum.k >= 2:
                return p

    def observable(self, dim: int):
        return gaussian_hermitian(dim, self.rng)


def _report_max(name, pairs, samples, tolerance, **extra):
    """Build a report from (residual, worst_case) pairs; ``extra`` entries
    are appended to the worst case."""
    max_residual = 0.0
    worst = {}
    for residual, case in pairs:
        # a NaN residual is kept, so that it fails the report
        if residual >= max_residual or math.isnan(residual):
            max_residual = residual
            worst = case
    return CheckReport.build(name, max_residual, samples, tolerance, {**worst, **extra})


def _sampled(draw, count=None, tolerance=None):
    """Suite of ``count(samples)`` draws (default ``samples``) gated at
    ``tolerance(cfg)`` (default ``tol_check``); ``draw(inst, index)``
    returns one sample's ``(residual, worst_case)``."""
    def suite(name, inst, samples):
        n = count(samples) if count else samples
        gate = tolerance(inst.cfg) if tolerance else inst.cfg.tol_check
        return _report_max(name, [draw(inst, index) for index in range(n)], n, gate)
    return suite


def _j_squared(inst, index):
    cfg = inst.cfg
    p = inst.point()
    x = random_tangent(p, inst.rng, cfg)
    twice = apply_J(apply_J(x, cfg), cfg)
    residual_matrix = twice.ambient + x.ambient + inst.perturb_j * x.ambient
    return float(np.max(np.abs(residual_matrix))), _case(p, index)


def _omega_antisymmetry(inst, index):
    p = inst.point()
    a = inst.observable(p.dim)
    b = inst.observable(p.dim)
    return abs(symplectic(a, b, p, inst.cfg) + symplectic(b, a, p, inst.cfg)), _case(p, index)


def _metric_symmetry(inst, index):
    p = inst.point()
    x = random_tangent(p, inst.rng, inst.cfg)
    y = random_tangent(p, inst.rng, inst.cfg)
    return abs(metric(x, y, inst.cfg) - metric(y, x, inst.cfg)), _case(p, index)


def _metric_positivity(inst, index):
    p = inst.multi_cluster_point()
    x = random_tangent(p, inst.rng, inst.cfg)
    squared = x.frobenius ** 2
    if squared == 0.0:
        return None
    ratio = metric(x, x, inst.cfg) / squared
    return max(0.0, -ratio), _case(p, index, witness_ratio=float(ratio))


def _check_metric_positivity(name, inst, samples):
    drawn = (_metric_positivity(inst, index) for index in range(samples))
    pairs = [pair for pair in drawn if pair is not None]
    smallest = min((case["witness_ratio"] for _, case in pairs), default=np.inf)
    return _report_max(name, pairs, samples, inst.cfg.tol_check,
                       smallest_witness=float(smallest))


def _compatibility(inst, index):
    cfg = inst.cfg
    p = inst.point()
    x = random_tangent(p, inst.rng, cfg)
    y = random_tangent(p, inst.rng, cfg)
    residual = abs(symplectic_tangent(apply_J(x, cfg), apply_J(y, cfg), cfg)
                   - symplectic_tangent(x, y, cfg))
    return residual, _case(p, index)


def _hermitian_symmetry(inst, index):
    cfg = inst.cfg
    p = inst.point()
    x = random_tangent(p, inst.rng, cfg)
    y = random_tangent(p, inst.rng, cfg)
    residual = abs(hermitian_product(x, y, cfg) - np.conj(hermitian_product(y, x, cfg)))
    return residual, _case(p, index)


def _block_formula(inst, index):
    cfg = inst.cfg
    p = inst.point()
    a_off = split_kernel(inst.observable(p.dim), p)[1]
    b_off = split_kernel(inst.observable(p.dim), p)[1]
    definitional = hermitian_product(tangent_map(a_off, p, cfg),
                                     tangent_map(b_off, p, cfg), cfg)
    closed_form = hermitian_product_blocks(a_off, b_off, p, cfg)
    return abs(closed_form - definitional) / max(1.0, abs(definitional)), _case(p, index)


def _tangent_roundtrip(inst, index):
    cfg = inst.cfg
    p = inst.point()
    h = inst.observable(p.dim)
    x = tangent_map(h, p, cfg)
    roundtrip = tangent_map(lift(x, cfg), p, cfg)
    residual = float(np.max(np.abs(roundtrip.ambient - x.ambient)))
    complement = split_kernel(h, p)[1]
    lifted_back = lift(tangent_map(complement, p, cfg), cfg)
    residual = max(residual, float(np.max(np.abs(lifted_back.matrix - complement.matrix))))
    return residual, _case(p, index)


def _split_orthogonality(inst, index):
    p = inst.point()
    kernel_part, complement_part = split_kernel(inst.observable(p.dim), p)
    residual = abs(complex(np.trace(kernel_part.matrix @ complement_part.matrix)))
    return residual, _case(p, index)


def _scalar_panel(a, b, p, cfg) -> np.ndarray:
    """All public scalars for one (A, B, rho) triple, as a vector."""
    x = tangent_map(a, p, cfg)
    y = tangent_map(b, p, cfg)
    product = hermitian_product(x, y, cfg)
    report = full_report(a, b, p, cfg)
    return np.array([
        symplectic(a, b, p, cfg),
        product.real,
        product.imag,
        report.deltaA,
        report.deltaB,
        report.geometric_bound,
        report.rs_bound,
    ])


def _ad_equivariance(inst, index):
    cfg = inst.cfg
    p = inst.point(mixed_every=0)
    a = inst.observable(p.dim)
    b = inst.observable(p.dim)
    u = haar_unitary(p.dim, inst.rng)
    before = _scalar_panel(a, b, p, cfg)
    after = _scalar_panel(conjugate(a, u, cfg), conjugate(b, u, cfg),
                          conjugate_point(p, u, cfg), cfg)
    return float(np.max(np.abs(after - before))), _case(p, index)


def _gauge_invariance(inst, index):
    cfg = inst.cfg
    p = inst.point(mixed_every=0)
    a = inst.observable(p.dim)
    b = inst.observable(p.dim)
    gauged = with_gauge(p, random_gauge(p, inst.rng), cfg)
    before = _scalar_panel(a, b, p, cfg)
    after = _scalar_panel(a, b, gauged, cfg)
    return float(np.max(np.abs(after - before))), _case(p, index)


def _panel(name, inst, samples, check):
    """Run a per-point ``check`` over max(2, 2 * len(dims)) points and report
    the worst point, with the samples of all points counted."""
    points = [inst.point(mixed_every=4) for _ in range(max(2, 2 * len(inst.dims)))]
    per_point = max(1, samples // len(points))
    reports = [check(p, per_point, inst.rng, inst.cfg) for p in points]
    worst = max(reports, key=lambda r: r.max_residual)
    return CheckReport.build(name, worst.max_residual, per_point * len(points),
                             worst.tolerance, worst.worst_case)


def _check_involutivity(name, inst, samples):
    return _panel(name, inst, samples, involutivity_check)


def _check_nondegeneracy(name, inst, samples):
    return _panel(name, inst, samples, nondegeneracy_check)


def _fd_tolerance(cfg: Config) -> float:
    # calibrated: observed constants are O(10) for unit-scale observables
    return 1e3 * cfg.fd_step ** 2


def _fd_count(samples: int) -> int:
    return max(2, min(10, samples // 25))


def _nijenhuis(inst, index):
    p = inst.multi_cluster_point()
    a = inst.observable(p.dim)
    b = inst.observable(p.dim)
    return nijenhuis_fd(a, b, p, inst.cfg), _case(p, index)


def _closedness(inst, index):
    p = inst.multi_cluster_point()
    a = inst.observable(p.dim)
    b = inst.observable(p.dim)
    c = inst.observable(p.dim)
    return closedness_check(a, b, c, p, inst.cfg), _case(p, index)


def _bound_slack(field):
    """Draw checking one bound of :func:`full_report` by its ``field`` slack."""
    def draw(inst, index):
        p = inst.point()
        report = full_report(inst.observable(p.dim), inst.observable(p.dim), p, inst.cfg)
        slack = getattr(report, field)
        return max(0.0, -slack), _case(p, index, slack=slack)
    return draw


def _pure_state_equality(inst, index):
    cfg = inst.cfg
    dim = inst.dims[index % len(inst.dims)]
    p = _haar_point(pure_spectrum(dim, cfg), inst.rng, cfg)
    a = inst.observable(dim)
    x = tangent_map(a, p, cfg)
    bound_term = 0.5 * cfg.hbar * hermitian_product(x, x, cfg).real
    return abs(uncertainty(a, p, cfg) ** 2 - bound_term), {"sample": index, "dim": dim}


def _variance_identity(inst, index):
    cfg = inst.cfg
    p = inst.point()
    a = inst.observable(p.dim)
    delta_perp_sq, sum_plus, sum_minus = variance_decomposition(a, p, cfg)
    variance = uncertainty(a, p, cfg) ** 2
    residual = abs(variance - (delta_perp_sq + sum_plus))
    x = tangent_map(a, p, cfg)
    residual = max(residual, abs(
        sum_minus - 0.5 * cfg.hbar * hermitian_product(x, x, cfg).real))
    residual = max(residual, max(0.0, sum_minus - sum_plus))
    return residual, _case(p, index)


def _spectrum_preservation(inst, index):
    p = inst.point(mixed_every=0)
    h = inst.observable(p.dim)
    traj = trajectory(p, h, t_max=1.0, steps=5, cfg=inst.cfg)
    drift = 0.0
    for point in traj.points:
        eigenvalues = np.sort(np.linalg.eigvalsh(point.rho))[::-1]
        drift = max(drift, float(np.max(np.abs(eigenvalues - p.spectrum.full_values()))))
    return drift, _case(p, index)


def _flow_composition(inst, index):
    cfg = inst.cfg
    p = inst.point(mixed_every=0)
    h = inst.observable(p.dim)
    s, t = inst.rng.uniform(-1.0, 1.0, size=2)
    two_step = evolve(evolve(p, h, float(s), cfg), h, float(t), cfg)
    one_step = evolve(p, h, float(s + t), cfg)
    return float(np.max(np.abs(two_step.rho - one_step.rho))), {"sample": index, "dim": p.dim}


def _ehrenfest(inst, index):
    p = inst.point(mixed_every=0)
    a = inst.observable(p.dim)
    h = inst.observable(p.dim)
    return ehrenfest_check(a, h, p, inst.cfg), {"sample": index, "dim": p.dim}


_CATALOG = [
    ("j_squared", _sampled(_j_squared)),
    ("omega_antisymmetry", _sampled(_omega_antisymmetry)),
    ("metric_symmetry", _sampled(_metric_symmetry)),
    ("metric_positivity", _check_metric_positivity),
    ("compatibility", _sampled(_compatibility)),
    ("hermitian_symmetry", _sampled(_hermitian_symmetry)),
    ("block_formula", _sampled(_block_formula)),
    ("tangent_roundtrip", _sampled(_tangent_roundtrip)),
    ("split_orthogonality", _sampled(_split_orthogonality)),
    ("ad_equivariance", _sampled(_ad_equivariance)),
    ("gauge_invariance", _sampled(_gauge_invariance)),
    ("involutivity", _check_involutivity),
    ("nondegeneracy", _check_nondegeneracy),
    ("nijenhuis_fd", _sampled(_nijenhuis, count=_fd_count, tolerance=_fd_tolerance)),
    ("closedness_fd", _sampled(_closedness, count=_fd_count, tolerance=_fd_tolerance)),
    ("uncertainty_bound", _sampled(_bound_slack("slack_geometric"))),
    ("rs_baseline", _sampled(_bound_slack("slack_rs"))),
    ("pure_state_equality", _sampled(_pure_state_equality)),
    ("variance_identity", _sampled(_variance_identity)),
    ("spectrum_preservation", _sampled(_spectrum_preservation, count=_fd_count)),
    ("flow_composition", _sampled(_flow_composition, count=_fd_count)),
    ("ehrenfest", _sampled(_ehrenfest, count=_fd_count, tolerance=_fd_tolerance)),
]

CHECK_NAMES = tuple(name for name, _ in _CATALOG)


def run_checks(dims=(2, 3, 4, 5, 6), samples: int = 200, seed: int = 0,
               cfg: Config = DEFAULT_CONFIG, perturb_j: float = 0.0,
               names=None, spectra=None) -> list:
    """Run the full invariant catalog (or the named subset).

    Deterministic given the arguments: every check gets its own child stream
    of the seed, so results do not depend on which other checks run. When
    ``spectra`` (a list of :class:`Spectrum`) is given, sampled orbits are
    drawn from it instead of from random spectra over ``dims``.
    """
    dims = tuple(int(d) for d in dims)
    if not dims or min(dims) < 1:
        raise ValueError(f"dims must be nonempty and >= 1, got {dims}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not math.isfinite(perturb_j):
        raise ValueError(f"perturb_j must be finite, got {perturb_j}")
    selected = set(names) if names is not None else None
    unknown = (selected or set()) - set(CHECK_NAMES)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    children = np.random.SeedSequence(seed).spawn(len(_CATALOG))
    reports = []
    for (name, suite), child in zip(_CATALOG, children):
        if selected is not None and name not in selected:
            continue
        inst = _Instances(dims, np.random.default_rng(child), cfg, pool=spectra,
                          perturb_j=perturb_j)
        reports.append(suite(name, inst, samples))
    return reports
