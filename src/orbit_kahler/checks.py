"""Sampled verification suites for every structural invariant.

Each suite draws deterministic instances from a seeded stream, evaluates one
invariant across dimensions and spectra (degenerate ones included), and
returns a :class:`CheckReport`. ``run_checks`` executes the ``_CATALOG``
table; the CLI ``checks`` command is a thin wrapper around it. Passing an
explicit ``spectra`` pool restricts sampling to those orbits.

A sample runs in three steps: draw, build, evaluate. Its draw function takes
everything it needs from the stream (spectra and Haar normals of its points,
observables, unitaries) and yields that list, with each point still pending.
``run_checks`` runs the draws of every selected suite first, then builds all
pending points of one dim in one stacked pass (one QR, one frame check),
then sends each sample its list back, points built, to evaluate in draw
order. No step after a yield touches the stream (each panel suite is one
draw, so its checks may), so every suite draws exactly what it drew one
sample at a time.
"""

from __future__ import annotations

import dataclasses
import numbers
from collections import namedtuple
from functools import partial

import numpy as np

from .config import Config, DEFAULT_CONFIG, _integer, _is_integral
from .dynamics import ehrenfest_check, evolve, trajectory
from .integrability import (
    _case,
    _report_max,
    closedness_check,
    involutivity_check,
    nijenhuis_fd,
    nondegeneracy_check,
)
from .kahler import (
    _h_parts,
    apply_J,
    hermitian_product,
    hermitian_product_blocks,
    metric,
    symplectic,
    symplectic_tangent,
)
from .operators import (
    _CHUNK_ENTRIES,
    _haar_frames,
    _haar_points,
    _normals,
    _passing,
    conjugate,
    conjugate_point,
    haar_unitary,
    make_spectrum,
    with_gauge,
)
from .sampling import (
    _random_gauge,
    gaussian_hermitian,
    maximally_mixed_spectrum,
    pure_spectrum,
    random_spectrum,
)
from .tangent import lift, split_kernel, tangent_map
from .uncertainty import _report, full_report, uncertainty, variance_decomposition

__all__ = ["CHECK_NAMES", "run_checks"]


# a pending Haar point: the normals of its frame and its spectrum
_Draw = namedtuple("_Draw", "normals spectrum")


class _Instances:
    """Deterministic instance factory shared by all suites.

    Points cycle through the requested dimensions with a fresh random spectrum
    each time (every tenth one maximally mixed so the zero-tangent edge case
    stays covered), or through an explicit spectra pool (validated once, here).
    Points are pending :class:`_Draw` entries; observables are drawn at once,
    by default in the dim of the last point.
    """

    def __init__(self, dims, rng: np.random.Generator, cfg: Config, pool=None):
        self.rng = rng
        self.cfg = cfg
        self.pool = pool
        self.dims = (tuple(sorted({s.total_dim for s in self.pool}))
                     if self.pool else tuple(dims))
        self._count = 0

    def point(self, mixed_every: int = 10) -> _Draw:
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
        self.dim = spectrum.total_dim
        return _Draw(_normals(self.dim, self.rng), spectrum)

    def multi_cluster_point(self) -> _Draw:
        """A point whose orbit has a nonzero tangent space (k >= 2); the
        rejected draws still take their normals from the stream."""
        # every spectrum of dim 1 is a single cluster
        if all(s.k == 1 for s in self.pool) if self.pool else max(self.dims) < 2:
            raise ValueError("the spectra pool or dims give only single-cluster "
                             "orbits; this check needs a nonzero tangent space")
        while True:
            draw = self.point(mixed_every=0)
            if draw.spectrum.k >= 2:
                return draw

    def observable(self, dim: int | None = None):
        return gaussian_hermitian(dim or self.dim, self.rng)


def _sampled(draw, count=None, tolerance=None):
    """``(draws, report)`` of a suite of ``count(samples)`` draws (default
    ``samples``) gated at ``tolerance(cfg)`` (default ``tol_check``).
    ``draw(inst, index)`` yields what it draws, gets it back with each
    :class:`_Draw` built, and returns one sample's ``(residual, worst_case)``."""
    def draws(inst, samples):
        return (draw(inst, index) for index in range(count(samples) if count else samples))

    def report(name, inst, samples, results):
        gate = tolerance(inst.cfg) if tolerance else inst.cfg.tol_check
        return _report_max(name, results, len(results), gate)
    return draws, report


def _j_squared(inst, index):
    cfg = inst.cfg
    p, h = yield [inst.point(), inst.observable()]
    x = tangent_map(h, p, cfg)
    twice = apply_J(apply_J(x, cfg), cfg)
    return float(np.max(np.abs(twice.ambient + x.ambient))), _case(p, index)


def _omega_antisymmetry(inst, index):
    p, a, b = yield [inst.point(), inst.observable(), inst.observable()]
    return abs(symplectic(a, b, p, inst.cfg) + symplectic(b, a, p, inst.cfg)), _case(p, index)


def _metric_symmetry(inst, index):
    p, h, k = yield [inst.point(), inst.observable(), inst.observable()]
    x, y = tangent_map(h, p, inst.cfg), tangent_map(k, p, inst.cfg)
    return abs(metric(x, y, inst.cfg) - metric(y, x, inst.cfg)), _case(p, index)


def _metric_positivity(inst, index):
    p, h = yield [inst.multi_cluster_point(), inst.observable()]
    x = tangent_map(h, p, inst.cfg)
    squared = x.frobenius ** 2
    if squared == 0.0:
        return None
    ratio = metric(x, x, inst.cfg) / squared
    return max(0.0, -ratio), _case(p, index, witness_ratio=float(ratio))


def _metric_positivity_report(name, inst, samples, results):
    pairs = [pair for pair in results if pair is not None]
    smallest = min((case["witness_ratio"] for _, case in pairs), default=np.inf)
    return _report_max(name, pairs, samples, inst.cfg.tol_check,
                       smallest_witness=float(smallest))


def _compatibility(inst, index):
    cfg = inst.cfg
    p, h, k = yield [inst.point(), inst.observable(), inst.observable()]
    x, y = tangent_map(h, p, cfg), tangent_map(k, p, cfg)
    residual = abs(symplectic_tangent(apply_J(x, cfg), apply_J(y, cfg), cfg)
                   - symplectic_tangent(x, y, cfg))
    return residual, _case(p, index)


def _hermitian_symmetry(inst, index):
    cfg = inst.cfg
    p, h, k = yield [inst.point(), inst.observable(), inst.observable()]
    x, y = tangent_map(h, p, cfg), tangent_map(k, p, cfg)
    residual = abs(hermitian_product(x, y, cfg) - np.conj(hermitian_product(y, x, cfg)))
    return residual, _case(p, index)


def _block_formula(inst, index):
    cfg = inst.cfg
    p, a, b = yield [inst.point(), inst.observable(), inst.observable()]
    a_off = split_kernel(a, p)[1]
    b_off = split_kernel(b, p)[1]
    definitional = hermitian_product(tangent_map(a_off, p, cfg),
                                     tangent_map(b_off, p, cfg), cfg)
    closed_form = hermitian_product_blocks(a_off, b_off, p, cfg)
    return abs(closed_form - definitional) / max(1.0, abs(definitional)), _case(p, index)


def _tangent_roundtrip(inst, index):
    cfg = inst.cfg
    p, h = yield [inst.point(), inst.observable()]
    x = tangent_map(h, p, cfg)
    roundtrip = tangent_map(lift(x, cfg), p, cfg)
    residual = float(np.max(np.abs(roundtrip.ambient - x.ambient)))
    complement = split_kernel(h, p)[1]
    lifted_back = lift(tangent_map(complement, p, cfg), cfg)
    residual = max(residual, float(np.max(np.abs(lifted_back.matrix - complement.matrix))))
    return residual, _case(p, index)


def _split_orthogonality(inst, index):
    p, h = yield [inst.point(), inst.observable()]
    kernel_part, complement_part = split_kernel(h, p)
    residual = abs(complex(np.trace(kernel_part.matrix @ complement_part.matrix)))
    return residual, _case(p, index)


def _scalar_panel(a, b, p, cfg) -> np.ndarray:
    """All public scalars for one (A, B, rho) triple, as a vector; h(X_A, X_B)
    is evaluated once, for the product and for the geometric bound."""
    parts = _h_parts(tangent_map(a, p, cfg).ambient, tangent_map(b, p, cfg).ambient, p, cfg)
    delta_a, delta_b, _, geometric, robertson, _, _ = _report(a, b, p, cfg, parts)
    return np.array([symplectic(a, b, p, cfg), *parts, delta_a, delta_b, geometric,
                     robertson])


def _ad_equivariance(inst, index):
    cfg = inst.cfg
    p, a, b, u = yield [inst.point(mixed_every=0), inst.observable(), inst.observable(),
                        haar_unitary(inst.dim, inst.rng)]
    before = _scalar_panel(a, b, p, cfg)
    after = _scalar_panel(conjugate(a, u, cfg), conjugate(b, u, cfg),
                          conjugate_point(p, u, cfg), cfg)
    return float(np.max(np.abs(after - before))), _case(p, index)


def _gauge_invariance(inst, index):
    cfg = inst.cfg
    draw = inst.point(mixed_every=0)
    a, b = inst.observable(), inst.observable()
    gauge = _random_gauge(draw.spectrum, inst.rng)
    p, = yield [draw]
    gauged = with_gauge(p, gauge, cfg)
    before = _scalar_panel(a, b, p, cfg)
    after = _scalar_panel(a, b, gauged, cfg)
    return float(np.max(np.abs(after - before))), _case(p, index)


def _panel(inst, samples, check):
    """Draw running a per-point ``check`` over max(2, 2 * len(dims)) points;
    it returns the worst point's report and the samples of all points. The
    checks draw from the stream after the points are built, which keeps its
    order because the whole suite is this one draw."""
    points = yield [inst.point(mixed_every=4) for _ in range(max(2, 2 * len(inst.dims)))]
    per_point = max(1, samples // len(points))
    reports = [check(p, per_point, inst.rng, inst.cfg) for p in points]
    return max(reports, key=lambda r: r.max_residual), per_point * len(points)


def _panel_report(name, inst, samples, results):
    (worst, count), = results
    return dataclasses.replace(worst, samples=count)


def _fd_tolerance(cfg: Config) -> float:
    # calibrated: observed constants are O(10) for unit-scale observables
    return 1e3 * cfg.fd_step ** 2


def _fd_count(samples: int) -> int:
    return max(2, min(10, samples // 25))


def _nijenhuis(inst, index):
    p, a, b = yield [inst.multi_cluster_point(), inst.observable(), inst.observable()]
    return nijenhuis_fd(a, b, p, inst.cfg), _case(p, index)


def _closedness(inst, index):
    p, a, b, c = yield [inst.multi_cluster_point(), inst.observable(), inst.observable(),
                        inst.observable()]
    return closedness_check(a, b, c, p, inst.cfg), _case(p, index)


def _bound_slack(field):
    """Draw checking one bound of :func:`full_report` by its ``field`` slack."""
    def draw(inst, index):
        p, a, b = yield [inst.point(), inst.observable(), inst.observable()]
        slack = getattr(full_report(a, b, p, inst.cfg), field)
        return max(0.0, -slack), _case(p, index, slack=slack)
    return draw


def _pure_state_equality(inst, index):
    cfg = inst.cfg
    dim = inst.dims[index % len(inst.dims)]
    p, a = yield [_Draw(_normals(dim, inst.rng), pure_spectrum(dim, cfg)), inst.observable(dim)]
    x = tangent_map(a, p, cfg)
    bound_term = 0.5 * cfg.hbar * hermitian_product(x, x, cfg).real
    return abs(uncertainty(a, p, cfg) ** 2 - bound_term), {"sample": index, "dim": dim}


def _variance_identity(inst, index):
    cfg = inst.cfg
    p, a = yield [inst.point(), inst.observable()]
    delta_perp_sq, sum_plus, sum_minus = variance_decomposition(a, p, cfg)
    variance = uncertainty(a, p, cfg) ** 2
    residual = abs(variance - (delta_perp_sq + sum_plus))
    x = tangent_map(a, p, cfg)
    residual = max(residual, abs(
        sum_minus - 0.5 * cfg.hbar * hermitian_product(x, x, cfg).real))
    residual = max(residual, max(0.0, sum_minus - sum_plus))
    return residual, _case(p, index)


def _spectrum_preservation(inst, index):
    p, h = yield [inst.point(mixed_every=0), inst.observable()]
    traj = trajectory(p, h, t_max=1.0, steps=5, cfg=inst.cfg)
    eigenvalues = np.sort(np.linalg.eigvalsh(np.stack([q.rho for q in traj.points])))[:, ::-1]
    return float(np.max(np.abs(eigenvalues - p.eigenvalues))), _case(p, index)


def _flow_composition(inst, index):
    p, h, (s, t) = yield [inst.point(mixed_every=0), inst.observable(),
                          inst.rng.uniform(-1.0, 1.0, size=2)]
    two_step = evolve(evolve(p, h, s, inst.cfg), h, t, inst.cfg)
    one_step = evolve(p, h, s + t, inst.cfg)
    return float(np.max(np.abs(two_step.rho - one_step.rho))), {"sample": index, "dim": p.dim}


def _ehrenfest(inst, index):
    p, a, h = yield [inst.point(mixed_every=0), inst.observable(), inst.observable()]
    return ehrenfest_check(a, h, p, inst.cfg), {"sample": index, "dim": p.dim}


_CATALOG = [
    ("j_squared", *_sampled(_j_squared)),
    ("omega_antisymmetry", *_sampled(_omega_antisymmetry)),
    ("metric_symmetry", *_sampled(_metric_symmetry)),
    ("metric_positivity", _sampled(_metric_positivity)[0], _metric_positivity_report),
    ("compatibility", *_sampled(_compatibility)),
    ("hermitian_symmetry", *_sampled(_hermitian_symmetry)),
    ("block_formula", *_sampled(_block_formula)),
    ("tangent_roundtrip", *_sampled(_tangent_roundtrip)),
    ("split_orthogonality", *_sampled(_split_orthogonality)),
    ("ad_equivariance", *_sampled(_ad_equivariance)),
    ("gauge_invariance", *_sampled(_gauge_invariance)),
    ("involutivity", lambda inst, samples: [_panel(inst, samples, involutivity_check)],
     _panel_report),
    ("nondegeneracy", lambda inst, samples: [_panel(inst, samples, nondegeneracy_check)],
     _panel_report),
    ("nijenhuis_fd", *_sampled(_nijenhuis, count=_fd_count, tolerance=_fd_tolerance)),
    ("closedness_fd", *_sampled(_closedness, count=_fd_count, tolerance=_fd_tolerance)),
    ("uncertainty_bound", *_sampled(_bound_slack("slack_geometric"))),
    ("rs_baseline", *_sampled(_bound_slack("slack_rs"))),
    ("pure_state_equality", *_sampled(_pure_state_equality)),
    ("variance_identity", *_sampled(_variance_identity)),
    ("spectrum_preservation", *_sampled(_spectrum_preservation, count=_fd_count)),
    ("flow_composition", *_sampled(_flow_composition, count=_fd_count)),
    ("ehrenfest", *_sampled(_ehrenfest, count=_fd_count, tolerance=_fd_tolerance)),
]

CHECK_NAMES = tuple(name for name, _, _ in _CATALOG)


def _evaluate(pending, cfg: Config):
    """Build the points the pending samples drew, one stacked pass per dim,
    and send each sample what it drew, points built, in draw order. A point
    that fails its checks raises its own error once the samples drawn before
    it are evaluated."""
    drawn = [item for _, items, _ in pending for item in items]
    built = list(drawn)
    draws = [i for i, item in enumerate(drawn) if isinstance(item, _Draw)]
    for dim in {drawn[i].spectrum.total_dim for i in draws}:
        rows = [i for i in draws if drawn[i].spectrum.total_dim == dim]
        points, failure = _passing(
            lambda stack: _haar_points([drawn[i].spectrum for i in rows[:len(stack)]], stack, cfg),
            _haar_frames(np.stack([drawn[i].normals for i in rows])))
        # a failing row m is built as its error, and the rows after it not at all
        for i, point in zip(rows, list(points or ()) + ([failure[1]] if failure else [])):
            built[i] = point
    start = 0
    for sample, items, results in pending:
        received = built[start:start + len(items)]
        start += len(items)
        for item in received:
            if isinstance(item, Exception):
                raise item
        try:
            sample.send(received)
        except StopIteration as done:
            results.append(done.value)


def run_checks(dims=(2, 3, 4, 5, 6), samples: int = 200, seed: int = 0,
               cfg: Config = DEFAULT_CONFIG, names=None, spectra=None) -> list:
    """Run the full invariant catalog (or the named subset).

    Deterministic given the arguments: every check gets its own child stream
    of the seed, so results do not depend on which other checks run. When
    ``spectra`` (a nonempty list of :class:`Spectrum`) is given, sampled
    orbits are drawn from it instead of from random spectra over ``dims``.
    """
    dims = tuple(dims)
    if not all(_is_integral(d) for d in dims):
        raise ValueError(f"dims must be integers, got {dims}")
    dims = tuple(int(d) for d in dims)
    if not dims or min(dims) < 1:
        raise ValueError(f"dims must be nonempty and >= 1, got {dims}")
    # unlike a dim, a sample count given as a float is refused, even 2.0
    if not isinstance(samples, numbers.Integral):
        raise ValueError(f"samples must be an integer, got {samples!r}")
    samples = _integer("samples", samples, 1)
    if spectra is not None and not len(spectra):
        raise ValueError("the spectra pool is empty")
    selected = set(names) if names is not None else None
    unknown = (selected or set()) - set(CHECK_NAMES)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    if spectra is not None:
        spectra = [make_spectrum(s.values, s.mults, cfg) for s in spectra]
    children = np.random.SeedSequence(seed).spawn(len(_CATALOG))
    # (sample, what it drew, its suite's results), up to _CHUNK_ENTRIES
    # matrix entries of pending draws at a time; a suite is reported, and its
    # results let go, at the first evaluation after its last draw
    pending, entries, drawn_suites, reports = [], 0, [], []
    for (name, draws_of, report), child in zip(_CATALOG, children):
        if selected is not None and name not in selected:
            continue
        inst = _Instances(dims, np.random.default_rng(child), cfg, pool=spectra)
        results = []
        for sample in draws_of(inst, samples):
            try:
                drawn = next(sample)
            except Exception:
                # a failing draw raises after the samples drawn before it
                _evaluate(pending, cfg)
                raise
            pending.append((sample, drawn, results))
            entries += sum(item.normals.size for item in drawn if isinstance(item, _Draw))
            if entries >= _CHUNK_ENTRIES:
                _evaluate(pending, cfg)
                reports += [finish() for finish in drawn_suites]
                pending, entries, drawn_suites = [], 0, []
        drawn_suites.append(partial(report, name, inst, samples, results))
    _evaluate(pending, cfg)
    return reports + [finish() for finish in drawn_suites]
