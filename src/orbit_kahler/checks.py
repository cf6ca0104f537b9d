"""Sampled verification suites for every structural invariant.

Each suite draws deterministic instances from a seeded stream, evaluates one
invariant across dimensions and spectra (degenerate ones included), and
returns a :class:`CheckReport`. ``run_checks`` executes the ``_CATALOG``
table; the CLI ``checks`` command is a thin wrapper around it. Passing an
explicit ``spectra`` pool restricts sampling to those orbits.

A suite is a row ``(name, draw, residual, count, report)``. Each of its
``count(samples, dims)`` samples is one ``draw(inst, index)``: the spectrum and
Haar normals of a point, then its observables and other arrays. ``run_checks``
draws, builds the drawn points of one dim in one stacked pass, and runs
``residual(points, *stacks, cfg)`` once on a suite's samples of one dim, each
drawn entry stacked along rows: it returns their residuals and worst-case
columns, through point-or-stack kernels (the two bound suites through
:func:`full_report` row by row). ``report(name, inst, samples, results)``
then builds the suite's :class:`CheckReport` from the samples' (residual,
worst case) pairs. The first failing sample in draw order raises its own error.
"""

from __future__ import annotations

import itertools
from collections import defaultdict, namedtuple
from functools import partial

import numpy as np

from .config import Config, DEFAULT_CONFIG, _integer, _is_integral
from .dynamics import _ehrenfest, _flows
from .errors import OrbitKahlerError
from .integrability import (
    CheckReport,
    _involutivity,
    _nondegeneracy,
    _closedness,
    _nijenhuis,
    _norms,
    _report_max,
    _squares,
)
from .kahler import _h_blocks, _h_parts, _j, _omega, _symplectic, _tr
from .operators import (
    HermitianOperator,
    _BatchFailure,
    _CHUNK_ENTRIES,
    _conjugate,
    _conjugated,
    _freeze,
    _frozen_value,
    _haar_frames,
    _haar_points,
    _normals,
    _passing,
    _point_stack,
    make_spectrum,
)
from .sampling import (
    _gaussian,
    _random_gauge,
    maximally_mixed_spectrum,
    pure_spectrum,
    random_spectrum,
)
from .tangent import _framed_tangent, _lift, _split
from .uncertainty import _moments, _report, _variance_split, full_report

__all__ = ["CHECK_NAMES", "run_checks"]


class _Instances:
    """Deterministic point draws, as spectrum and Haar normals, shared by all samples of a suite.

    Points cycle through the requested dimensions with a fresh random spectrum
    each time (every tenth one maximally mixed so the zero-tangent edge case
    stays covered), or through an explicit spectra pool (validated once, here).
    """

    def __init__(self, dims, rng: np.random.Generator, cfg: Config, pool=None):
        self.rng = rng
        self.cfg = cfg
        self.pool = pool
        self.dims = (tuple(sorted({s.total_dim for s in self.pool}))
                     if self.pool else tuple(dims))
        self._count = 0

    def point(self, mixed_every: int = 10) -> tuple:
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
        self.spectrum, self.dim = spectrum, spectrum.total_dim
        return spectrum, _normals(self.dim, self.rng)

    def multi_cluster_point(self) -> tuple:
        """A point whose orbit has a nonzero tangent space (k >= 2); the
        rejected draws still take their normals from the stream."""
        # every spectrum of dim 1 is a single cluster
        if all(s.k == 1 for s in self.pool) if self.pool else max(self.dims) < 2:
            raise ValueError("the spectra pool or dims give only single-cluster "
                             "orbits; this check needs a nonzero tangent space")
        while True:
            spectrum, normals = self.point(mixed_every=0)
            if spectrum.k >= 2:
                return spectrum, normals


_UNMIXED = partial(_Instances.point, mixed_every=0)


def _draw(observables: int, point=_Instances.point, *extra):
    """Draw of ``point(inst)``, ``observables`` observables and ``take(inst)`` of ``extra``."""
    return lambda inst, index: (
        *point(inst), *[_gaussian(inst.dim, inst.rng) for _ in range(observables)],
        *[take(inst) for take in extra])


def _pure_point(inst, index) -> tuple:
    dim = inst.dims[index % len(inst.dims)]
    return pure_spectrum(dim, inst.cfg), _normals(dim, inst.rng), _gaussian(dim, inst.rng)


def _fd_count(samples: int, dims) -> int:
    return max(2, min(10, samples // 25))


def _fd_tolerance(cfg: Config) -> float:
    # calibrated: observed constants are O(10) for unit-scale observables
    return 1e3 * cfg.fd_step ** 2


# residuals over (N, d, d) stacks; every check runs in the order one sample alone runs it

def _spectra(p) -> dict:
    """The worst-case column of the rows' spectra, read off for the worst row alone."""
    return {"spectrum": p.eigenvalues}


def _max(a, b) -> np.ndarray:
    """Python's max(a, b) per row, where np.maximum would give -0.0 or NaN in place of a."""
    return np.where(b > a, b, a)


def _j_squared(p, h, cfg):
    x = _framed_tangent(h, p, cfg.hbar)
    return np.abs(_j(_j(x, p, cfg), p, cfg) + x).max(axis=(-2, -1)), _spectra(p)


def _omega_antisymmetry(p, a, b, cfg):
    ab, ba = a @ b, b @ a
    return np.abs(_symplectic(ab - ba, p.rho, cfg) + _symplectic(ba - ab, p.rho, cfg)), _spectra(p)


def _metric_symmetry(p, h, k, cfg):
    x, y = _framed_tangent(h, p, cfg.hbar), _framed_tangent(k, p, cfg.hbar)
    g_xy, g_yx = _omega(_j(x, p, cfg), y, p, cfg), _omega(_j(y, p, cfg), x, p, cfg)
    return np.abs(g_xy - g_yx), _spectra(p)


def _metric_positivity(p, h, cfg):
    x = _framed_tangent(h, p, cfg.hbar)
    squared = _squares(_norms(x))
    # a zero tangent has no ratio: residual -inf and ratio inf keep it out of the report
    kept = squared != 0.0
    g = _omega(_j(x, p, cfg), x, p, cfg)
    ratio = np.divide(g, squared, out=np.full(len(x), np.inf), where=kept)
    residual = np.where(kept, _max(0.0, -ratio), -np.inf)
    return residual, {"witness_ratio": ratio.tolist(), **_spectra(p)}


def _compatibility(p, h, k, cfg):
    x, y = _framed_tangent(h, p, cfg.hbar), _framed_tangent(k, p, cfg.hbar)
    jx, jy = _j(x, p, cfg), _j(y, p, cfg)
    return np.abs(_omega(jx, jy, p, cfg) - _omega(x, y, p, cfg)), _spectra(p)


def _hermitian_symmetry(p, h, k, cfg):
    x, y = _framed_tangent(h, p, cfg.hbar), _framed_tangent(k, p, cfg.hbar)
    (g_xy, omega_xy), (g_yx, omega_yx) = _h_parts(x, y, p, cfg), _h_parts(y, x, p, cfg)
    # |h(X, Y) - conj h(Y, X)|; np.hypot rounds as abs(complex) does
    return np.hypot(g_xy - g_yx, omega_xy + omega_yx), _spectra(p)


def _block_formula(p, a, b, cfg):
    # the lift pairing of the tangents against the closed form on the frame entries
    x, y = _framed_tangent(a, p, cfg.hbar), _framed_tangent(b, p, cfg.hbar)
    g, omega = _h_parts(x, y, p, cfg)
    closed = _h_blocks(p.to_frame(a), p.to_frame(b), p, cfg)
    error = np.hypot(closed.real - g, closed.imag - omega)
    return error / _max(1.0, np.hypot(g, omega)), _spectra(p)


def _tangent_roundtrip(p, h, cfg):
    x = _framed_tangent(h, p, cfg.hbar)
    lifted = _lift(x, p, cfg.hbar)
    # the ambient tangent map undoes the lift, which gives back h off the blocks
    roundtrip = np.abs(_framed_tangent(p.from_frame(lifted), p, cfg.hbar) - x).max(axis=(-2, -1))
    back = np.abs(lifted - np.where(p.same_cluster, 0.0, p.to_frame(h))).max(axis=(-2, -1))
    return _max(roundtrip, back), _spectra(p)


def _split_orthogonality(p, h, cfg):
    overlap = _tr(*_split(h, p))
    return np.hypot(overlap.real, overlap.imag), _spectra(p)


def _scalar_panel(a, b, p, cfg) -> np.ndarray:
    """All public scalars for (A, B, rho) rows, as (N, 7); h(X_A, X_B) is
    evaluated once, for the product and for the geometric bound."""
    parts = _h_parts(_framed_tangent(a, p, cfg.hbar), _framed_tangent(b, p, cfg.hbar), p, cfg)
    delta_a, delta_b, _, geometric, robertson, _, _ = _report(a, b, p, cfg, parts)
    return np.stack([_symplectic(a @ b - b @ a, p.rho, cfg), *parts, delta_a, delta_b,
                     geometric, robertson], axis=-1)


def _ad_equivariance(p, a, b, normals, cfg):
    before = _scalar_panel(a, b, p, cfg)
    u = _haar_frames(normals)
    moved = _conjugate(a, u, cfg), _conjugate(b, u, cfg), _conjugated(p, u[None], cfg)[0]
    return np.abs(_scalar_panel(*moved, cfg) - before).max(axis=-1), _spectra(p)


def _gauge_invariance(p, a, b, gauge, cfg):
    # with_gauge's point and frame checks; a drawn gauge is block diagonal
    gauged = _point_stack(p.rho, p.frame @ gauge, p.eigenvalues, cfg)
    before = _scalar_panel(a, b, p, cfg)
    return np.abs(_scalar_panel(a, b, gauged, cfg) - before).max(axis=-1), _spectra(p)


def _bound_term(p, a, cfg) -> np.ndarray:
    """(hbar/2) Re h(X_A, X_A) by the framed lift pairing."""
    x = _framed_tangent(a, p, cfg.hbar)
    return 0.5 * cfg.hbar * _h_parts(x, x, p, cfg)[0]


def _pure_state_equality(p, a, cfg):
    bound_term = _bound_term(p, a, cfg)
    return np.abs(_squares(_moments(a, p.rho @ a, cfg)[1]) - bound_term), {}


def _variance_identity(p, a, cfg):
    delta_perp_sq, sum_plus, sum_minus = _variance_split(a, p)
    variance = _squares(_moments(a, p.rho @ a, cfg)[1])
    residual = _max(np.abs(variance - (delta_perp_sq + sum_plus)),
                    np.abs(sum_minus - _bound_term(p, a, cfg)))
    return _max(residual, _max(0.0, sum_minus - sum_plus)), _spectra(p)


def _bound_slack(field):
    """Residual of one bound of :func:`full_report`, called per row, by its ``field`` slack."""
    def residual(points, a, b, cfg):
        slack = []
        for i in range(len(points)):
            a_i, b_i = (_frozen_value(HermitianOperator, s[i]) for s in (a, b))
            try:
                slack.append(getattr(full_report(a_i, b_i, points[i], cfg), field))
            except OrbitKahlerError as error:
                raise _BatchFailure(i, error) from error
        slack = np.array(slack)
        return _max(0.0, -slack), {"slack": slack.tolist(), **_spectra(points)}
    return residual


def _spectrum_preservation(p, h, cfg):
    # the five samples of trajectory(p, h, 1.0, 5): p and its flows to the nonzero times
    flowed = _flows(p, h[None], np.linspace(0.0, 1.0, 5)[1:], cfg)
    eigenvalues = np.sort(np.linalg.eigvalsh(np.concatenate([p.rho[None], flowed.rho])))
    return np.abs(eigenvalues[..., ::-1] - p.eigenvalues).max(axis=(0, -1)), _spectra(p)


def _flow_composition(p, h, times, cfg):
    # evolve(p, h, t0) and evolve(p, h, t0 + t1) in one pass, then the first to t1
    first, second = times[..., 0], times[..., 1]
    flowed = _flows(p, h[None], np.stack([first, first + second]), cfg)
    two_step = _flows(flowed[0], h[None], second[None], cfg)
    return np.abs(two_step.rho[0] - flowed.rho[1]).max(axis=(-2, -1)), {}


def _kept(points, cfg):
    """Residual that keeps each built point as its worst-case column."""
    return np.zeros(len(points)), {"point": list(points)}


def _finish(tolerance):
    """Report of a suite from its samples' (residual, worst case) pairs, gated at
    ``tolerance(cfg)``; a suite whose cases record witness ratios reports the smallest too."""
    def report(name, inst, samples, results):
        witnesses = [case["witness_ratio"] for _, case in results if "witness_ratio" in case]
        extra = {"smallest_witness": min(witnesses)} if witnesses else {}
        return _report_max(name, results, len(results), tolerance(inst.cfg), **extra)
    return report


def _panel(kernel):
    """The draw, residual, count and report of a panel suite, whose samples are its
    points, two per dim: ``kernel(p, samples, rng, cfg)`` on each, drawing after all
    of them, reports the first point with the largest residual."""
    def report(name, inst, samples, results):
        per_point = max(1, samples // len(results))
        residual, _, tolerance, case = max((kernel(kept["point"], per_point, inst.rng, inst.cfg)
                                            for _, kept in results), key=lambda r: r[0])
        return CheckReport(name, residual, per_point * len(results), tolerance, case)
    return (_draw(0, partial(_Instances.point, mixed_every=4)), _kept,
            lambda samples, dims: max(2, 2 * len(dims)), report)


_Suite = namedtuple("_Suite", "name draw residual count report",
                    defaults=(lambda samples, dims: samples,
                              _finish(lambda cfg: cfg.tol_check)))

_CATALOG = [
    _Suite("j_squared", _draw(1), _j_squared),
    _Suite("omega_antisymmetry", _draw(2), _omega_antisymmetry),
    _Suite("metric_symmetry", _draw(2), _metric_symmetry),
    _Suite("metric_positivity", _draw(1, _Instances.multi_cluster_point), _metric_positivity),
    _Suite("compatibility", _draw(2), _compatibility),
    _Suite("hermitian_symmetry", _draw(2), _hermitian_symmetry),
    _Suite("block_formula", _draw(2), _block_formula),
    _Suite("tangent_roundtrip", _draw(1), _tangent_roundtrip),
    _Suite("split_orthogonality", _draw(1), _split_orthogonality),
    _Suite("ad_equivariance", _draw(2, _UNMIXED, lambda inst: _normals(inst.dim, inst.rng)),
           _ad_equivariance),
    _Suite("gauge_invariance",
           _draw(2, _UNMIXED, lambda inst: _random_gauge(inst.spectrum, inst.rng)),
           _gauge_invariance),
    _Suite("involutivity", *_panel(_involutivity)),
    _Suite("nondegeneracy", *_panel(_nondegeneracy)),
    _Suite("nijenhuis_fd", _draw(2, _Instances.multi_cluster_point),
           lambda p, a, b, cfg: (_nijenhuis(a, b, p, cfg), _spectra(p)),
           _fd_count, _finish(_fd_tolerance)),
    _Suite("closedness_fd", _draw(3, _Instances.multi_cluster_point),
           lambda p, a, b, c, cfg: (_closedness(a, b, c, p, cfg), _spectra(p)),
           _fd_count, _finish(_fd_tolerance)),
    _Suite("uncertainty_bound", _draw(2), _bound_slack("slack_geometric")),
    _Suite("rs_baseline", _draw(2), _bound_slack("slack_rs")),
    _Suite("pure_state_equality", _pure_point, _pure_state_equality),
    _Suite("variance_identity", _draw(1), _variance_identity),
    _Suite("spectrum_preservation", _draw(1, _UNMIXED), _spectrum_preservation, _fd_count),
    _Suite("flow_composition",
           _draw(1, _UNMIXED, lambda inst: inst.rng.uniform(-1.0, 1.0, size=2)),
           _flow_composition, _fd_count),
    _Suite("ehrenfest", _draw(2, _UNMIXED), lambda p, a, h, cfg: (_ehrenfest(a, h, p, cfg), {}),
           _fd_count, _finish(_fd_tolerance)),
]

CHECK_NAMES = tuple(suite.name for suite in _CATALOG)


def _evaluate(pending, finished, cfg: Config) -> list:
    """Build the pending samples' points, one stacked pass per dim, and run
    each suite's residual once on its samples of one dim. Then, in draw order,
    the ``(position after its last sample, report)`` suites report and the
    first failing sample raises its error, of its point or of its residual."""
    by_dim, suite = defaultdict(list), [id(results) for *_, results in pending]
    for position, (_, _, drawn, _) in enumerate(pending):
        by_dim[drawn[0].total_dim].append(position)
    failures = []
    for dim, positions in by_dim.items():
        drawn = [pending[i][2] for i in positions]
        points, failure = _passing(
            lambda frames: _haar_points([d[0] for d in drawn[:len(frames)]], frames, cfg),
            _haar_frames(np.array([d[1] for d in drawn])))
        failures += [(positions[failure[0]], failure[1])] if failure else []
        # the samples of one suite are consecutive
        start = 0
        for _, group in itertools.groupby(positions[:len(points) if points else 0],
                                          suite.__getitem__):
            group = list(group)
            part, start = points[start:start + len(group)], start + len(group)
            residual = pending[group[0]][0]
            stacks = [_freeze(column, None) for column in zip(*(pending[i][2][2:] for i in group))]
            done, failed = _passing(
                lambda rows: residual(rows, *(s[:len(rows)] for s in stacks), cfg), part)
            failures += [(group[failed[0]], failed[1])] if failed else []
            for j, value in enumerate(done[0].tolist() if done else ()):
                _, index, _, results = pending[group[j]]
                columns = {key: column[j] for key, column in done[1].items()}
                results[index] = value, {"sample": index, "dim": dim, **columns}
    # a panel's report runs its checks, which fail before any later sample
    first = min(failures, key=lambda failure: failure[0], default=(len(pending), None))
    reports = [report() for position, report in finished if position <= first[0]]
    if first[1] is not None:
        raise first[1]
    return reports


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
    samples = _integer("samples", samples, 1)
    if spectra is not None and not len(spectra):
        raise ValueError("the spectra pool is empty")
    if isinstance(names, str):
        raise ValueError(f"names must be a list of check names, got the string {names!r}")
    if names is not None:
        if isinstance(names, bytes) or not np.iterable(names):
            raise ValueError(f"names must be a list of check names, got {names!r}")
        names = list(names)
        if not all(isinstance(name, str) for name in names):
            raise ValueError(f"names must be strings, got {names!r}")
    selected = set(names) if names is not None else None
    unknown = (selected or set()) - set(CHECK_NAMES)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    if spectra is not None:
        spectra = [make_spectrum(s.values, s.mults, cfg) for s in spectra]
    children = np.random.SeedSequence(_integer("seed", seed, 0)).spawn(len(_CATALOG))
    # (residual, sample index, what it drew, its suite's results), up to
    # _CHUNK_ENTRIES matrix entries of pending points at a time; a suite is
    # reported, and its results let go, at the first evaluation after its last draw
    pending, entries, finished, reports = [], 0, [], []
    for (name, draw, residual, count, report), child in zip(_CATALOG, children):
        if selected is not None and name not in selected:
            continue
        inst = _Instances(dims, np.random.default_rng(child), cfg, pool=spectra)
        results = [None] * count(samples, inst.dims)
        for index in range(len(results)):
            try:
                drawn = draw(inst, index)
            except Exception:
                # a failing draw raises after the samples drawn before it
                _evaluate(pending, finished, cfg)
                raise
            pending.append((residual, index, drawn, results))
            entries += drawn[1].size
            if entries >= _CHUNK_ENTRIES:
                reports += _evaluate(pending, finished, cfg)
                pending, entries, finished = [], 0, []
        finished.append((len(pending), partial(report, name, inst, samples, results)))
    return reports + _evaluate(pending, finished, cfg)
