"""Checks that J is integrable and that the symplectic form is closed.

Two independent verifications of integrability are provided. The algebraic
one exploits that the +i eigenspace of J at a point is spanned, in the frame
of that point, by strictly upper block triangular matrices: involutivity of
that distribution amounts to commutators of strictly upper matrices staying
strictly upper, which holds structurally. The analytic one evaluates the
torsion tensor of J,

    N(X, Y) = [X, Y] + J[JX, Y] + J[X, JY] - [JX, JY],

on vector fields extended from generators, with Lie brackets approximated by
central finite differences along exact unitary flows. Both residuals must
vanish: the first exactly, the second quadratically in the step.

Each finite-difference check is a kernel on a point or a stack of N points:
it flows the points along all of their generators, forward and backward, in
one stacked pass of :mod:`.dynamics`, and evaluates the fields on the flowed
rows as one stack. The public function runs it on one point. The sampled
involutivity and nondegeneracy checks draw their samples at one point as
stacks, in passes of at most ``_CHUNK_ENTRIES`` matrix entries, each drawn
in one call and evaluated as one stack, in sample order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import Config, DEFAULT_CONFIG, _integer
from .dynamics import _differences, _flows
from .kahler import _j, _j_factor, _omega, _real_rows, _tr
from .operators import (HermitianOperator, OrbitPoint, _check_dims, _generator, _normals,
                        _passes, _spectrum, _stacked)
from .sampling import _gaussian
from .tangent import _framed_tangent, _lift, _tangent

__all__ = [
    "CheckReport",
    "involutivity_check",
    "nijenhuis_fd",
    "closedness_check",
    "nondegeneracy_check",
]


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one sampled invariant check: it passed when
    ``max_residual <= tolerance``, so a NaN residual fails. A worst case made
    by :func:`_case` has its spectrum read off the eigenvalues it holds."""

    check_name: str
    max_residual: float
    samples: int
    tolerance: float
    passed: bool = field(init=False)
    worst_case: dict

    def __post_init__(self):
        for name, kind in (("max_residual", float), ("samples", int), ("tolerance", float)):
            object.__setattr__(self, name, kind(getattr(self, name)))
        object.__setattr__(self, "passed", self.max_residual <= self.tolerance)
        if isinstance(self.worst_case.get("spectrum"), np.ndarray):
            spectrum = _spectrum(self.worst_case["spectrum"])
            recorded = {"values": list(spectrum.values), "mults": list(spectrum.mults)}
            object.__setattr__(self, "worst_case", {**self.worst_case, "spectrum": recorded})


def _case(p: OrbitPoint, index: int, **extra) -> dict:
    """Worst-case record of one sample at ``p``, holding its eigenvalues."""
    return {"sample": index, "dim": p.dim, **extra, "spectrum": p.eigenvalues}


def _worst(residuals: np.ndarray):
    """The index of the sample a report keeps: the last of the largest residuals,
    or the last NaN, so that a NaN fails the report; None if all are below 0.0."""
    index = len(residuals) - 1 - int(np.argmax(residuals[::-1]))
    return None if residuals[index] < 0.0 else index


def _report_max(name, pairs, samples, tolerance, **extra):
    """Build a report from (residual, worst_case) pairs; ``extra`` entries
    are appended to the worst case, whose spectrum alone is read off."""
    index = _worst(np.array([residual for residual, _ in pairs]))
    max_residual, worst = (0.0, {}) if index is None else pairs[index]
    return CheckReport(name, max_residual, samples, tolerance, {**worst, **extra})


def _norms(x: np.ndarray) -> np.ndarray:
    """The Frobenius norms of ``x``, one ``np.linalg.norm`` per matrix: reports pin its rounding."""
    return np.array([float(np.linalg.norm(m)) for m in x])


def _squares(values: np.ndarray) -> np.ndarray:
    # Python's float ** 2 rounds a few values unlike numpy's x ** 2
    return np.array([v ** 2 for v in values.tolist()])


def involutivity_check(p: OrbitPoint, samples: int, seed,
                       cfg: Config = DEFAULT_CONFIG) -> CheckReport:
    """Strictly-lower residual of commutators of strictly-upper block matrices.

    Structural zero: products of strictly upper block triangular matrices stay
    strictly upper, so the residual is exactly zero even in floating point.
    """
    _check_dims(p)
    samples = _integer("samples", samples, 1)
    return CheckReport("involutivity", *_involutivity(p, samples, _generator(seed), cfg))


def _involutivity(p: OrbitPoint, samples: int, rng, cfg: Config) -> tuple:
    """The report fields of :func:`involutivity_check`, its worst case unread."""
    # the +i and -i eigenspaces of the J the library applies, in the frame of p
    factor = _j_factor(p)
    upper, lower = factor == 1j, factor == -1j
    scale, residuals = 1.0, np.empty(samples)
    for chunk in _passes(samples, 2 * p.dim ** 2):
        out = residuals[chunk]
        upper_a, upper_b = np.where(upper, _normals(p.dim, rng, len(out), 2), 0.0).swapaxes(0, 1)
        commutator = upper_a @ upper_b - upper_b @ upper_a
        np.abs(commutator).max(axis=(-2, -1), where=lower, initial=0.0, out=out)
        scale = max(scale, *(_norms(upper_a) * _norms(upper_b)).tolist())
    index = _worst(residuals)
    return float(residuals[index]), samples, 100.0 * np.finfo(float).eps * scale, _case(p, index)


def nijenhuis_fd(a: HermitianOperator, b: HermitianOperator, p: OrbitPoint,
                 cfg: Config = DEFAULT_CONFIG) -> float:
    """Max-norm of the torsion tensor of J on the fields generated by a, b.

    Evaluated at ``p`` with brackets by central differences of step
    ``cfg.fd_step``; the exact value is zero, so the return is pure
    discretization residual, O(fd_step^2).
    """
    _check_dims(p, a, b)
    return float(_nijenhuis(a.matrix, b.matrix, p, cfg))


def _nijenhuis(a: np.ndarray, b: np.ndarray, p: OrbitPoint, cfg: Config) -> np.ndarray:
    """:func:`nijenhuis_fd` at a point or an N-stack ``p``: 0-d or (N,)."""
    hbar = cfg.hbar
    # the fields X_A, X_B and their pointwise J, each flowed along the lift
    # of its value at p
    x = _framed_tangent(np.stack([a, b]), p, hbar)
    lifted = p.from_frame(_lift(np.concatenate([x, _j(x, p, cfg)]), p, hbar))
    flowed = _flows(p, lifted, (cfg.fd_step, -cfg.fd_step), cfg)
    # along the flows of A and JA the fields of B and JB, along B and JB those of A and JA
    other = np.stack([b, b, a, a] * 2)
    plain = _tangent(other, flowed.rho, hbar)
    twisted = flowed.from_frame(_j(flowed.to_frame(plain), flowed, cfg))
    # D_A B, D_B A, D_JA B, D_JB A and D_A JB, D_B JA, D_JA JB, D_JB JA
    d_plain, d_twisted = _differences(plain, cfg), _differences(twisted, cfg)
    # J runs on [JA, B] + [A, JB]; its lift drops the O(step^2) dirt that
    # finite differencing leaves in the diagonal blocks
    mixed = p.to_frame(d_plain[2] - d_twisted[1] + d_twisted[0] - d_plain[3])
    total = (d_plain[0] - d_plain[1]      # [A, B]
             + p.from_frame(_j(mixed, p, cfg))
             - (d_twisted[2] - d_twisted[3]))  # [JA, JB]
    return np.abs(total).max(axis=(-2, -1))


def closedness_check(a: HermitianOperator, b: HermitianOperator,
                     c: HermitianOperator, p: OrbitPoint,
                     cfg: Config = DEFAULT_CONFIG) -> float:
    """Six-term exterior derivative of omega on three generated fields.

    Cyclic directional derivatives of omega along the flows plus cyclic omega
    on pairwise brackets, normalized by 1/3. Exactly zero on the orbit; the
    return is the finite-difference residual, O(fd_step^2).
    """
    _check_dims(p, a, b, c)
    return float(_closedness(a.matrix, b.matrix, c.matrix, p, cfg))


def _closedness(a: np.ndarray, b: np.ndarray, c: np.ndarray, p: OrbitPoint,
                cfg: Config) -> np.ndarray:
    """:func:`closedness_check` at a point or an N-stack ``p``: 0-d or (N,)."""
    hbar = cfg.hbar
    ops = np.stack([a, b, c])
    x = _framed_tangent(ops, p, hbar)
    # rows 0-5 flow along A, B, C; rows 6-11 along the lifts of X_A, X_B, X_C
    lifted = p.from_frame(_lift(x, p, hbar))
    flowed = _flows(p, np.concatenate([ops, lifted]), (cfg.fd_step, -cfg.fd_step), cfg)

    # omega(X_B, X_C), omega(X_A, X_C), omega(X_A, X_B) along the flows of A, B, C
    commutators = np.repeat([ops[i] @ ops[j] - ops[j] @ ops[i]
                             for i, j in ((1, 2), (0, 2), (0, 1))], 2, axis=0)
    omega = _real_rows(_tr(commutators, flowed.rho[:6]) / (1j * hbar), p, cfg)
    along_a, along_b, along_c = _differences(omega, cfg)
    derivative_terms = along_a - along_b + along_c

    # D_A B, D_B A, D_B C, D_C B, D_C A, D_A C for [A, B], [B, C], [C, A]
    rows = [6, 7, 8, 9, 8, 9, 10, 11, 10, 11, 6, 7]
    fields = ops[[1, 1, 0, 0, 2, 2, 1, 1, 0, 0, 2, 2]]
    derivatives = _differences(_tangent(fields, flowed.rho[rows], hbar), cfg)
    # omega([A, B], X_C), omega([B, C], X_A), omega([C, A], X_B); the lift
    # drops the diagonal-block dirt, as in nijenhuis_fd
    brackets = p.to_frame(derivatives[0::2] - derivatives[1::2])
    bracket_terms = _real_rows(_tr(_lift(brackets, p, hbar), x[[2, 0, 1]]), p, cfg).sum(axis=0)

    return np.abs((derivative_terms + bracket_terms) / 3.0)


def nondegeneracy_check(p: OrbitPoint, samples: int, seed,
                        cfg: Config = DEFAULT_CONFIG) -> CheckReport:
    """Witness that omega(X, JX) is bounded away from zero on unit tangents.

    For every tangent vector, |omega(X, JX)| = g(X, X) is at least
    ``hbar / (p_1 - p_k)`` times the squared Frobenius norm of X (the weakest
    weight in the block sum). Reports the deficit against that floor and the
    smallest observed witness ratio.
    """
    _check_dims(p)
    samples = _integer("samples", samples, 1)
    return CheckReport("nondegeneracy", *_nondegeneracy(p, samples, _generator(seed), cfg))


def _nondegeneracy(p: OrbitPoint, samples: int, rng, cfg: Config) -> tuple:
    """The report fields of :func:`nondegeneracy_check`, its worst case unread."""
    if p.spectrum.k == 1:
        note = {"note": "single-cluster orbit: tangent space is zero", "dim": p.dim}
        return 0.0, samples, cfg.tol_check, note
    floor = cfg.hbar / p.spectrum.span
    witnesses = np.full(samples, np.inf)
    for chunk in _passes(samples, p.dim ** 2):
        out = witnesses[chunk]
        # Gaussian-generated tangents; a zero one has no witness, and a NaN witness reads inf
        x = _framed_tangent(_gaussian(p.dim, rng, len(out)), p, cfg.hbar)
        squared = _squares(_norms(x))
        kept = squared != 0.0
        omega = _stacked(lambda rows: _omega(rows, _j(rows, p, cfg), p, cfg), x[kept])
        out[kept] = np.fmin(np.abs(omega) / squared[kept], np.inf)
    # the first smallest witness (sample 0 if none), and the floor's excess over it
    index = int(witnesses.argmin())
    smallest = float(witnesses[index])
    worst = _case(p, index, floor=floor)
    if smallest < np.inf:
        worst["smallest_witness"] = smallest
    return max(0.0, floor - smallest), samples, cfg.tol_check, worst
