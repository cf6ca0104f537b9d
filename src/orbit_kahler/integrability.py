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

Each check flows the point along all of its generators, forward and
backward, in one stacked pass of :mod:`.dynamics`, and evaluates the fields
on the flowed rows as one stack through the point-or-stack kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import Config, DEFAULT_CONFIG, _integer
from .dynamics import _differences, _flows
from .kahler import _apply_j, _j_factor, _symplectic, apply_J, symplectic_tangent
from .operators import HermitianOperator, OrbitPoint, _check_dims, _normals, _stacked
from .sampling import random_tangent
from .tangent import TangentVector, _lift, _tangent, tangent_map

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
    ``max_residual <= tolerance``, so a NaN residual fails."""

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


def _case(p: OrbitPoint, index: int, **extra) -> dict:
    """Worst-case record of one sample at ``p``."""
    spectrum = {"values": list(p.spectrum.values), "mults": list(p.spectrum.mults)}
    return {"sample": index, "dim": p.dim, **extra, "spectrum": spectrum}


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
    return CheckReport(name, max_residual, samples, tolerance, {**worst, **extra})


def involutivity_check(p: OrbitPoint, samples: int, seed,
                       cfg: Config = DEFAULT_CONFIG) -> CheckReport:
    """Strictly-lower residual of commutators of strictly-upper block matrices.

    Structural zero: products of strictly upper block triangular matrices stay
    strictly upper, so the residual is exactly zero even in floating point.
    """
    samples = _integer("samples", samples, 1)
    rng = np.random.default_rng(seed)
    # the +i and -i eigenspaces of the J the library applies, in the frame of p
    factor = _j_factor(p)
    upper, lower = factor == 1j, factor == -1j
    scale = 1.0
    pairs = []
    for index in range(samples):
        upper_a = np.where(upper, _normals(p.dim, rng), 0.0)
        upper_b = np.where(upper, _normals(p.dim, rng), 0.0)
        commutator = upper_a @ upper_b - upper_b @ upper_a
        residual = float(np.max(np.abs(commutator), where=lower, initial=0.0))
        scale = max(scale, float(np.linalg.norm(upper_a) * np.linalg.norm(upper_b)))
        pairs.append((residual, _case(p, index)))
    tolerance = 100.0 * np.finfo(float).eps * scale
    return _report_max("involutivity", pairs, samples, tolerance)


def _project_tangent(ambient: np.ndarray, p: OrbitPoint) -> TangentVector:
    """Off-block-diagonal part of an ambient matrix, as a tangent vector at p.

    Finite differencing leaves O(step^2) dirt in the diagonal blocks; this is
    the orthogonal projection back onto the tangent space.
    """
    framed = p.to_frame(ambient)
    framed[p.same_cluster] = 0.0
    return TangentVector(p, p.from_frame(framed))


def nijenhuis_fd(a: HermitianOperator, b: HermitianOperator, p: OrbitPoint,
                 cfg: Config = DEFAULT_CONFIG) -> float:
    """Max-norm of the torsion tensor of J on the fields generated by a, b.

    Evaluated at ``p`` with brackets by central differences of step
    ``cfg.fd_step``; the exact value is zero, so the return is pure
    discretization residual, O(fd_step^2).
    """
    _check_dims(p, a, b)
    hbar = cfg.hbar
    # the fields X_A, X_B and their pointwise J, each flowed along the lift
    # of its value at p
    lifted = [_lift(_tangent(x.matrix, p.rho, hbar), p, hbar) for x in (a, b)]
    lifted += [_lift(_apply_j(lift_x, p, cfg), p, hbar) for lift_x in lifted]
    flowed = _flows(p, np.stack(lifted), (cfg.fd_step, -cfg.fd_step), cfg)
    # along the flows of A and JA the fields of B and JB, along B and JB those of A and JA
    other = np.stack([b.matrix, b.matrix, a.matrix, a.matrix] * 2)
    plain = _tangent(other, flowed.rho, hbar)
    twisted_values = _stacked(
        lambda rows: _apply_j(_lift(plain[:len(rows)], rows, hbar), rows, cfg), flowed)
    # D_A B, D_B A, D_JA B, D_JB A and D_A JB, D_B JA, D_JA JB, D_JB JA
    d_plain, d_twisted = _differences(plain, cfg), _differences(twisted_values, cfg)
    mixed_a = d_plain[2] - d_twisted[1]   # [JA, B]
    mixed_b = d_twisted[0] - d_plain[3]   # [A, JB]
    total = (d_plain[0] - d_plain[1]      # [A, B]
             + apply_J(_project_tangent(mixed_a, p), cfg).ambient
             + apply_J(_project_tangent(mixed_b, p), cfg).ambient
             - (d_twisted[2] - d_twisted[3]))  # [JA, JB]
    return float(np.max(np.abs(total)))


def closedness_check(a: HermitianOperator, b: HermitianOperator,
                     c: HermitianOperator, p: OrbitPoint,
                     cfg: Config = DEFAULT_CONFIG) -> float:
    """Six-term exterior derivative of omega on three generated fields.

    Cyclic directional derivatives of omega along the flows plus cyclic omega
    on pairwise brackets, normalized by 1/3. Exactly zero on the orbit; the
    return is the finite-difference residual, O(fd_step^2).
    """
    _check_dims(p, a, b, c)
    hbar = cfg.hbar
    ops = (a.matrix, b.matrix, c.matrix)
    lifted = [_lift(_tangent(x, p.rho, hbar), p, hbar) for x in ops]
    # rows 0-5 flow along A, B, C; rows 6-11 along the lifts of X_A, X_B, X_C
    flowed = _flows(p, np.stack(list(ops) + lifted), (cfg.fd_step, -cfg.fd_step), cfg)

    # omega(X_B, X_C), omega(X_A, X_C), omega(X_A, X_B) along the flows of A, B, C
    commutators = np.repeat([ops[i] @ ops[j] - ops[j] @ ops[i]
                             for i, j in ((1, 2), (0, 2), (0, 1))], 2, axis=0)
    omega = _stacked(lambda rows: _symplectic(commutators[:len(rows)], rows.rho, cfg),
                     flowed[:6])
    along_a, along_b, along_c = _differences(omega, cfg)
    derivative_terms = along_a - along_b + along_c

    # D_A B, D_B A, D_B C, D_C B, D_C A, D_A C for [A, B], [B, C], [C, A]
    rows = [6, 7, 8, 9, 8, 9, 10, 11, 10, 11, 6, 7]
    fields = np.stack([ops[i] for i in (1, 1, 0, 0, 2, 2, 1, 1, 0, 0, 2, 2)])
    derivatives = _differences(_tangent(fields, flowed.rho[rows], hbar), cfg)
    bracket_ab, bracket_bc, bracket_ca = (
        _project_tangent(bracket, p) for bracket in derivatives[0::2] - derivatives[1::2])
    bracket_terms = (symplectic_tangent(bracket_ab, tangent_map(c, p, cfg), cfg)
                     + symplectic_tangent(bracket_bc, tangent_map(a, p, cfg), cfg)
                     + symplectic_tangent(bracket_ca, tangent_map(b, p, cfg), cfg))

    return float(abs((derivative_terms + bracket_terms) / 3.0))


def nondegeneracy_check(p: OrbitPoint, samples: int, seed,
                        cfg: Config = DEFAULT_CONFIG) -> CheckReport:
    """Witness that omega(X, JX) is bounded away from zero on unit tangents.

    For every tangent vector, |omega(X, JX)| = g(X, X) is at least
    ``hbar / (p_1 - p_k)`` times the squared Frobenius norm of X (the weakest
    weight in the block sum). Reports the deficit against that floor and the
    smallest observed witness ratio.
    """
    samples = _integer("samples", samples, 1)
    rng = np.random.default_rng(seed)
    if p.spectrum.k == 1:
        worst = {"note": "single-cluster orbit: tangent space is zero", "dim": p.dim}
        return CheckReport("nondegeneracy", 0.0, samples, cfg.tol_check, worst)
    floor = cfg.hbar / p.spectrum.span
    max_deficit = 0.0
    smallest_witness = np.inf
    worst = _case(p, 0, floor=floor)
    for index in range(samples):
        x = random_tangent(p, rng, cfg)
        squared = x.frobenius ** 2
        if squared == 0.0:
            continue
        witness = abs(symplectic_tangent(x, apply_J(x, cfg), cfg)) / squared
        deficit = max(0.0, floor - witness)
        if witness < smallest_witness:
            smallest_witness = witness
            worst["sample"] = index
            worst["smallest_witness"] = witness
        max_deficit = max(max_deficit, deficit)
    return CheckReport("nondegeneracy", max_deficit, samples, cfg.tol_check, worst)
