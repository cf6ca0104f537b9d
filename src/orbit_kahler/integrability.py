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

Directional derivatives always flow along exact unitary conjugations, never
ODE steppers, so samples stay on the orbit and never drift across eigenvalue
clusters; if a flowed point still fails validation, the checks raise
:class:`DegenerateDriftError`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Config, DEFAULT_CONFIG
from .dynamics import _flows
from .errors import DegenerateDriftError, OrbitKahlerError
from .kahler import apply_J, symplectic, symplectic_tangent
from .operators import HermitianOperator, OrbitPoint
from .sampling import random_tangent
from .tangent import TangentVector, _tangent, lift, tangent_map

__all__ = [
    "CheckReport",
    "involutivity_check",
    "nijenhuis_fd",
    "closedness_check",
    "nondegeneracy_check",
]


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one sampled invariant check."""

    check_name: str
    max_residual: float
    samples: int
    tolerance: float
    passed: bool
    worst_case: dict

    @staticmethod
    def build(name: str, max_residual: float, samples: int, tolerance: float,
              worst_case: dict) -> "CheckReport":
        return CheckReport(
            check_name=name,
            max_residual=float(max_residual),
            samples=int(samples),
            tolerance=float(tolerance),
            passed=bool(max_residual <= tolerance),
            worst_case=worst_case,
        )


def _case(p: OrbitPoint, index: int, **extra) -> dict:
    """Worst-case record of one sample at ``p``."""
    spectrum = {"values": list(p.spectrum.values), "mults": list(p.spectrum.mults)}
    return {"sample": index, "dim": p.dim, **extra, "spectrum": spectrum}


def _random_strictly_upper(p: OrbitPoint, rng: np.random.Generator) -> np.ndarray:
    """Frame-coordinates matrix with Gaussian entries strictly above the
    block diagonal (gaps > 0) and exact zeros elsewhere."""
    z = rng.standard_normal((p.dim, p.dim)) + 1j * rng.standard_normal((p.dim, p.dim))
    return np.where(p.gaps > 0, z, 0.0)


def involutivity_check(p: OrbitPoint, samples: int, seed,
                       cfg: Config = DEFAULT_CONFIG) -> CheckReport:
    """Strictly-lower residual of commutators of strictly-upper block matrices.

    Structural zero: products of strictly upper block triangular matrices stay
    strictly upper, so the residual is exactly zero even in floating point.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    max_residual = 0.0
    scale = 1.0
    worst = _case(p, 0)
    for index in range(samples):
        upper_a = _random_strictly_upper(p, rng)
        upper_b = _random_strictly_upper(p, rng)
        commutator = upper_a @ upper_b - upper_b @ upper_a
        residual = float(np.max(np.abs(commutator), where=p.gaps < 0, initial=0.0))
        scale = max(scale, float(np.linalg.norm(upper_a) * np.linalg.norm(upper_b)))
        if residual >= max_residual:
            max_residual = residual
            worst["sample"] = index
    tolerance = 100.0 * np.finfo(float).eps * scale
    return CheckReport.build("involutivity", max_residual, samples, tolerance, worst)


def _fundamental_field(a: HermitianOperator, cfg: Config):
    """The field q -> (1/(i hbar)) [A, rho_q], defined on the whole orbit."""
    return lambda q: _tangent(a.matrix, q.rho, cfg.hbar)


def _j_field(a: HermitianOperator, cfg: Config):
    """The pointwise-J extension q -> J_q (fundamental field of A at q)."""
    return lambda q: apply_J(tangent_map(a, q, cfg), cfg).ambient


def _project_tangent(ambient: np.ndarray, p: OrbitPoint) -> TangentVector:
    """Off-block-diagonal part of an ambient matrix, as a tangent vector at p.

    Finite differencing leaves O(step^2) dirt in the diagonal blocks; this is
    the orthogonal projection back onto the tangent space.
    """
    framed = p.to_frame(ambient)
    framed[p.same_cluster] = 0.0
    return TangentVector(p, p.from_frame(framed))


def _flow_pair(p: OrbitPoint, generator: HermitianOperator, cfg: Config) -> list:
    """``p`` flowed under ``generator`` for times fd_step and -fd_step."""
    times = (cfg.fd_step, -cfg.fd_step)
    flows, pair = _flows(p, generator, times, cfg), []
    for t in times:
        try:
            pair.append(next(flows))
        except OrbitKahlerError as exc:
            raise DegenerateDriftError(
                f"flow for time {t} left the validated orbit neighborhood: {exc}") from exc
    return pair


def _along(field, p: OrbitPoint, cfg: Config) -> tuple:
    """``(field, forward, backward)``: an ambient-valued field with ``p``
    flowed by +-fd_step along it (under the lift of its value at ``p``)."""
    return (field, *_flow_pair(p, lift(TangentVector(p, field(p)), cfg), cfg))


def _bracket(v: tuple, w: tuple, cfg: Config) -> np.ndarray:
    """Lie bracket [V, W] at the base point, D_V W - D_W V by central
    differences, of fields from :func:`_along`."""
    (field_v, v_forward, v_backward), (field_w, w_forward, w_backward) = v, w
    width = 2.0 * cfg.fd_step
    return ((field_w(v_forward) - field_w(v_backward)) / width
            - (field_v(w_forward) - field_v(w_backward)) / width)


def nijenhuis_fd(a: HermitianOperator, b: HermitianOperator, p: OrbitPoint,
                 cfg: Config = DEFAULT_CONFIG) -> float:
    """Max-norm of the torsion tensor of J on the fields generated by a, b.

    Evaluated at ``p`` with brackets by central differences of step
    ``cfg.fd_step``; the exact value is zero, so the return is pure
    discretization residual, O(fd_step^2).
    """
    field_a, field_b = (_along(_fundamental_field(x, cfg), p, cfg) for x in (a, b))
    field_ja, field_jb = (_along(_j_field(x, cfg), p, cfg) for x in (a, b))
    plain = _bracket(field_a, field_b, cfg)
    mixed_a = _bracket(field_ja, field_b, cfg)
    mixed_b = _bracket(field_a, field_jb, cfg)
    twisted = _bracket(field_ja, field_jb, cfg)
    total = (plain
             + apply_J(_project_tangent(mixed_a, p), cfg).ambient
             + apply_J(_project_tangent(mixed_b, p), cfg).ambient
             - twisted)
    return float(np.max(np.abs(total)))


def closedness_check(a: HermitianOperator, b: HermitianOperator,
                     c: HermitianOperator, p: OrbitPoint,
                     cfg: Config = DEFAULT_CONFIG) -> float:
    """Six-term exterior derivative of omega on three generated fields.

    Cyclic directional derivatives of omega along the flows plus cyclic omega
    on pairwise brackets, normalized by 1/3. Exactly zero on the orbit; the
    return is the finite-difference residual, O(fd_step^2).
    """
    step = cfg.fd_step

    def derivative_along(generator, first, second):
        forward, backward = _flow_pair(p, generator, cfg)
        return (symplectic(first, second, forward, cfg)
                - symplectic(first, second, backward, cfg)) / (2.0 * step)

    derivative_terms = (derivative_along(a, b, c)
                        - derivative_along(b, a, c)
                        + derivative_along(c, a, b))

    field_a, field_b, field_c = (_along(_fundamental_field(x, cfg), p, cfg)
                                 for x in (a, b, c))
    bracket_ab = _project_tangent(_bracket(field_a, field_b, cfg), p)
    bracket_bc = _project_tangent(_bracket(field_b, field_c, cfg), p)
    bracket_ca = _project_tangent(_bracket(field_c, field_a, cfg), p)
    bracket_terms = (symplectic_tangent(bracket_ab, tangent_map(c, p, cfg), cfg)
                     + symplectic_tangent(bracket_bc, tangent_map(a, p, cfg), cfg)
                     + symplectic_tangent(bracket_ca, tangent_map(b, p, cfg), cfg))

    return abs((derivative_terms + bracket_terms) / 3.0)


def nondegeneracy_check(p: OrbitPoint, samples: int, seed,
                        cfg: Config = DEFAULT_CONFIG) -> CheckReport:
    """Witness that omega(X, JX) is bounded away from zero on unit tangents.

    For every tangent vector, |omega(X, JX)| = g(X, X) is at least
    ``hbar / (p_1 - p_k)`` times the squared Frobenius norm of X (the weakest
    weight in the block sum). Reports the deficit against that floor and the
    smallest observed witness ratio.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    if p.spectrum.k == 1:
        worst = {"note": "single-cluster orbit: tangent space is zero", "dim": p.dim}
        return CheckReport.build("nondegeneracy", 0.0, samples, cfg.tol_check, worst)
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
    return CheckReport.build("nondegeneracy", max_deficit, samples, cfg.tol_check, worst)
