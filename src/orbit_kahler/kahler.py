"""Symplectic form, complex structure, metric, and Hermitian product.

On the orbit of a density operator the symplectic form is

    omega(X_A, X_B) = (1/(i hbar)) Tr([A, B] rho),

and the metric is g(X, Y) = omega(J X, Y). In the frame of the base point
(gap-mask convention in :mod:`orbit_kahler.operators`) J acts through
generators as the elementwise factor ``i sign(gaps)``: blocks above the
diagonal are multiplied by i, blocks below by -i.

Sign convention. The pair (g, omega) is packaged as h = g + i omega, which is
linear in the first slot (h(JX, Y) = i h(X, Y)) and conjugate linear in the
second. With descending eigenvalues this makes g positive definite and matches
the closed block form

    h(X_A, X_B) = (2/hbar) sum_{i<j} (p_i - p_j) Tr(A_ij B_ij^dag)
                = (2/hbar) sum_{a,b} max(gaps[a, b], 0) A_ab conj(B_ab),

where A, B are the generators in the frame of the base point. The alternative
packaging g'(X, Y) = omega(X, JY) is negative definite here and is not
exposed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Config, DEFAULT_CONFIG
from .errors import NonRealResultError, NotOffDiagonalError
from .operators import (
    HermitianOperator,
    OrbitPoint,
    _check_dims,
    _checked,
    _from_frame,
    _raise_first,
    _to_frame,
)
from .tangent import TangentVector, _lift, _require_same_base, _tangent, tangent_map

__all__ = [
    "KahlerEvaluation",
    "j_generator",
    "apply_J",
    "symplectic",
    "symplectic_tangent",
    "metric",
    "hermitian_product",
    "hermitian_product_blocks",
    "kahler_evaluation",
]


@dataclass(frozen=True)
class KahlerEvaluation:
    """Joint evaluation of the structure on one pair of tangent directions."""

    omega: float
    metric: float
    h: complex
    base: OrbitPoint


def _real_check(z: np.ndarray, cfg: Config, what: str):
    imag = z.imag
    return (np.abs(imag) > cfg.tol_check, NonRealResultError,
            lambda i: f"{what} has imaginary part {imag[i]:.3e}; "
                      "inputs are likely not Hermitian")


def _offdiag_check(framed: np.ndarray, p, cfg: Config):
    worst = np.abs(framed).max(axis=(-2, -1), where=p.same_cluster, initial=0.0)
    return (worst > cfg.tol_hermitian, NotOffDiagonalError,
            lambda i: f"diagonal blocks reach {worst[i]:.3e}; "
                      "split off the commuting part first")


def _j_twist(b: np.ndarray, p, cfg: Config, checks: list) -> np.ndarray:
    """Generators twisted by ``i sign(gaps)`` in the frame of a point or batch
    ``p``; the check that ``b`` is off-block-diagonal goes to ``checks``."""
    framed = _to_frame(p.frame, b)
    checks.append(_offdiag_check(framed, p, cfg))
    return _from_frame(p.frame, 1j * np.sign(p.gaps) * framed)


def _apply_j(lifted: np.ndarray, p, cfg: Config, checks: list) -> np.ndarray:
    """J of the tangent matrices whose lifts are ``lifted``."""
    return _tangent(_j_twist(lifted, p, cfg, checks), p.rho, cfg.hbar)


def _pairing(lifted: np.ndarray, y: np.ndarray, cfg: Config, checks: list) -> np.ndarray:
    """omega(X, Y) = Tr(B_X Y) from the lift ``B_X`` of X; the check that it
    is real goes to ``checks``."""
    z = (lifted @ y).trace(axis1=-2, axis2=-1)
    checks.append(_real_check(z, cfg, "symplectic form"))
    return z.real


def _h_parts(x: np.ndarray, y: np.ndarray, p, cfg: Config, checks: list):
    """``(g, omega)`` of tangent matrices x, y at a point or batch ``p``."""
    lifted = _lift(x, p, cfg.hbar)
    jx = _apply_j(lifted, p, cfg, checks)
    return (_pairing(_lift(jx, p, cfg.hbar), y, cfg, checks),
            _pairing(lifted, y, cfg, checks))


def j_generator(b: HermitianOperator, p: OrbitPoint,
                cfg: Config = DEFAULT_CONFIG) -> HermitianOperator:
    """Generator inducing J of the tangent vector induced by ``b``.

    In the frame of ``p`` the blocks above the diagonal are multiplied by i
    and the blocks below by -i. Requires ``b`` purely off-block-diagonal.
    """
    _check_dims(p, b)
    return HermitianOperator(_checked(_j_twist, b.matrix, p, cfg))


def apply_J(x: TangentVector, cfg: Config = DEFAULT_CONFIG) -> TangentVector:
    """The complex structure on tangent vectors: lift, twist blocks, push down."""
    lifted = _lift(x.ambient, x.base, cfg.hbar)
    return TangentVector(x.base, _checked(_apply_j, lifted, x.base, cfg))


def symplectic(a: HermitianOperator, b: HermitianOperator, p: OrbitPoint,
               cfg: Config = DEFAULT_CONFIG) -> float:
    """The orbit symplectic form on the tangent directions generated by a, b.

    Returns (1/(i hbar)) Tr([A, B] rho). The imaginary residual must stay
    below ``tol_check``; a large one signals corrupted inputs and raises
    :class:`NonRealResultError` instead of being discarded.
    """
    _check_dims(p, a, b)
    commutator = a.matrix @ b.matrix - b.matrix @ a.matrix
    z = np.trace(commutator @ p.rho) / (1j * cfg.hbar)
    _raise_first([_real_check(z, cfg, "symplectic form")])
    return float(z.real)


def symplectic_tangent(x: TangentVector, y: TangentVector,
                       cfg: Config = DEFAULT_CONFIG) -> float:
    """The symplectic form on tangent vectors, via the generator of ``x``.

    Evaluates Tr(B_x Y) with B_x the off-block-diagonal generator of ``x``,
    which equals the commutator form on the lifted generators.
    """
    _require_same_base(x.base, y.base)
    lifted = _lift(x.ambient, x.base, cfg.hbar)
    return float(_checked(_pairing, lifted, y.ambient, cfg))


def metric(x: TangentVector, y: TangentVector,
           cfg: Config = DEFAULT_CONFIG) -> float:
    """Riemannian metric g(X, Y) = omega(JX, Y); positive definite."""
    return symplectic_tangent(apply_J(x, cfg), y, cfg)


def hermitian_product(x: TangentVector, y: TangentVector,
                      cfg: Config = DEFAULT_CONFIG) -> complex:
    """Hermitian product h(X, Y) = g(X, Y) + i omega(X, Y)."""
    _require_same_base(x.base, y.base)
    return complex(*_checked(_h_parts, x.ambient, y.ambient, x.base, cfg))


def hermitian_product_blocks(a: HermitianOperator, b: HermitianOperator,
                             p: OrbitPoint, cfg: Config = DEFAULT_CONFIG) -> complex:
    """Closed block form of the Hermitian product of two generated directions.

    For off-block-diagonal generators at ``p``:

        h = (2/hbar) sum_{i<j} (p_i - p_j) Tr(A_ij B_ij^dag),

    with descending eigenvalues, so every weight p_i - p_j is positive. Agrees
    with :func:`hermitian_product` of the generated tangent vectors.
    """
    _check_dims(p, a, b)
    fa = p.to_frame(a.matrix)
    fb = p.to_frame(b.matrix)
    _raise_first([_offdiag_check(fa, p, cfg), _offdiag_check(fb, p, cfg)])
    total = np.sum(np.maximum(p.gaps, 0.0) * fa * fb.conj())
    return complex(2.0 / cfg.hbar * total)


def kahler_evaluation(a: HermitianOperator, b: HermitianOperator, p: OrbitPoint,
                      cfg: Config = DEFAULT_CONFIG) -> KahlerEvaluation:
    """Evaluate omega, g, and h on the tangent directions generated by a, b."""
    xa = tangent_map(a, p, cfg)
    xb = tangent_map(b, p, cfg)
    h = hermitian_product(xa, xb, cfg)
    return KahlerEvaluation(omega=h.imag, metric=h.real, h=h, base=p)
