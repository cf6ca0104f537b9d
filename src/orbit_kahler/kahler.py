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

In the frame of the base point each map is elementwise on the lift
B = -i hbar X * inv_gaps of a tangent matrix X: JX = (i gaps / hbar)(i sign(gaps) B),
omega(X, Y) = Tr(B Y) and g(X, Y) = Tr((i sign(gaps) B) Y), traces read as
elementwise sums. :func:`symplectic` reads the ambient commutator trace instead,
and :func:`kahler_evaluation` and :func:`hermitian_product_blocks` the closed
block form; the ``block_formula`` check compares it with the lift pairing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Config, DEFAULT_CONFIG
from .errors import NonRealResultError, NotOffDiagonalError
from .operators import (
    HermitianOperator,
    OrbitPoint,
    _by_point,
    _check_dims,
    _require,
    _stacked,
)
from .tangent import TangentVector, _lift, _require_same_base

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


def _real(z: np.ndarray, cfg: Config, what: str) -> np.ndarray:
    """The real part of ``z``, which must be real within ``tol_check``."""
    _require(np.abs(z.imag) > cfg.tol_check, NonRealResultError,
             lambda i: f"{what} has imaginary part {z.imag[i]:.3e}; "
                       "inputs are likely not Hermitian")
    return z.real


def _real_rows(z: np.ndarray, p, cfg: Config) -> np.ndarray:
    """:func:`_real` of the (R, [N]) symplectic values ``z`` at a point or an N-stack
    ``p``, one pass over them in (row, point) order (:func:`_by_point`)."""
    real = _stacked(lambda z: _real(z, cfg, "symplectic form"), z.reshape(-1), _by_point(p))
    return real.reshape(z.shape)


def _require_offdiag(framed: np.ndarray, p, cfg: Config):
    worst = np.abs(framed).max(axis=(-2, -1), where=p.same_cluster, initial=0.0)
    _require(worst > cfg.tol_hermitian, NotOffDiagonalError,
             lambda i: f"diagonal blocks reach {worst[i]:.3e}; "
                       "split off the commuting part first")


def _j_factor(p) -> np.ndarray:
    """J's elementwise factor ``i sign(gaps)`` in the frame of a point or stack ``p``."""
    return 1j * np.sign(p.gaps)


def _tr(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Tr(x @ y) over the trailing two axes, as an elementwise sum without the product."""
    return (x * y.swapaxes(-1, -2)).sum(axis=(-2, -1))


def _j(x: np.ndarray, p, cfg: Config) -> np.ndarray:
    """J of the tangent matrices ``x`` in the frame of a point or stack ``p``:
    the tangent of the twisted lift, ``i gaps / hbar`` times it."""
    return 1j / cfg.hbar * p.gaps * (_j_factor(p) * _lift(x, p, cfg.hbar))


def _omega(x: np.ndarray, y: np.ndarray, p, cfg: Config) -> np.ndarray:
    """omega(X, Y) = Tr(B_X Y) of tangent matrices ``x``, ``y`` in the frame of ``p``."""
    return _real(_tr(_lift(x, p, cfg.hbar), y), cfg, "symplectic form")


def _symplectic(commutator: np.ndarray, rho: np.ndarray, cfg: Config) -> np.ndarray:
    """(1/(i hbar)) Tr([A, B] rho) from ``commutator = [A, B]``, over the
    trailing two axes of both."""
    return _real(_tr(commutator, rho) / (1j * cfg.hbar), cfg, "symplectic form")


def _h_blocks(fa: np.ndarray, fb: np.ndarray, p, cfg: Config) -> np.ndarray:
    """The closed block form of h from generators ``fa``, ``fb`` in the frame of
    a point or stack ``p``."""
    return 2.0 / cfg.hbar * (np.maximum(p.gaps, 0.0) * fa * fb.conj()).sum(axis=(-2, -1))


def _h_parts(x: np.ndarray, y: np.ndarray, p, cfg: Config) -> list:
    """``[g, omega]`` of tangent matrices ``x``, ``y`` in the frame of a point or
    stack ``p``: Tr((J B) Y) and Tr(B Y), B the lift of X."""
    lifted = _lift(x, p, cfg.hbar)
    return [_real(_tr(m, y), cfg, "symplectic form") for m in (_j_factor(p) * lifted, lifted)]


def j_generator(b: HermitianOperator, p: OrbitPoint,
                cfg: Config = DEFAULT_CONFIG) -> HermitianOperator:
    """Generator inducing J of the tangent vector induced by ``b``.

    In the frame of ``p`` the blocks above the diagonal are multiplied by i
    and the blocks below by -i. Requires ``b`` purely off-block-diagonal.
    """
    _check_dims(p, b)
    framed = p.to_frame(b.matrix)
    _require_offdiag(framed, p, cfg)
    return HermitianOperator(p.from_frame(_j_factor(p) * framed))


def apply_J(x: TangentVector, cfg: Config = DEFAULT_CONFIG) -> TangentVector:
    """The complex structure on tangent vectors, in the frame of the base."""
    p = x.base
    return TangentVector(p, p.from_frame(_j(p.to_frame(x.ambient), p, cfg)))


def symplectic(a: HermitianOperator, b: HermitianOperator, p: OrbitPoint,
               cfg: Config = DEFAULT_CONFIG) -> float:
    """The orbit symplectic form on the tangent directions generated by a, b.

    Returns (1/(i hbar)) Tr([A, B] rho). The imaginary residual must stay
    below ``tol_check``; a large one signals corrupted inputs and raises
    :class:`NonRealResultError` instead of being discarded.
    """
    _check_dims(p, a, b)
    return float(_symplectic(a.matrix @ b.matrix - b.matrix @ a.matrix, p.rho, cfg))


def symplectic_tangent(x: TangentVector, y: TangentVector,
                       cfg: Config = DEFAULT_CONFIG) -> float:
    """The symplectic form on tangent vectors, via the generator of ``x``.

    Evaluates Tr(B_x Y) with B_x the off-block-diagonal generator of ``x``,
    which equals the commutator form on the lifted generators.
    """
    _require_same_base(x.base, y.base)
    return float(_omega(x.base.to_frame(x.ambient), x.base.to_frame(y.ambient), x.base, cfg))


def metric(x: TangentVector, y: TangentVector,
           cfg: Config = DEFAULT_CONFIG) -> float:
    """Riemannian metric g(X, Y) = omega(JX, Y); positive definite."""
    return hermitian_product(x, y, cfg).real


def hermitian_product(x: TangentVector, y: TangentVector,
                      cfg: Config = DEFAULT_CONFIG) -> complex:
    """Hermitian product h(X, Y) = g(X, Y) + i omega(X, Y)."""
    _require_same_base(x.base, y.base)
    return complex(*_h_parts(x.base.to_frame(x.ambient), x.base.to_frame(y.ambient), x.base, cfg))


def hermitian_product_blocks(a: HermitianOperator, b: HermitianOperator,
                             p: OrbitPoint, cfg: Config = DEFAULT_CONFIG) -> complex:
    """The closed block form of h (module docstring) on the directions
    generated by off-block-diagonal ``a`` and ``b`` at ``p``; it agrees with
    :func:`hermitian_product` of the generated tangent vectors."""
    _check_dims(p, a, b)
    fa, fb = p.to_frame(a.matrix), p.to_frame(b.matrix)
    _require_offdiag(fa, p, cfg)
    _require_offdiag(fb, p, cfg)
    return complex(_h_blocks(fa, fb, p, cfg))


def kahler_evaluation(a: HermitianOperator, b: HermitianOperator, p: OrbitPoint,
                      cfg: Config = DEFAULT_CONFIG) -> KahlerEvaluation:
    """Evaluate omega, g, and h on the tangent directions generated by a, b,
    by the closed block form, which gives the diagonal blocks weight 0."""
    _check_dims(p, a, b)
    h = complex(_h_blocks(p.to_frame(a.matrix), p.to_frame(b.matrix), p, cfg))
    return KahlerEvaluation(omega=h.imag, metric=h.real, h=h)
