"""Tangent vectors to a unitary orbit and their operator representations.

The map ``H -> (1/(i hbar)) [H, rho]`` sends Hermitian operators onto the
tangent space at rho. In the frame of rho it multiplies entry (a, b) by
``i gaps[a, b] / hbar`` (gap-mask convention in :mod:`orbit_kahler.operators`),
so its kernel is the operators on the diagonal cluster blocks, and on the
off-cluster entries it is inverted by ``B = -i hbar X * inv_gaps``.

That inverse, ``_lift``, takes and returns matrices in the frame of rho; it is
the one kernel of :mod:`orbit_kahler.kahler`, fed by ambient tangents framed once.

Tangent vectors remember their base point. Operations mixing vectors at
different points raise :class:`BaseMismatchError` rather than re-basing.
"""

from __future__ import annotations

import numpy as np

from .config import Config, DEFAULT_CONFIG
from .errors import BaseMismatchError, DimMismatchError, NotHermitianError
from .operators import (
    HermitianOperator,
    OrbitPoint,
    _check_dims,
    _freeze,
    _require_hermitian,
    _value_type,
)

__all__ = [
    "TangentVector",
    "tangent_map",
    "make_tangent",
    "split_kernel",
    "lift",
]


def _require_same_base(p: OrbitPoint, q: OrbitPoint):
    if p is not q and p != q:
        raise BaseMismatchError("tangent vectors live at different base points")


@_value_type
class TangentVector:
    """A tangent vector at ``base``, stored as its ambient Hermitian matrix.

    In the frame of the base point the matrix has vanishing diagonal blocks.
    """

    base: OrbitPoint
    ambient: np.ndarray

    def __post_init__(self):
        _check_dims(self.base)
        ambient = _freeze(self.ambient)
        if ambient.shape != self.base.rho.shape:
            raise DimMismatchError(f"shape {ambient.shape} vs point dim {self.base.dim}")
        object.__setattr__(self, "ambient", ambient)


def _tangent(h: np.ndarray, rho: np.ndarray, hbar: float, rho_h=None) -> np.ndarray:
    """(1/(i hbar))[H, rho] for a point's or a stack's ``rho``; ``rho_h`` is
    ``rho @ h`` when the caller has formed it already."""
    return (h @ rho - (rho @ h if rho_h is None else rho_h)) / (1j * hbar)


def _framed_tangent(h: np.ndarray, p, hbar: float, rho_h=None) -> np.ndarray:
    """:func:`_tangent` at a point or stack ``p``, expressed in its frame."""
    return p.to_frame(_tangent(h, p.rho, hbar, rho_h))


def _lift(x: np.ndarray, p, hbar: float) -> np.ndarray:
    """Off-block-diagonal generator of the tangent matrices ``x`` at a point or
    stack ``p``, both in its frame: ``-i hbar X * inv_gaps``."""
    return -1j * hbar * x * p.inv_gaps


def tangent_map(h: HermitianOperator, p: OrbitPoint,
                cfg: Config = DEFAULT_CONFIG) -> TangentVector:
    """Tangent vector generated by a Hermitian operator: (1/(i hbar))[H, rho]."""
    _check_dims(p, h)
    return TangentVector(p, _tangent(h.matrix, p.rho, cfg.hbar))


def make_tangent(ambient, p: OrbitPoint, cfg: Config = DEFAULT_CONFIG) -> TangentVector:
    """Validate an ambient matrix as a tangent vector at ``p``.

    Requires hermiticity and vanishing diagonal blocks in the frame of ``p``.
    """
    x = TangentVector(p, ambient)
    _require_hermitian(x.ambient, cfg)
    worst = float(np.max(np.abs(p.to_frame(x.ambient)), where=p.same_cluster, initial=0.0))
    if worst > cfg.tol_hermitian:
        raise NotHermitianError(
            f"diagonal blocks do not vanish: max entry {worst:.3e}")
    return x


def split_kernel(h: HermitianOperator, p: OrbitPoint):
    """Split an operator into commuting and off-block-diagonal parts at ``p``.

    Returns ``(kernel_part, complement_part)``: the first is block diagonal in
    the frame of ``p`` (it commutes with rho, so it generates no motion), the
    second is purely off-block-diagonal; they sum to ``h``.
    """
    _check_dims(p, h)
    return tuple(HermitianOperator(part) for part in _split(h.matrix, p))


def _split(h: np.ndarray, p) -> tuple:
    """The parts of :func:`split_kernel` at a point or stack ``p``."""
    framed = p.to_frame(h)
    kernel = np.where(p.same_cluster, framed, 0.0)
    return p.from_frame(kernel), p.from_frame(framed - kernel)


def lift(x: TangentVector, cfg: Config = DEFAULT_CONFIG) -> HermitianOperator:
    """The unique off-block-diagonal generator of a tangent vector.

    Inverts the tangent map on its complement: in the frame of the base,
    ``B = -i hbar X * inv_gaps``, which vanishes on the diagonal blocks.
    """
    p = x.base
    return HermitianOperator(p.from_frame(_lift(p.to_frame(x.ambient), p, cfg.hbar)))
