"""Tangent vectors to a unitary orbit and their operator representations.

The map ``H -> (1/(i hbar)) [H, rho]`` sends Hermitian operators onto the
tangent space at rho. In the frame of rho it multiplies entry (a, b) by
``i gaps[a, b] / hbar`` (gap-mask convention in :mod:`orbit_kahler.operators`),
so its kernel is the operators on the diagonal cluster blocks, and on the
off-cluster entries it is inverted by ``B = -i hbar X * inv_gaps``.

Tangent vectors remember their base point. Operations mixing vectors at
different points raise :class:`BaseMismatchError` rather than re-basing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Config, DEFAULT_CONFIG
from .errors import BaseMismatchError, DimMismatchError, NotHermitianError
from .operators import (
    HermitianOperator,
    OrbitPoint,
    _check_dims,
    _freeze,
    _from_frame,
    _hermitian_checks,
    _raise_first,
    _require_finite,
    _to_frame,
)

__all__ = [
    "TangentVector",
    "tangent_map",
    "make_tangent",
    "split_kernel",
    "lift",
]


def same_base(p: OrbitPoint, q: OrbitPoint) -> bool:
    """Whether two orbit points are the same base point (same rho and frame)."""
    return (p is q) or (
        p.spectrum == q.spectrum
        and np.array_equal(p.rho, q.rho)
        and np.array_equal(p.frame, q.frame)
    )


def _require_same_base(p: OrbitPoint, q: OrbitPoint):
    if not same_base(p, q):
        raise BaseMismatchError("tangent vectors live at different base points")


@dataclass(frozen=True)
class TangentVector:
    """A tangent vector at ``base``, stored as its ambient Hermitian matrix.

    In the frame of the base point the matrix has vanishing diagonal blocks.
    """

    base: OrbitPoint
    ambient: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ambient", _freeze(self.ambient))

    @property
    def dim(self) -> int:
        return self.ambient.shape[0]

    @property
    def max_norm(self) -> float:
        return float(np.max(np.abs(self.ambient)))

    @property
    def frobenius(self) -> float:
        return float(np.linalg.norm(self.ambient))

    def in_frame(self) -> np.ndarray:
        """Matrix of the vector in the frame of its base point."""
        return self.base.to_frame(self.ambient)

    def __add__(self, other: "TangentVector") -> "TangentVector":
        if not isinstance(other, TangentVector):
            return NotImplemented
        _require_same_base(self.base, other.base)
        return TangentVector(self.base, self.ambient + other.ambient)

    def __sub__(self, other: "TangentVector") -> "TangentVector":
        if not isinstance(other, TangentVector):
            return NotImplemented
        return self.__add__(-other)

    def __neg__(self) -> "TangentVector":
        return TangentVector(self.base, -self.ambient)

    def __mul__(self, scalar) -> "TangentVector":
        if np.ndim(scalar) != 0 or np.iscomplexobj(np.asarray(scalar)):
            return NotImplemented
        return TangentVector(self.base, float(scalar) * self.ambient)

    __rmul__ = __mul__


def _tangent(h: np.ndarray, rho: np.ndarray, hbar: float) -> np.ndarray:
    """(1/(i hbar))[H, rho] for a point's or a batch's ``rho``."""
    return (h @ rho - rho @ h) / (1j * hbar)


def _lift(x: np.ndarray, p, hbar: float) -> np.ndarray:
    """Off-block-diagonal generator of the tangent matrices ``x`` at a point or
    batch ``p``: ``-i hbar X * inv_gaps`` in its frame."""
    return _from_frame(p.frame, -1j * hbar * _to_frame(p.frame, x) * p.inv_gaps)


def tangent_map(h: HermitianOperator, p: OrbitPoint,
                cfg: Config = DEFAULT_CONFIG) -> TangentVector:
    """Tangent vector generated by a Hermitian operator: (1/(i hbar))[H, rho]."""
    _check_dims(p, h)
    return TangentVector(p, _tangent(h.matrix, p.rho, cfg.hbar))


def make_tangent(ambient, p: OrbitPoint, cfg: Config = DEFAULT_CONFIG) -> TangentVector:
    """Validate an ambient matrix as a tangent vector at ``p``.

    Requires hermiticity and vanishing diagonal blocks in the frame of ``p``.
    """
    arr = np.asarray(ambient, dtype=np.complex128)
    if arr.shape != (p.dim, p.dim):
        raise DimMismatchError(f"shape {arr.shape} vs point dim {p.dim}")
    _require_finite(arr, NotHermitianError)
    _raise_first(_hermitian_checks(arr, cfg))
    worst = float(np.max(np.abs(p.to_frame(arr)), where=p.same_cluster, initial=0.0))
    if worst > cfg.tol_hermitian:
        raise NotHermitianError(
            f"diagonal blocks do not vanish: max entry {worst:.3e}")
    return TangentVector(p, arr)


def split_kernel(h: HermitianOperator, p: OrbitPoint):
    """Split an operator into commuting and off-block-diagonal parts at ``p``.

    Returns ``(kernel_part, complement_part)``: the first is block diagonal in
    the frame of ``p`` (it commutes with rho, so it generates no motion), the
    second is purely off-block-diagonal; they sum to ``h``.
    """
    _check_dims(p, h)
    framed = p.to_frame(h.matrix)
    kernel = np.where(p.same_cluster, framed, 0.0)
    return (HermitianOperator(p.from_frame(kernel)),
            HermitianOperator(p.from_frame(framed - kernel)))


def lift(x: TangentVector, cfg: Config = DEFAULT_CONFIG) -> HermitianOperator:
    """The unique off-block-diagonal generator of a tangent vector.

    Inverts the tangent map on its complement: in the frame of the base,
    ``B = -i hbar X * inv_gaps``, which vanishes on the diagonal blocks.
    """
    return HermitianOperator(_lift(x.ambient, x.base, cfg.hbar))
