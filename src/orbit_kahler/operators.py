"""Hermitian operators, spectra, and points on unitary orbits of densities.

A density operator rho with distinct eigenvalues p_1 > ... > p_k (multiplicity
n_j) is stored together with a unitary frame U whose columns are grouped by
eigenvalue cluster, so that ``U^dag rho U = diag(lambda_1, ..., lambda_n)`` with
``lambda`` the eigenvalues repeated by multiplicity, in descending order.
Within a degenerate cluster the frame is unique only up to a block unitary
(the intra-cluster gauge); no canonical gauge is fixed, and all public scalars
are gauge invariant.

Gap-mask convention. Every structure map downstream is an elementwise factor
on a frame-coordinates matrix, read off ``OrbitPoint.gaps[a, b] = lambda_a -
lambda_b``. A zero gap means that a and b lie in the same cluster (the
diagonal blocks, ``OrbitPoint.same_cluster``); gaps > 0 is the upper triangle
of off-diagonal blocks, gaps < 0 the lower one.

Eigenvalues whose gaps are at most ``tol_cluster`` are merged into one
cluster. Gaps between clusters that are larger than ``tol_cluster`` but
smaller than twice it are ambiguous and raise :class:`DegenerateGapError`
rather than silently committing to a block structure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import Config, DEFAULT_CONFIG
from .errors import (
    DegenerateGapError,
    DimMismatchError,
    NotDensityError,
    NotHermitianError,
    NotUnitaryError,
)

__all__ = [
    "HermitianOperator",
    "Spectrum",
    "OrbitPoint",
    "make_hermitian",
    "make_spectrum",
    "orbit_point",
    "conjugate",
    "conjugate_point",
    "with_gauge",
    "random_density",
    "haar_unitary",
    "hermiticity_defect",
    "unitarity_defect",
]


def _freeze(arr, dtype=np.complex128) -> np.ndarray:
    """Read-only copy, so no caller keeps a writeable alias."""
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


def _check_dims(p: "OrbitPoint", *operators):
    for op in operators:
        if op.dim != p.dim:
            raise DimMismatchError(f"operator dim {op.dim} vs point dim {p.dim}")


def hermiticity_defect(matrix: np.ndarray) -> float:
    """Max-norm distance from a matrix to its conjugate transpose."""
    return float(np.max(np.abs(matrix - matrix.conj().T)))


def unitarity_defect(matrix: np.ndarray) -> float:
    """Max-norm distance of ``U U^dag`` from the identity."""
    n = matrix.shape[0]
    return float(np.max(np.abs(matrix @ matrix.conj().T - np.eye(n))))


@dataclass(frozen=True)
class HermitianOperator:
    """A validated n x n complex matrix equal to its conjugate transpose.

    Construct through :func:`make_hermitian`; arithmetic with real scalars and
    other Hermitian operators stays inside the class.
    """

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _freeze(self.matrix))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __add__(self, other: "HermitianOperator") -> "HermitianOperator":
        if not isinstance(other, HermitianOperator):
            return NotImplemented
        if other.dim != self.dim:
            raise DimMismatchError(f"dims {self.dim} and {other.dim}")
        return HermitianOperator(self.matrix + other.matrix)

    def __sub__(self, other: "HermitianOperator") -> "HermitianOperator":
        if not isinstance(other, HermitianOperator):
            return NotImplemented
        return self.__add__(-other)

    def __neg__(self) -> "HermitianOperator":
        return HermitianOperator(-self.matrix)

    def __mul__(self, scalar) -> "HermitianOperator":
        if not np.isrealobj(np.asarray(scalar)) or np.ndim(scalar) != 0:
            return NotImplemented
        return HermitianOperator(float(scalar) * self.matrix)

    __rmul__ = __mul__


@dataclass(frozen=True)
class Spectrum:
    """Distinct eigenvalues in strictly descending order with multiplicities."""

    values: tuple
    mults: tuple

    @property
    def total_dim(self) -> int:
        return int(sum(self.mults))

    @property
    def k(self) -> int:
        """Number of distinct eigenvalue clusters."""
        return len(self.values)

    @property
    def span(self) -> float:
        """Largest minus smallest distinct eigenvalue."""
        return float(self.values[0] - self.values[-1])

    @property
    def weighted_sum(self) -> float:
        """Trace of any operator with this spectrum."""
        return float(sum(n * p for p, n in zip(self.values, self.mults)))

    def full_values(self) -> np.ndarray:
        """All eigenvalues with multiplicity, descending."""
        return np.repeat(np.asarray(self.values, dtype=float),
                         np.asarray(self.mults, dtype=int))


def make_spectrum(values, mults, cfg: Config = DEFAULT_CONFIG,
                  density: bool = True) -> Spectrum:
    """Validate and build a :class:`Spectrum`.

    Gaps must exceed ``cfg.tol_cluster``; density spectra must be nonnegative
    with unit weighted trace within ``cfg.tol_trace``.
    """
    values = tuple(float(v) for v in values)
    mults = tuple(int(m) for m in mults)
    if len(values) != len(mults) or not values:
        raise ValueError("values and mults must be nonempty and of equal length")
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"eigenvalues must be finite, got {values}")
    if any(m < 1 for m in mults):
        raise ValueError(f"multiplicities must be positive, got {mults}")
    for a, b in zip(values, values[1:]):
        if not a - b > cfg.tol_cluster:
            raise DegenerateGapError(
                f"values not strictly descending with gap > {cfg.tol_cluster}: {a} vs {b}")
    if density:
        if min(values) < -cfg.tol_trace:
            raise NotDensityError(f"negative eigenvalue {min(values)}")
        values = tuple(max(v, 0.0) for v in values)
        trace = sum(n * p for p, n in zip(values, mults))
        if abs(trace - 1.0) > cfg.tol_trace:
            raise NotDensityError(f"trace {trace} differs from 1 beyond {cfg.tol_trace}")
    return Spectrum(values=values, mults=mults)


@dataclass(frozen=True)
class OrbitPoint:
    """A density operator with a cluster-ordered diagonalizing frame."""

    rho: np.ndarray
    spectrum: Spectrum
    frame: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rho", _freeze(self.rho))
        object.__setattr__(self, "frame", _freeze(self.frame))

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    @cached_property
    def gaps(self) -> np.ndarray:
        """``gaps[a, b] = lambda_a - lambda_b``; exactly 0 inside a cluster."""
        values = self.spectrum.full_values()
        return _freeze(values[:, None] - values[None, :], float)

    @cached_property
    def same_cluster(self) -> np.ndarray:
        """Mask of the diagonal cluster blocks (``gaps == 0``)."""
        return _freeze(self.gaps == 0, bool)

    @cached_property
    def inv_gaps(self) -> np.ndarray:
        """``1 / gaps`` off the diagonal cluster blocks, 0 on them."""
        out = np.zeros_like(self.gaps)
        np.divide(1.0, self.gaps, out=out, where=~self.same_cluster)
        return _freeze(out, float)

    def block_slices(self) -> tuple:
        """Index slices of the eigenvalue clusters in the frame ordering."""
        ends = itertools.accumulate(self.spectrum.mults)
        return tuple(slice(end - m, end) for m, end in zip(self.spectrum.mults, ends))

    def diagonal_matrix(self) -> np.ndarray:
        """The block-diagonal normal form diag(p_1 I_{n_1}, ..., p_k I_{n_k})."""
        return np.diag(self.spectrum.full_values()).astype(np.complex128)

    def to_frame(self, matrix: np.ndarray) -> np.ndarray:
        """Express an ambient matrix in the frame of this point."""
        return self.frame.conj().T @ matrix @ self.frame

    def from_frame(self, matrix: np.ndarray) -> np.ndarray:
        """Map a frame-coordinates matrix back to the ambient basis."""
        return self.frame @ matrix @ self.frame.conj().T


def make_hermitian(matrix, cfg: Config = DEFAULT_CONFIG) -> HermitianOperator:
    """Validate a square complex matrix as Hermitian.

    No symmetrization is applied: a matrix farther than ``cfg.tol_hermitian``
    from its conjugate transpose is rejected, not repaired.
    """
    arr = np.asarray(matrix, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimMismatchError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NotHermitianError("non-finite entries")
    defect = hermiticity_defect(arr)
    if defect > cfg.tol_hermitian:
        raise NotHermitianError(
            f"max |M - M^dag| = {defect:.3e} exceeds {cfg.tol_hermitian:.1e}")
    return HermitianOperator(arr)


def _cluster_descending(eigenvalues: np.ndarray, cfg: Config):
    """Merge descending eigenvalues into clusters by single linkage.

    Returns (cluster values as means, multiplicities). Raises
    :class:`DegenerateGapError` when two clusters sit closer than twice the
    merge tolerance (but farther than the tolerance itself), where the block
    structure would be numerically ambiguous.
    """
    groups = [[eigenvalues[0]]]
    for w in eigenvalues[1:]:
        if groups[-1][-1] - w <= cfg.tol_cluster:
            groups[-1].append(w)
        else:
            groups.append([w])
    for upper, lower in zip(groups, groups[1:]):
        edge_gap = upper[-1] - lower[0]
        if edge_gap < 2 * cfg.tol_cluster:
            raise DegenerateGapError(
                f"cluster gap {edge_gap:.3e} falls in the ambiguous band "
                f"({cfg.tol_cluster:.1e}, {2 * cfg.tol_cluster:.1e})")
    values = [float(np.mean(g)) for g in groups]
    mults = [len(g) for g in groups]
    return values, mults


def _validate_point(rho: np.ndarray, spectrum: Spectrum, frame: np.ndarray,
                    cfg: Config) -> OrbitPoint:
    udef = unitarity_defect(frame)
    if udef > cfg.tol_unitary:
        raise NotUnitaryError(f"frame unitarity defect {udef:.3e}")
    diag = np.diag(spectrum.full_values())
    residual = float(np.max(np.abs(frame.conj().T @ rho @ frame - diag)))
    # cluster representatives are means, so merged eigenvalues may sit up to
    # about dim * tol_cluster away from them
    if residual > 10 * cfg.tol_hermitian + rho.shape[0] * cfg.tol_cluster:
        raise NotHermitianError(
            f"frame does not reduce rho to block-diagonal form: residual {residual:.3e}")
    return OrbitPoint(rho=rho, spectrum=spectrum, frame=frame)


def orbit_point(rho: HermitianOperator, cfg: Config = DEFAULT_CONFIG) -> OrbitPoint:
    """Diagonalize a density operator and anchor it on its unitary orbit.

    Eigenvalues are sorted descending and clustered with tolerance
    ``cfg.tol_cluster``; the frame columns are grouped accordingly. Raises
    :class:`NotDensityError` for negative eigenvalues (beyond ``tol_trace``)
    or non-unit trace, :class:`DegenerateGapError` for ambiguous clustering.
    """
    w, v = np.linalg.eigh(rho.matrix)
    order = np.argsort(w)[::-1]
    w, v = w[order], v[:, order]
    values, mults = _cluster_descending(w, cfg)
    spectrum = make_spectrum(values, mults, cfg, density=True)
    return _validate_point(rho.matrix, spectrum, v, cfg)


def conjugate(a: HermitianOperator, unitary: np.ndarray,
              cfg: Config = DEFAULT_CONFIG) -> HermitianOperator:
    """Adjoint action ``U A U^dag`` of a unitary on a Hermitian operator."""
    u = np.asarray(unitary, dtype=np.complex128)
    if u.shape != a.matrix.shape:
        raise DimMismatchError(f"operator dim {a.dim} vs unitary shape {u.shape}")
    udef = unitarity_defect(u)
    if udef > cfg.tol_unitary:
        raise NotUnitaryError(f"unitarity defect {udef:.3e}")
    return HermitianOperator(u @ a.matrix @ u.conj().T)


def conjugate_point(p: OrbitPoint, unitary: np.ndarray,
                    cfg: Config = DEFAULT_CONFIG) -> OrbitPoint:
    """Move a point along the orbit: ``rho -> U rho U^dag``, frame ``U U_p``.

    The spectrum is carried over unchanged (conjugation preserves it exactly).
    """
    u = np.asarray(unitary, dtype=np.complex128)
    udef = unitarity_defect(u)
    if udef > cfg.tol_unitary:
        raise NotUnitaryError(f"unitarity defect {udef:.3e}")
    rho_new = u @ p.rho @ u.conj().T
    rho_new = 0.5 * (rho_new + rho_new.conj().T)
    return _validate_point(rho_new, p.spectrum, u @ p.frame, cfg)


def with_gauge(p: OrbitPoint, block_unitary: np.ndarray,
               cfg: Config = DEFAULT_CONFIG) -> OrbitPoint:
    """Right-multiply the frame by an intra-cluster (block-diagonal) unitary.

    The point itself is unchanged; this reparametrizes the residual gauge
    freedom inside degenerate clusters. The matrix must be block diagonal
    with respect to the multiplicity pattern of ``p``.
    """
    v = np.asarray(block_unitary, dtype=np.complex128)
    if v.shape != (p.dim, p.dim):
        raise DimMismatchError(f"gauge shape {v.shape} vs dim {p.dim}")
    if np.max(np.abs(v), where=~p.same_cluster, initial=0.0) > cfg.tol_unitary:
        raise NotUnitaryError("gauge matrix is not block diagonal for this point")
    return _validate_point(p.rho, p.spectrum, p.frame @ v, cfg)


def haar_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary from a seeded stream (QR with phase fix)."""
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_density(spectrum: Spectrum, seed,
                   cfg: Config = DEFAULT_CONFIG) -> OrbitPoint:
    """Haar-random point on the orbit labelled by ``spectrum``.

    Draws U Haar-uniformly from the seeded stream and returns the point
    ``U diag(p_1 I_{n_1}, ...) U^dag`` with frame U.
    """
    spectrum = make_spectrum(spectrum.values, spectrum.mults, cfg, density=True)
    u = haar_unitary(spectrum.total_dim, seed)
    rho = u @ np.diag(spectrum.full_values()) @ u.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return _validate_point(rho, spectrum, u, cfg)
