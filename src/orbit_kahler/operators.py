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

Batches. :class:`OrbitBatch` stacks N points of one dimension along a leading
axis. The kernels here and in the modules above take either a point or a
batch and work over the trailing two axes, so a single point runs the same
code as one row of a batch and gives bitwise the same numbers. A batch
raises the error that evaluating its rows one at a time would raise first,
with the message prefixed ``row i:``.
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
    "OrbitBatch",
    "make_hermitian",
    "make_spectrum",
    "orbit_point",
    "orbit_batch",
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


def _raise_first(checks):
    """Raise the error that a one-at-a-time loop would raise first.

    ``checks`` lists ``(bad, error class, message)`` in the order one point
    runs them; ``bad`` is 0-d for a single point and has one entry per row
    for a batch, and ``message(i)`` formats the failure at index ``i`` (``()``
    for a single point). The first failing row wins, within it the first
    failing check; a batch message names its row.
    """
    if not np.logical_or.reduce([bad for bad, _, _ in checks], axis=None):
        return
    row, k = min((np.flatnonzero(bad)[0], k)
                 for k, (bad, _, _) in enumerate(checks) if bad.any())
    bad, error, message = checks[k]
    if bad.ndim == 0:
        raise error(message(()))
    raise error(f"row {row}: {message(row)}")


def _checked(kernel, *args):
    """``kernel(*args, checks)``, raising the first failure it appends to ``checks``."""
    checks = []
    out = kernel(*args, checks)
    _raise_first(checks)
    return out


def _require_finite(arr: np.ndarray, error):
    if not np.isfinite(arr).all():
        raise error("non-finite entries")


def _dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes."""
    return m.conj().swapaxes(-1, -2)


def _to_frame(frame: np.ndarray, m: np.ndarray) -> np.ndarray:
    return _dagger(frame) @ m @ frame


def _from_frame(frame: np.ndarray, m: np.ndarray) -> np.ndarray:
    return frame @ m @ _dagger(frame)


def _hermiticity_defects(m: np.ndarray) -> np.ndarray:
    return np.abs(m - _dagger(m)).max(axis=(-2, -1))


def _unitarity_defects(m: np.ndarray) -> np.ndarray:
    return np.abs(m @ _dagger(m) - np.eye(m.shape[-1])).max(axis=(-2, -1))


def hermiticity_defect(matrix: np.ndarray) -> float:
    """Max-norm distance from a matrix to its conjugate transpose."""
    return float(_hermiticity_defects(matrix))


def unitarity_defect(matrix: np.ndarray) -> float:
    """Max-norm distance of ``U U^dag`` from the identity."""
    return float(_unitarity_defects(matrix))


def _hermitian_checks(m: np.ndarray, cfg: Config) -> list:
    defect = _hermiticity_defects(m)
    return [(defect > cfg.tol_hermitian, NotHermitianError,
             lambda i: f"max |M - M^dag| = {defect[i]:.3e} "
                       f"exceeds {cfg.tol_hermitian:.1e}")]


def _unitary_checks(u: np.ndarray, cfg: Config, what: str) -> list:
    udef = _unitarity_defects(u)
    return [(udef > cfg.tol_unitary, NotUnitaryError,
             lambda i: f"{what} {udef[i]:.3e}")]


def _require_unitary(u: np.ndarray, cfg: Config):
    _require_finite(u, NotUnitaryError)
    _raise_first(_unitary_checks(u, cfg, "unitarity defect"))


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


class _GapMasks:
    """Gap masks over the last axis of ``eigenvalues`` (a point or a batch)."""

    @property
    def dim(self) -> int:
        return self.rho.shape[-1]

    @cached_property
    def gaps(self) -> np.ndarray:
        """``gaps[a, b] = lambda_a - lambda_b``; exactly 0 inside a cluster."""
        values = self.eigenvalues
        return _freeze(values[..., :, None] - values[..., None, :], float)

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


@dataclass(frozen=True)
class OrbitPoint(_GapMasks):
    """A density operator with a cluster-ordered diagonalizing frame."""

    rho: np.ndarray
    spectrum: Spectrum
    frame: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rho", _freeze(self.rho))
        object.__setattr__(self, "frame", _freeze(self.frame))

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """The eigenvalues repeated by multiplicity, descending."""
        return _freeze(self.spectrum.full_values(), float)

    def block_slices(self) -> tuple:
        """Index slices of the eigenvalue clusters in the frame ordering."""
        ends = itertools.accumulate(self.spectrum.mults)
        return tuple(slice(end - m, end) for m, end in zip(self.spectrum.mults, ends))

    def diagonal_matrix(self) -> np.ndarray:
        """The block-diagonal normal form diag(p_1 I_{n_1}, ..., p_k I_{n_k})."""
        return np.diag(self.spectrum.full_values()).astype(np.complex128)

    def to_frame(self, matrix: np.ndarray) -> np.ndarray:
        """Express an ambient matrix in the frame of this point."""
        return _to_frame(self.frame, matrix)

    def from_frame(self, matrix: np.ndarray) -> np.ndarray:
        """Map a frame-coordinates matrix back to the ambient basis."""
        return _from_frame(self.frame, matrix)


def _spectrum(values: np.ndarray, cluster_start: np.ndarray) -> Spectrum:
    bounds = cluster_start.nonzero()[0].tolist() + [values.size]
    return Spectrum(values=tuple(values[bounds[:-1]].tolist()),
                    mults=tuple(end - start for start, end in zip(bounds, bounds[1:])))


@dataclass(frozen=True)
class OrbitBatch(_GapMasks):
    """N density operators of one dimension d with their frames, stacked.

    ``rho`` and ``frame`` are (N, d, d); ``eigenvalues`` (N, d) are the
    cluster values repeated by multiplicity, descending, and
    ``cluster_start`` (N, d) marks the first index of each cluster. ``gaps``,
    ``same_cluster`` and ``inv_gaps`` are (N, d, d). ``batch[i]`` is the
    :class:`OrbitPoint` that :func:`orbit_point` returns for row i.
    """

    rho: np.ndarray
    frame: np.ndarray
    eigenvalues: np.ndarray
    cluster_start: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rho", _freeze(self.rho))
        object.__setattr__(self, "frame", _freeze(self.frame))
        object.__setattr__(self, "eigenvalues", _freeze(self.eigenvalues, float))
        object.__setattr__(self, "cluster_start", _freeze(self.cluster_start, bool))

    def __len__(self) -> int:
        return self.rho.shape[0]

    def __getitem__(self, i: int) -> OrbitPoint:
        return OrbitPoint(rho=self.rho[i],
                          spectrum=_spectrum(self.eigenvalues[i], self.cluster_start[i]),
                          frame=self.frame[i])


def make_hermitian(matrix, cfg: Config = DEFAULT_CONFIG) -> HermitianOperator:
    """Validate a square complex matrix as Hermitian.

    No symmetrization is applied: a matrix farther than ``cfg.tol_hermitian``
    from its conjugate transpose is rejected, not repaired.
    """
    arr = np.asarray(matrix, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimMismatchError(f"expected a square matrix, got shape {arr.shape}")
    _require_finite(arr, NotHermitianError)
    _raise_first(_hermitian_checks(arr, cfg))
    return HermitianOperator(arr)


def _cluster_means(w: np.ndarray, first: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Every entry of the flat ``w`` replaced by the mean of its cluster.

    Clusters of one size are summed together along the rows of one array,
    which adds them in the order ``np.mean`` adds one cluster alone; a
    cluster of one is its entry plus 0.0, as in ``np.mean``.
    """
    out = w + 0.0
    for m in set(sizes.tolist()) - {1}:
        index = first[sizes == m][:, None] + np.arange(m)
        out[index] = (np.add.reduce(w[index], axis=-1) / m)[:, None]
    return out


def _frame_checks(rho: np.ndarray, frame: np.ndarray, values: np.ndarray,
                  cfg: Config) -> list:
    """Checks that ``frame`` is unitary and reduces ``rho`` to diag(values)."""
    diagonal = values[..., None, :] * np.eye(rho.shape[-1])
    residual = np.abs(_to_frame(frame, rho) - diagonal).max(axis=(-2, -1))
    # cluster representatives are means, so merged eigenvalues may sit up to
    # about dim * tol_cluster away from them
    bound = 10 * cfg.tol_hermitian + rho.shape[-1] * cfg.tol_cluster
    return _unitary_checks(frame, cfg, "frame unitarity defect") + [(
        residual > bound, NotHermitianError,
        lambda i: "frame does not reduce rho to block-diagonal form: "
                  f"residual {residual[i]:.3e}")]


def _validate_point(rho: np.ndarray, spectrum: Spectrum, frame: np.ndarray,
                    cfg: Config) -> OrbitPoint:
    # a frame built from outside input may be non-finite, which the products
    # in the checks would only warn about
    _require_finite(frame, NotUnitaryError)
    _raise_first(_frame_checks(rho, frame, spectrum.full_values(), cfg))
    return OrbitPoint(rho=rho, spectrum=spectrum, frame=frame)


def _diagonalize(rho: np.ndarray, cfg: Config, checks: list):
    """Eigenframes of a Hermitian (d, d) matrix or (N, d, d) stack, grouped by cluster.

    Returns ``(frame, eigenvalues, cluster_start)`` and appends its checks
    to ``checks``. Eigenvalues are sorted descending and merged by single
    linkage within ``cfg.tol_cluster`` (a gap between clusters under twice
    that is ambiguous, a :class:`DegenerateGapError`), each cluster is
    represented by its mean, and the density conditions of
    :func:`make_spectrum` apply.
    """
    w, v = np.linalg.eigh(rho)  # eigenvalues ascending
    w = w[..., ::-1]
    v = np.ascontiguousarray(v[..., ::-1])
    step = w[..., :-1] - w[..., 1:]
    split = step > cfg.tol_cluster
    ambiguous = split & (step < 2 * cfg.tol_cluster)
    cluster_start = np.ones(w.shape, bool)
    cluster_start[..., 1:] = split
    bounds = np.concatenate((cluster_start.ravel(), [True])).nonzero()[0]
    first, sizes = bounds[:-1], bounds[1:] - bounds[:-1]
    means = _cluster_means(w.reshape(-1), first, sizes)
    values = np.where(means < 0.0, 0.0, means)
    terms = np.zeros_like(values)
    terms[first] = sizes * values[first]
    # summed left to right over clusters, as make_spectrum sums them
    trace = terms.reshape(w.shape).cumsum(axis=-1)[..., -1]
    lowest = means.reshape(w.shape)[..., -1]
    values = values.reshape(w.shape)
    checks += [
        (ambiguous.any(axis=-1), DegenerateGapError,
         lambda i: f"cluster gap {step[i][ambiguous[i]][0]:.3e} falls in the "
                   f"ambiguous band ({cfg.tol_cluster:.1e}, {2 * cfg.tol_cluster:.1e})"),
        (lowest < -cfg.tol_trace, NotDensityError,
         lambda i: f"negative eigenvalue {float(lowest[i])}"),
        (np.abs(trace - 1.0) > cfg.tol_trace, NotDensityError,
         lambda i: f"trace {float(trace[i])} differs from 1 beyond {cfg.tol_trace}"),
    ] + _frame_checks(rho, v, values, cfg)
    return v, values, cluster_start


def orbit_point(rho: HermitianOperator, cfg: Config = DEFAULT_CONFIG) -> OrbitPoint:
    """Diagonalize a density operator and anchor it on its unitary orbit.

    Eigenvalues are sorted descending and clustered with tolerance
    ``cfg.tol_cluster``; the frame columns are grouped accordingly. Raises
    :class:`NotDensityError` for negative eigenvalues (beyond ``tol_trace``)
    or non-unit trace, :class:`DegenerateGapError` for ambiguous clustering.
    """
    frame, values, cluster_start = _checked(_diagonalize, rho.matrix, cfg)
    return OrbitPoint(rho=rho.matrix, spectrum=_spectrum(values, cluster_start),
                      frame=frame)


def orbit_batch(rhos, cfg: Config = DEFAULT_CONFIG) -> OrbitBatch:
    """:func:`make_hermitian` and :func:`orbit_point` on an (N, d, d) stack at once.

    One ``eigh`` covers the stack and every check runs on all rows together;
    the error raised is the one the first failing row raises alone, its
    message prefixed ``row i:``.
    """
    arr = np.asarray(rhos, dtype=np.complex128)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise DimMismatchError(f"expected an (N, d, d) stack, got shape {arr.shape}")
    finite = np.isfinite(arr).all(axis=(1, 2))
    if not finite.all():
        row = int(np.argmin(finite))
        orbit_batch(arr[:row], cfg)  # a failure in an earlier row comes first
        raise NotHermitianError(f"row {row}: non-finite entries")
    checks = _hermitian_checks(arr, cfg)
    frame, values, cluster_start = _diagonalize(arr, cfg, checks)
    _raise_first(checks)
    return OrbitBatch(rho=arr, frame=frame, eigenvalues=values, cluster_start=cluster_start)


def conjugate(a: HermitianOperator, unitary: np.ndarray,
              cfg: Config = DEFAULT_CONFIG) -> HermitianOperator:
    """Adjoint action ``U A U^dag`` of a unitary on a Hermitian operator."""
    u = np.asarray(unitary, dtype=np.complex128)
    if u.shape != a.matrix.shape:
        raise DimMismatchError(f"operator dim {a.dim} vs unitary shape {u.shape}")
    _require_unitary(u, cfg)
    return HermitianOperator(u @ a.matrix @ u.conj().T)


def conjugate_point(p: OrbitPoint, unitary: np.ndarray,
                    cfg: Config = DEFAULT_CONFIG) -> OrbitPoint:
    """Move a point along the orbit: ``rho -> U rho U^dag``, frame ``U U_p``.

    The spectrum is carried over unchanged (conjugation preserves it exactly).
    """
    u = np.asarray(unitary, dtype=np.complex128)
    _require_unitary(u, cfg)
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
