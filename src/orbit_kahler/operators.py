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

A point stores ``rho``, its frame and its eigenvalues; its cluster label
(``spectrum``) and gap masks are functions of the eigenvalues. Eigenvalues
whose gaps are at most ``tol_cluster`` are merged into one cluster, and so
are the density eigenvalues clamped to 0.0. Gaps between clusters that are
larger than ``tol_cluster`` but smaller than twice it are ambiguous and raise
:class:`DegenerateGapError` rather than silently committing to a block
structure.

Stacks. An :class:`OrbitPoint` also holds N points of one dimension, stacked
along a leading axis. The kernels here and in the modules above take a point
or a stack and work over the trailing two axes, so a single point runs the
same code as one row of a stack and gives bitwise the same numbers. The one
exception is the cluster label of a new point: a single point reads its
labels in one pass over its eigenvalues as Python floats, which costs less
than the numpy calls of the vectorized pass a stack takes, and the two agree
bit for bit, errors included. The public functions of a single point raise
:class:`TypeError` on a stack, and the ``_batch`` functions raise it on a
single point. Each check raises where it fails, with the error it builds
for its first failing row. On a stack, the rows before that row may still
fail a later check, so the stack function re-runs the stacked pass on them
until a prefix passes, and raises the error of the last row named, prefixed
``row i:``.

Copies. The public constructors and :func:`orbit_batch` copy the arrays they
are given; other points and derived arrays freeze new arrays in place. A row
or slice of a stack views its arrays, and the derived arrays the stack has
computed, which it need not freeze again.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property
from itertools import groupby

import numpy as np

from .config import Config, DEFAULT_CONFIG, _integer, _is_finite, _is_integral
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
    "orbit_batch",
    "conjugate",
    "conjugate_point",
    "with_gauge",
    "random_density",
    "haar_unitary",
]


def _freeze(arr, dtype=np.complex128) -> np.ndarray:
    """Read-only copy of an array a caller may still hold (else :func:`_frozen`)."""
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr`` and the arrays it views made read-only in place: for arrays no caller holds."""
    if isinstance(arr.base, np.ndarray):
        _frozen(arr.base)
    arr.setflags(False)  # write=False, without the slower keyword
    return arr


def _frozen_value(cls, *arrays, **cached):
    """A ``cls`` on ``arrays``, views of frozen or new arrays, with the values
    ``cached`` of its cached properties filled in, all made :func:`_frozen`."""
    return _value(cls, [_frozen(arr) for arr in arrays],
                  {name: _frozen(arr) for name, arr in cached.items()})


def _value(cls, arrays, cached: dict):
    """A ``cls`` on ``arrays`` and the ``cached`` values of its cached properties,
    all of them read-only already, with every array they view."""
    value = object.__new__(cls)
    value.__dict__.update(zip(cls.__dataclass_fields__, arrays), **cached)
    return value


def _check_dims(p: "OrbitPoint", *operators):
    """Check that ``p`` is a single point and the operators have its dim."""
    if p.rho.ndim != 2:
        raise TypeError(f"expected a single point, got rho of shape {p.rho.shape}")
    _check_operand_dims(p, *operators)


def _check_operand_dims(p: "OrbitPoint", *operators):
    for op in operators:
        if op.dim != p.dim:
            raise DimMismatchError(f"operator dim {op.dim} vs point dim {p.dim}")


def _value_type(cls):
    """A frozen dataclass whose ``==`` compares field by field: a field that
    is itself a value with ``==``, arrays and numbers with ``np.array_equal``.
    The hash stays the dataclass one, so a value holding arrays is unhashable."""
    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(a == b if is_dataclass(a) else np.array_equal(a, b) for a, b in pairs)
    cls.__eq__, cls.__hash__ = __eq__, None
    return dataclass(frozen=True)(cls)


class _BatchFailure(Exception):
    """A check failed on a stack: ``args`` are its first failing row and the
    error that row raises alone. Only :func:`_passing` catches it."""


def _require(bad, error, message):
    """Raise ``error(message(i))`` where a check fails, i the failing row; a
    check written ``~(x <= bound)`` fails a NaN.

    ``bad`` is 0-d for a point (i is ``()``) and has one entry per row for a
    stack; a failing stack raises :class:`_BatchFailure` with its first
    failing row m and the error ``error(message(m))``.
    """
    if bad.ndim == 0:
        if bad:
            raise error(message(()))
    elif np.count_nonzero(bad):
        m = int(bad.argmax())
        raise _BatchFailure(m, error(message(m)))


def _prefixed(m, error):
    """The error of row m, its message prefixed ``row m:``."""
    return type(error)(f"row {m}: {error}")


def _passing(run, rows):
    """``(run(rows), None)`` if the stacked pass passes; if a check fails on
    some row, ``(run(rows[:m]), (m, error))`` for the first failing row m
    and the error it raises alone (None in place of the run when m is 0).

    When the pass fails at row m, the rows before m passed that check but
    may fail a later one, so the pass re-runs on ``rows[:m]``: it either
    passes or names an earlier row, at a later check.
    """
    try:
        return run(rows), None
    except _BatchFailure as failure:
        m, error = failure.args
    if not m:
        return None, (m, error)
    done, earlier = _passing(run, rows[:m])
    return done, earlier or (m, error)


def _stacked(run, rows, rename=None):
    """``run(rows)``, a stacked pass; the first failing row m raises its own
    error, or ``rename(m, error)`` of it (:func:`_prefixed`, for one)."""
    done, failure = _passing(run, rows)
    if failure:
        raise rename(*failure) if rename else failure[1]
    return done


def _by_point(p, rename=lambda m, error: error):
    """The ``rename`` of :func:`_stacked` for a pass over rows ordered (row, point)
    at a point or an N-stack ``p``: failing row m raises ``rename(m, error)``, and
    on a stack fails its point m % N as a stacked row."""
    if p.rho.ndim == 2:
        return rename
    return lambda m, error: _BatchFailure(m % len(p), rename(m, error))


# a stacked pass over many points holds at most this many matrix entries,
# which bounds its memory at large dims; 2 ** 16 ran no faster on 2 vCPUs and
# peaked at 52 MB RSS against 40 MB for checks --samples 1000 --dims 3,12
_CHUNK_ENTRIES = 2 ** 12


def _passes(items: int, entries: int):
    """A slice per pass over ``items`` of ``entries`` matrix entries: _CHUNK_ENTRIES or one item."""
    size = max(1, _CHUNK_ENTRIES // entries)
    return (slice(start, start + size) for start in range(0, items, size))


def _require_finite(arr: np.ndarray, error):
    _require(~np.isfinite(arr).all(axis=(-2, -1)), error, lambda i: "non-finite entries")


def _dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes."""
    return m.conj().swapaxes(-1, -2)


def _require_diagonal(product: np.ndarray, diagonal, bound: float, error, what: str):
    """Check max |product - diagonal * I| <= bound over the trailing two axes, subtracted
    in place on the diagonal of the fresh ``product``, bit for bit; d * d sizes (0, d, d)."""
    d = product.shape[-1]
    product.reshape(product.shape[:-2] + (d * d,))[..., ::d + 1] -= diagonal
    defect = np.abs(product).max(axis=(-2, -1))
    _require(~(defect <= bound), error, lambda i: f"{what} {defect[i]:.3e}")


def _require_hermitian(m: np.ndarray, cfg: Config):
    """The checks of :func:`make_hermitian` on a matrix or a stack."""
    _require_finite(m, NotHermitianError)
    defect = np.abs(m - _dagger(m)).max(axis=(-2, -1))
    _require(defect > cfg.tol_hermitian, NotHermitianError,
             lambda i: f"max |M - M^dag| = {defect[i]:.3e} exceeds {cfg.tol_hermitian:.1e}")


def _require_unitary(u: np.ndarray, u_dagger: np.ndarray, cfg: Config, what="unitarity defect"):
    _require_diagonal(u @ u_dagger, 1.0, cfg.tol_unitary, NotUnitaryError, what)


@_value_type
class HermitianOperator:
    """A validated n x n complex matrix equal to its conjugate transpose.

    Construct through :func:`make_hermitian`.
    """

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _freeze(self.matrix))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


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

    def full_values(self) -> np.ndarray:
        """All eigenvalues with multiplicity, descending."""
        return np.repeat(np.asarray(self.values, dtype=float),
                         np.asarray(self.mults, dtype=int))


def make_spectrum(values, mults, cfg: Config = DEFAULT_CONFIG) -> Spectrum:
    """Validate and build the :class:`Spectrum` of a density operator.

    Gaps must exceed ``cfg.tol_cluster``; the values must be nonnegative
    with unit weighted trace within ``cfg.tol_trace``; values clamped to 0.0
    merge into one cluster, as in :func:`orbit_point`, so a built spectrum
    passes through unchanged.
    """
    values, mults = tuple(values), tuple(mults)
    if not all(_is_finite(v) for v in values):
        raise ValueError(f"eigenvalues must be finite numbers, got {values}")
    values = tuple(float(v) for v in values)
    if not all(_is_integral(m) for m in mults):
        raise ValueError(f"multiplicities must be integers, got {mults}")
    mults = tuple(int(m) for m in mults)
    if len(values) != len(mults) or not values:
        raise ValueError("values and mults must be nonempty and of equal length")
    if any(m < 1 for m in mults):
        raise ValueError(f"multiplicities must be positive, got {mults}")
    for a, b in zip(values, values[1:]):
        if not a - b > cfg.tol_cluster:
            raise DegenerateGapError(
                f"values not strictly descending with gap > {cfg.tol_cluster}: {a} vs {b}")
    if min(values) < -cfg.tol_trace:
        raise NotDensityError(f"negative eigenvalue {min(values)}")
    values = tuple(max(v, 0.0) for v in values)
    if values.count(0.0) > 1:
        zero = values.index(0.0)
        values, mults = values[:zero + 1], mults[:zero] + (sum(mults[zero:]),)
    trace = sum(n * p for p, n in zip(values, mults))
    if abs(trace - 1.0) > cfg.tol_trace:
        raise NotDensityError(f"trace {trace} differs from 1 beyond {cfg.tol_trace}")
    return Spectrum(values=values, mults=mults)


def _spectrum(values: np.ndarray) -> Spectrum:
    """The :class:`Spectrum` of the eigenvalues (d,) of one point, a cluster per run."""
    runs = [(value, len(list(run))) for value, run in groupby(values.tolist())]
    return Spectrum(values=tuple(v for v, _ in runs), mults=tuple(m for _, m in runs))


# the cached properties of an OrbitPoint that have the shape of rho; rows and
# slices of a stack take them sliced
_DERIVED = ("gaps", "same_cluster", "inv_gaps", "frame_dagger")


@_value_type
class OrbitPoint:
    """A density operator with a cluster-ordered diagonalizing frame, or a
    stack of N of them of one dimension d.

    ``rho`` and ``frame`` are (d, d), or (N, d, d) for a stack; ``eigenvalues``
    (d,) or (N, d) are the cluster values repeated by multiplicity, descending.
    The rest is derived from them: ``gaps``, ``same_cluster``, ``inv_gaps`` and
    ``frame_dagger`` (the adjoint of the frame) have the shape of ``rho``.
    Only a stack has rows: ``p[i]`` is the point that :func:`orbit_point`
    returns for row i, and ``p[a:b]`` is the stack of those rows, both views of
    this stack (an index array copies). Only a single point has a ``spectrum``.
    """

    rho: np.ndarray
    frame: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rho", _freeze(self.rho))
        object.__setattr__(self, "frame", _freeze(self.frame))
        object.__setattr__(self, "eigenvalues", _freeze(self.eigenvalues, float))

    @property
    def dim(self) -> int:
        return self.rho.shape[-1]

    def __bool__(self) -> bool:
        """A single point is true; a stack is true when it has rows."""
        return self.rho.ndim == 2 or self.rho.shape[0] > 0

    def __len__(self) -> int:
        if self.rho.ndim == 2:
            raise TypeError("a single OrbitPoint has no rows")
        return self.rho.shape[0]

    def __getitem__(self, i) -> "OrbitPoint":
        if self.rho.ndim == 2:
            raise TypeError("a single OrbitPoint has no rows")
        cached = {name: self.__dict__[name][i] for name in _DERIVED if name in self.__dict__}
        rho = self.rho[i]
        if rho.flags.writeable:  # an index array copies
            return _frozen_value(OrbitPoint, rho, self.frame[i], self.eigenvalues[i], **cached)
        # views of frozen arrays, read-only with all they view
        return _value(OrbitPoint, (rho, self.frame[i], self.eigenvalues[i]), cached)

    @cached_property
    def spectrum(self) -> Spectrum:
        """The distinct eigenvalues and their multiplicities (a single point)."""
        if self.rho.ndim != 2:
            raise TypeError("a stack has one spectrum per row: read p[i].spectrum")
        return _spectrum(self.eigenvalues)

    @cached_property
    def gaps(self) -> np.ndarray:
        """``gaps[a, b] = lambda_a - lambda_b``; exactly 0 inside a cluster."""
        values = self.eigenvalues
        return _frozen(values[..., :, None] - values[..., None, :])

    @cached_property
    def same_cluster(self) -> np.ndarray:
        """Mask of the diagonal cluster blocks (``gaps == 0``)."""
        return _frozen(self.gaps == 0)

    @cached_property
    def inv_gaps(self) -> np.ndarray:
        """``1 / gaps`` off the diagonal cluster blocks, 0 on them."""
        out = np.zeros(self.gaps.shape)
        np.divide(1.0, self.gaps, out=out, where=~self.same_cluster)
        return _frozen(out)

    @cached_property
    def frame_dagger(self) -> np.ndarray:
        """The conjugate transpose of ``frame`` over its last two axes."""
        return _frozen(_dagger(self.frame))

    def to_frame(self, matrix: np.ndarray) -> np.ndarray:
        """Express an ambient matrix in the frame of this point."""
        return self.frame_dagger @ matrix @ self.frame

    def from_frame(self, matrix: np.ndarray) -> np.ndarray:
        """Map a frame-coordinates matrix back to the ambient basis."""
        return self.frame @ matrix @ self.frame_dagger


def make_hermitian(matrix, cfg: Config = DEFAULT_CONFIG) -> HermitianOperator:
    """Validate a square complex matrix as Hermitian.

    No symmetrization is applied: a matrix farther than ``cfg.tol_hermitian``
    from its conjugate transpose is rejected, not repaired.
    """
    arr = np.asarray(matrix, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimMismatchError(f"expected a square matrix, got shape {arr.shape}")
    if not arr.size:
        raise ValueError(f"matrix must be at least 1 x 1, got shape {arr.shape}")
    _require_hermitian(arr, cfg)
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


def _require_frame(rho: np.ndarray, frame: np.ndarray, values: np.ndarray, cfg: Config):
    """The point or stack on arrays no caller holds, frozen in place, once ``frame``
    is checked to be unitary and to reduce ``rho`` to diag(values)."""
    frame_dagger = _dagger(frame)
    _require_unitary(frame, frame_dagger, cfg, "frame unitarity defect")
    # cluster representatives are means, so merged eigenvalues may sit up to
    # about dim * tol_cluster away from them
    bound = 10 * cfg.tol_hermitian + rho.shape[-1] * cfg.tol_cluster
    _require_diagonal(frame_dagger @ rho @ frame, values, bound, NotHermitianError,
                      "frame does not reduce rho to block-diagonal form: residual")
    return _frozen_value(OrbitPoint, rho, frame, values, frame_dagger=frame_dagger)


def _point_stack(rho: np.ndarray, frame: np.ndarray, values: np.ndarray,
                 cfg: Config) -> OrbitPoint:
    """The stack of the Hermitian parts of ``rho``, checked to be reduced to
    diag(values) by ``frame``, which must be finite and unitary; frozen in place."""
    rho = 0.5 * (rho + _dagger(rho))
    # a frame built from outside input may be non-finite, which the products
    # in the checks would only warn about
    _require_finite(frame, NotUnitaryError)
    return _require_frame(rho, frame, values, cfg)


def _conjugated(p: OrbitPoint, u: np.ndarray, cfg: Config,
                rename=lambda m, error: error) -> OrbitPoint:
    """The points ``U rho U^dag`` with frames ``U U_p`` for a point or an N-stack ``p``
    and the (R, [N,] d, d) stack ``u``: rows (R, [N]), checked in one stacked pass in
    (row, point) order, whose first failing row m raises :func:`_by_point` of ``rename``."""
    rows, d = u.shape[:-2], p.dim
    rho = (u @ p.rho @ _dagger(u)).reshape(-1, d, d)
    frame = (u @ p.frame).reshape(-1, d, d)
    values = np.broadcast_to(p.eigenvalues, u.shape[:-1]).reshape(-1, d)
    q = _stacked(lambda r: _point_stack(r, frame[:len(r)], values[:len(r)], cfg), rho,
                 _by_point(p, rename))
    # the rows (R,) of a point are the checked stack itself
    return q if p.rho.ndim == 2 else _frozen_value(
        OrbitPoint, *(a.reshape(rows + a.shape[1:]) for a in (q.rho, q.frame, q.eigenvalues)),
        frame_dagger=q.frame_dagger.reshape(rows + (d, d)))


def _diagonalize(rho: np.ndarray, cfg: Config):
    """The point on the cluster-grouped eigenframes of a Hermitian (d, d) matrix or (N, d, d) stack.

    Eigenvalues are sorted descending and
    merged by single linkage within ``cfg.tol_cluster`` (a gap between
    clusters under twice that is ambiguous, a :class:`DegenerateGapError`),
    each cluster is represented by its mean, and the density conditions of
    :func:`make_spectrum` apply. The values are clamped at 0.0, so clusters
    that clamp to 0.0 read as one. A single point is labelled in Python
    floats by :func:`_point_values`, a stack in one vectorized pass by
    :func:`_stack_values`; a point and a row give bitwise the same values
    and raise the same error.
    """
    w, v = np.linalg.eigh(rho)  # eigenvalues ascending
    v = np.ascontiguousarray(v[..., ::-1])
    if w.ndim == 1:
        values = _point_values(w.tolist()[::-1], cfg)
    else:
        values = _stack_values(w[..., ::-1], cfg)
    return _require_frame(rho, v, values, cfg)


def _gap_message(gap: float, cfg: Config) -> str:
    return (f"cluster gap {gap:.3e} falls in the ambiguous band "
            f"({cfg.tol_cluster:.1e}, {2 * cfg.tol_cluster:.1e})")


def _point_values(w: list, cfg: Config) -> np.ndarray:
    """The clamped cluster means, repeated by multiplicity, of one point's
    descending eigenvalues ``w`` (floats): bit for bit what
    :func:`_stack_values` gives for the row ``w``, or the error it raises.

    One pass finds the splits, the first ambiguous gap, each cluster mean as
    ``np.mean`` sums it (left to right from 0.0 under 8 entries, pairwise
    from 8) and the trace, summed left to right over clusters.
    """
    tol = cfg.tol_cluster
    values, trace, gap, start = [], 0.0, None, 0
    for end in range(1, len(w) + 1):
        if end < len(w):
            step = w[end - 1] - w[end]
            if not step > tol:
                continue
            if gap is None and step < 2 * tol:
                gap = step
        m = end - start
        if m < 8:
            total = 0.0
            for x in w[start:end]:
                total += x
        else:
            total = float(np.add.reduce(np.array(w[start:end])))
        mean = total / m
        value = 0.0 if mean < 0.0 else mean
        trace += m * value
        values += [value] * m
        start = end
    if gap is not None:
        raise DegenerateGapError(_gap_message(gap, cfg))
    if not mean >= -cfg.tol_trace:  # the lowest cluster's
        raise NotDensityError(f"negative eigenvalue {mean}")
    if not abs(trace - 1.0) <= cfg.tol_trace:
        raise NotDensityError(f"trace {trace} differs from 1 beyond {cfg.tol_trace}")
    return np.array(values)


def _stack_values(w: np.ndarray, cfg: Config) -> np.ndarray:
    """The values of :func:`_point_values` for each row of the descending
    (N, d) eigenvalues ``w`` in one vectorized pass; a failing row raises
    :class:`_BatchFailure`."""
    step = w[..., :-1] - w[..., 1:]
    split = step > cfg.tol_cluster
    ambiguous = split & (step < 2 * cfg.tol_cluster)
    split_start = np.ones(w.shape, bool)
    split_start[..., 1:] = split
    bounds = np.concatenate((split_start.ravel(), [True])).nonzero()[0]
    first, sizes = bounds[:-1], bounds[1:] - bounds[:-1]
    means = _cluster_means(w.reshape(-1), first, sizes).reshape(w.shape)
    values = np.where(means < 0.0, 0.0, means)
    terms = np.zeros(values.size)
    terms[first] = sizes * values.reshape(-1)[first]
    # summed left to right over clusters, as make_spectrum sums them
    trace = terms.reshape(w.shape).cumsum(axis=-1)[..., -1]
    lowest = means[..., -1]
    _require(ambiguous.any(axis=-1), DegenerateGapError,
             lambda i: _gap_message(step[i][ambiguous[i]][0], cfg))
    _require(~(lowest >= -cfg.tol_trace), NotDensityError,
             lambda i: f"negative eigenvalue {float(lowest[i])}")
    _require(~(np.abs(trace - 1.0) <= cfg.tol_trace), NotDensityError,
             lambda i: f"trace {float(trace[i])} differs from 1 beyond {cfg.tol_trace}")
    return values


def orbit_point(rho: HermitianOperator, cfg: Config = DEFAULT_CONFIG) -> OrbitPoint:
    """Diagonalize a density operator and anchor it on its unitary orbit.

    Eigenvalues are sorted descending and clustered with tolerance
    ``cfg.tol_cluster``; the frame columns are grouped accordingly. Raises
    :class:`NotDensityError` for negative eigenvalues (beyond ``tol_trace``)
    or non-unit trace, :class:`DegenerateGapError` for ambiguous clustering,
    and :class:`NotHermitianError` for non-finite entries.
    """
    # named as make_hermitian names them, before eigh, which reads only the lower
    # triangle: an inf above it would meet the frame check as inf * 0 and warn
    if not np.isfinite(rho.matrix).all():
        raise NotHermitianError("non-finite entries")
    return _diagonalize(rho.matrix, cfg)


def orbit_batch(rhos, cfg: Config = DEFAULT_CONFIG) -> OrbitPoint:
    """:func:`make_hermitian` and :func:`orbit_point` on an (N, d, d) stack at once.

    One ``eigh`` covers the stack and every check runs on all rows together;
    the error raised is the one the first failing row raises alone, its
    message prefixed ``row i:``.
    """
    arr = np.asarray(rhos, dtype=np.complex128)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise DimMismatchError(f"expected an (N, d, d) stack, got shape {arr.shape}")
    if not arr.shape[-1]:
        raise ValueError(f"matrices must be at least 1 x 1, got shape {arr.shape}")
    return _stacked(lambda rows: _orbit_stack(rows, cfg), arr, _prefixed)


def _orbit_stack(arr: np.ndarray, cfg: Config) -> OrbitPoint:
    """The stacked pass of :func:`orbit_batch`: a failing row raises :class:`_BatchFailure`."""
    _require_hermitian(arr, cfg)
    return _diagonalize(_freeze(arr), cfg)


def conjugate(a: HermitianOperator, unitary: np.ndarray,
              cfg: Config = DEFAULT_CONFIG) -> HermitianOperator:
    """Adjoint action ``U A U^dag`` of a unitary on a Hermitian operator."""
    u = np.asarray(unitary, dtype=np.complex128)
    if u.shape != a.matrix.shape:
        raise DimMismatchError(f"operator dim {a.dim} vs unitary shape {u.shape}")
    return HermitianOperator(_conjugate(a.matrix, u, cfg))


def _conjugate(a: np.ndarray, u: np.ndarray, cfg: Config) -> np.ndarray:
    """``U A U^dag`` over the trailing two axes, ``u`` checked finite and unitary."""
    _require_finite(u, NotUnitaryError)
    u_dagger = _dagger(u)
    _require_unitary(u, u_dagger, cfg)
    return u @ a @ u_dagger


def conjugate_point(p: OrbitPoint, unitary: np.ndarray,
                    cfg: Config = DEFAULT_CONFIG) -> OrbitPoint:
    """Move a point along the orbit: ``rho -> U rho U^dag``, frame ``U U_p``.

    The moved point reads its spectrum from the eigenvalues of ``p``, which
    gives back ``p.spectrum`` (conjugation preserves it exactly).
    """
    _check_dims(p)
    u = np.asarray(unitary, dtype=np.complex128)
    if u.shape != p.rho.shape:
        raise DimMismatchError(f"point dim {p.dim} vs unitary shape {u.shape}")
    _require_finite(u, NotUnitaryError)
    _require_unitary(u, _dagger(u), cfg)
    return _conjugated(p, u[None], cfg)[0]


def with_gauge(p: OrbitPoint, block_unitary: np.ndarray,
               cfg: Config = DEFAULT_CONFIG) -> OrbitPoint:
    """Right-multiply the frame by an intra-cluster (block-diagonal) unitary.

    The point itself is unchanged; this reparametrizes the residual gauge
    freedom inside degenerate clusters. The matrix must be block diagonal
    with respect to the multiplicity pattern of ``p``.
    """
    _check_dims(p)
    v = np.asarray(block_unitary, dtype=np.complex128)
    if v.shape != (p.dim, p.dim):
        raise DimMismatchError(f"gauge shape {v.shape} vs dim {p.dim}")
    if np.max(np.abs(v), where=~p.same_cluster, initial=0.0) > cfg.tol_unitary:
        raise NotUnitaryError("gauge matrix is not block diagonal for this point")
    frame = p.frame @ v
    _require_finite(frame, NotUnitaryError)
    return _require_frame(p.rho, frame, p.eigenvalues, cfg)


def _normals(dim: int, rng: np.random.Generator, *lead) -> np.ndarray:
    """The complex Gaussian (*lead, dim, dim) matrices of Haar draws in one ``standard_normal``
    call, bit for bit one call per matrix (real part, then imaginary) in row-major order."""
    return _complex(rng.standard_normal((*lead, 2, dim, dim)))


def _complex(z: np.ndarray) -> np.ndarray:
    """The complex matrices (..., d, d) of :func:`_normals` from their real and
    imaginary parts ``z`` (..., 2, d, d), as drawn."""
    return z[..., 0, :, :] + 1j * z[..., 1, :, :]


def _haar_frames(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from an (N, d, d) stack of normals: one QR, phases fixed."""
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    phases = np.diagonal(r, axis1=-2, axis2=-1).copy()
    phases /= np.abs(phases)
    return q * phases[..., None, :]


def _haar_points(spectra, frames: np.ndarray, cfg: Config) -> OrbitPoint:
    """The stack of points ``U diag(lambda) U^dag`` with frame U, one per
    spectrum and row U of the (N, d, d) stack ``frames``, checked in one
    stacked pass. Row i is labelled by spectra[i], read back from its
    eigenvalues. A failing row raises :class:`_BatchFailure`."""
    values = np.repeat(np.array([v for s in spectra for v in s.values], dtype=float),
                       [m for s in spectra for m in s.mults]).reshape(frames.shape[:-1])
    # U * lambda is U @ np.diag(lambda), bit for bit
    return _point_stack((frames * values[..., None, :]) @ _dagger(frames), frames, values, cfg)


def _generator(seed) -> np.random.Generator:
    """``seed`` if it is a Generator, else one seeded by the integer >= 0 ``seed`` must be."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(_integer("seed", seed, 0))


def haar_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary from a Generator or an integer seed >= 0 (QR, phases fixed)."""
    return _haar_frames(_normals(_integer("dim", dim, 1), _generator(seed))[None])[0]


def random_density(spectrum: Spectrum, seed,
                   cfg: Config = DEFAULT_CONFIG) -> OrbitPoint:
    """Haar-random point on the orbit labelled by ``spectrum``.

    Draws U Haar-uniformly from the seeded stream and returns the point
    ``U diag(p_1 I_{n_1}, ...) U^dag`` with frame U.
    """
    spectrum = make_spectrum(spectrum.values, spectrum.mults, cfg)
    frames = haar_unitary(spectrum.total_dim, seed)[None]
    return _stacked(lambda rows: _haar_points([spectrum], rows, cfg), frames)[0]
