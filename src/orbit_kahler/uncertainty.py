"""Uncertainty functions, the geometric bound, and the variance split.

For observables A, B at a point rho the geometric lower bound is

    dA * dB >= (hbar/2) |h(X_A, X_B)|,

with h the Hermitian product of the orbit structure. Its proof rests on the
frame decomposition of the variance,

    dA^2 = (block-diagonal variance) + sum_{i<j} (p_i + p_j) |A_ij|^2,

whose off-diagonal part dominates the bound term
sum_{i<j} (p_i - p_j) |A_ij|^2 = (hbar/2) Re h(X_A, X_A), with equality when
rho is pure. The standard Robertson-Schrodinger bound is provided as a
comparison baseline. :func:`full_report` reads h(X_A, X_B) through the kernel
of :func:`~orbit_kahler.kahler.hermitian_product`, the lift pairing
Tr((J B) Y) + i Tr(B Y), B the framed lift of X_A, Y the framed X_B, not the
closed block form, so its guard still sees a rho that disagrees with its eigenvalues.

The second moments Tr(rho A^2) and the Robertson-Schrodinger traces Tr(rho AB),
Tr(rho BA) are read from rho A and rho B as elementwise sums, without forming
a product. The second moment sums its own entries rather than calling
``kahler._tr``, so the variance stays independent of the trace that every
pairing shares, and the checks that compare the two still see a defect in that
trace as a residual.
"""

from __future__ import annotations

import numpy as np

from .config import Config, DEFAULT_CONFIG
from .errors import NegativeVarianceError, NonRealResultError, TheoremViolationError
from .kahler import _h_parts, _real, _tr
from .operators import (
    HermitianOperator,
    OrbitPoint,
    _check_dims,
    _check_operand_dims,
    _frozen,
    _prefixed,
    _require,
    _stacked,
    _value_type,
)
from .tangent import _framed_tangent

__all__ = [
    "UncertaintyReport",
    "uncertainty",
    "variance_decomposition",
    "geometric_bound",
    "rs_bound",
    "full_report",
    "full_report_batch",
]

# The kernels below take a point or a stack (gap-mask and stack conventions in
# :mod:`orbit_kahler.operators`) with matrices of observables that broadcast
# against it, and raise each check where it fails.


def _mean(ra: np.ndarray, cfg: Config) -> np.ndarray:
    """Tr(rho A) from ``ra = rho @ A``."""
    return _real(ra.trace(axis1=-2, axis2=-1), cfg, "expectation")


def _moments(a: np.ndarray, ra: np.ndarray, cfg: Config) -> tuple:
    """Mean and standard deviation from ``ra = rho @ A``; a tiny negative
    radicand (within ``tol_check``) is clamped to zero, a worse one fails."""
    mean = _mean(ra, cfg)
    # Tr((rho A) A) as an elementwise sum, off kahler._tr (see the module docstring)
    second = _real((ra * a.swapaxes(-1, -2)).sum(axis=(-2, -1)), cfg, "second moment")
    radicand = second - mean * mean
    _require(radicand < -cfg.tol_check, NegativeVarianceError,
             lambda i: f"variance radicand {radicand[i]:.3e}")
    return mean, np.sqrt(np.where(radicand < 0.0, 0.0, radicand))


def _geometric(a: np.ndarray, b: np.ndarray, ra: np.ndarray, rb: np.ndarray, p,
               cfg: Config, parts=None) -> np.ndarray:
    """(hbar/2) |h(X_A, X_B)| from ``parts = (g, omega)`` when the caller has it, else by
    the lift pairing of the module docstring in 6 matrix products, not the closed form."""
    if parts is None:
        parts = _h_parts(_framed_tangent(a, p, cfg.hbar, ra),
                         _framed_tangent(b, p, cfg.hbar, rb), p, cfg)
    # np.hypot rounds |h| as abs(complex) does; np.abs of a complex array
    # may differ from both in the last bit
    return 0.5 * cfg.hbar * np.hypot(*parts)


def _rs(a: np.ndarray, b: np.ndarray, ra: np.ndarray, rb: np.ndarray, mean_a: np.ndarray,
        mean_b: np.ndarray, cfg: Config) -> np.ndarray:
    """The Robertson-Schrodinger bound from ``ra = rho @ A``, ``rb = rho @ B`` and the
    means Tr(rho A), Tr(rho B); Tr(rho AB) and Tr(rho BA) are read without a product."""
    rab, rba = _tr(ra, b), _tr(rb, a)
    symmetrized = _real((rab + rba) / 2.0, cfg, "symmetrized covariance")
    commutator_mean = rab - rba
    _require(np.abs(commutator_mean.real) > cfg.tol_check, NonRealResultError,
             lambda i: f"commutator expectation has real part {commutator_mean.real[i]:.3e}")
    return np.hypot(symmetrized - mean_a * mean_b, commutator_mean.imag / 2.0)


def uncertainty(a: HermitianOperator, p: OrbitPoint,
                cfg: Config = DEFAULT_CONFIG) -> float:
    """Standard deviation sqrt(Tr(rho A^2) - Tr(rho A)^2).

    A tiny negative radicand (within ``tol_check``) is clamped to zero;
    anything worse raises :class:`NegativeVarianceError`.
    """
    _check_dims(p, a)
    return float(_moments(a.matrix, p.rho @ a.matrix, cfg)[1])


def variance_decomposition(a: HermitianOperator, p: OrbitPoint,
                           cfg: Config = DEFAULT_CONFIG):
    """Split the variance of ``a`` at ``p`` by the block structure.

    Returns ``(delta_perp_sq, sum_plus, sum_minus)`` where

    * ``delta_perp_sq`` is the variance carried by the diagonal blocks,
      ``sum_i p_i Tr(A_ii^2) - (sum_i p_i Tr(A_ii))^2``,
    * ``sum_plus = sum_{i<j} (p_i + p_j) Tr(A_ij^dag A_ij)``,
    * ``sum_minus = sum_{i<j} (p_i - p_j) Tr(A_ij^dag A_ij)``,

    so ``delta_perp_sq + sum_plus`` is the full variance and ``sum_minus``
    equals ``(hbar/2) Re h(X_A, X_A)``. In frame entries the block sums run
    over ``same_cluster`` and over the upper triangle gaps > 0.
    """
    _check_dims(p, a)
    return tuple(float(v) for v in _variance_split(a.matrix, p))


def _variance_split(a: np.ndarray, p) -> tuple:
    """The terms of :func:`variance_decomposition` at a point or stack ``p``."""
    framed = p.to_frame(a)
    values = p.eigenvalues
    weight = np.abs(framed) ** 2
    upper = p.gaps > 0
    # a (1, d) @ (d, 1) product, which rounds as np.dot of the two vectors
    first = (values[..., None, :] @ framed.diagonal(axis1=-2, axis2=-1).real[..., None])[..., 0, 0]
    second = (values[..., :, None] * weight).sum(axis=(-2, -1), where=p.same_cluster)
    sum_plus = ((values[..., :, None] + values[..., None, :]) * weight).sum(axis=(-2, -1),
                                                                          where=upper)
    sum_minus = (p.gaps * weight).sum(axis=(-2, -1), where=upper)
    return second - first * first, sum_plus, sum_minus


def geometric_bound(a: HermitianOperator, b: HermitianOperator, p: OrbitPoint,
                    cfg: Config = DEFAULT_CONFIG) -> float:
    """(hbar/2) |h(X_A, X_B)|, the geometric lower bound on dA * dB."""
    _check_dims(p, a, b)
    return float(_geometric(a.matrix, b.matrix, p.rho @ a.matrix, p.rho @ b.matrix, p, cfg))


def rs_bound(a: HermitianOperator, b: HermitianOperator, p: OrbitPoint,
             cfg: Config = DEFAULT_CONFIG) -> float:
    """Robertson-Schrodinger baseline: combines the symmetrized covariance
    with the commutator term,

        sqrt( (<{A,B}>/2 - <A><B>)^2 + (<[A,B]>/(2i))^2 ).
    """
    _check_dims(p, a, b)
    ra, rb = p.rho @ a.matrix, p.rho @ b.matrix
    return float(_rs(a.matrix, b.matrix, ra, rb, _mean(ra, cfg), _mean(rb, cfg), cfg))


@_value_type
class UncertaintyReport:
    """Both uncertainty bounds against the product of standard deviations.

    Floats from :func:`full_report` at a point; (N,) arrays, one entry per
    row, from :func:`full_report_batch` at a stack of N points.
    """

    deltaA: float
    deltaB: float
    product: float
    geometric_bound: float
    rs_bound: float
    slack_geometric: float
    slack_rs: float


def _report(a: np.ndarray, b: np.ndarray, p, cfg: Config, parts=None) -> tuple:
    """The :class:`UncertaintyReport` fields at a point (0-d) or stack (N,);
    rho A, rho B and their traces are formed once and shared by the four
    kernels, and ``parts`` is passed on to :func:`_geometric`."""
    ra = p.rho @ a
    rb = p.rho @ b
    mean_a, delta_a = _moments(a, ra, cfg)
    mean_b, delta_b = _moments(b, rb, cfg)
    geometric = _geometric(a, b, ra, rb, p, cfg, parts)
    robertson = _rs(a, b, ra, rb, mean_a, mean_b, cfg)
    product = delta_a * delta_b
    slack_geometric = product - geometric
    slack_rs = product - robertson
    _require((slack_geometric < -cfg.tol_check) | (slack_rs < -cfg.tol_check),
             TheoremViolationError,
             lambda i: "bound exceeds uncertainty product: geometric slack "
                       f"{slack_geometric[i]:.3e}, RS slack {slack_rs[i]:.3e}")
    return delta_a, delta_b, product, geometric, robertson, slack_geometric, slack_rs


def full_report(a: HermitianOperator, b: HermitianOperator, p: OrbitPoint,
                cfg: Config = DEFAULT_CONFIG) -> UncertaintyReport:
    """Evaluate both bounds and their slacks for one pair of observables.

    Raises :class:`TheoremViolationError` if either bound exceeds the product
    beyond ``tol_check``; that can only happen through a library defect.
    """
    _check_dims(p, a, b)
    return UncertaintyReport(*(float(v) for v in _report(a.matrix, b.matrix, p, cfg)))


def full_report_batch(a: HermitianOperator, b: HermitianOperator, batch: OrbitPoint,
                      cfg: Config = DEFAULT_CONFIG) -> UncertaintyReport:
    """:func:`full_report` at every row of ``batch``, an :class:`OrbitPoint`
    stack of N points, at once.

    Each field of the returned report is a read-only (N,) array whose entry i
    equals the field of ``full_report(a, b, batch[i])``. The error raised is
    the one the first failing row raises alone, prefixed ``row i:``.
    """
    if batch.rho.ndim != 3:
        raise TypeError(f"expected a stack of points, got rho of shape {batch.rho.shape}")
    _check_operand_dims(batch, a, b)
    fields = _stacked(lambda rows: _report(a.matrix, b.matrix, rows, cfg), batch, _prefixed)
    return UncertaintyReport(*(_frozen(v) for v in fields))
