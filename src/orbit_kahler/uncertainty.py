"""Uncertainty functions, the geometric bound, and the variance split.

For observables A, B at a point rho the geometric lower bound is

    dA * dB >= (hbar/2) |h(X_A, X_B)|,

with h the Hermitian product of the orbit structure. Its proof rests on the
frame decomposition of the variance,

    dA^2 = (block-diagonal variance) + sum_{i<j} (p_i + p_j) |A_ij|^2,

whose off-diagonal part dominates the bound term
sum_{i<j} (p_i - p_j) |A_ij|^2 = (hbar/2) Re h(X_A, X_A), with equality when
rho is pure. The standard Robertson-Schrodinger bound is provided as a
comparison baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Config, DEFAULT_CONFIG
from .errors import NegativeVarianceError, NonRealResultError, TheoremViolationError
from .kahler import _h_parts, _real_check
from .operators import (
    HermitianOperator,
    OrbitBatch,
    OrbitPoint,
    _check_dims,
    _checked,
    _freeze,
)
from .tangent import _tangent

__all__ = [
    "UncertaintyReport",
    "expectation",
    "uncertainty",
    "variance_decomposition",
    "geometric_bound",
    "rs_bound",
    "full_report",
    "full_report_batch",
]

# The kernels below take a point or a batch (gap-mask and batch conventions in
# :mod:`orbit_kahler.operators`) and append their checks, in the order one
# point runs them, to ``checks``; the public functions raise the first.


def _trace(m: np.ndarray) -> np.ndarray:
    return m.trace(axis1=-2, axis2=-1)


def _mean(a: HermitianOperator, p, cfg: Config, checks: list) -> np.ndarray:
    z = _trace(p.rho @ a.matrix)
    checks.append(_real_check(z, cfg, "expectation"))
    return z.real


def _std(a: HermitianOperator, p, cfg: Config, checks: list) -> np.ndarray:
    """Standard deviation; a tiny negative radicand (within ``tol_check``) is
    clamped to zero, a worse one fails."""
    mean = _mean(a, p, cfg, checks)
    second = _trace(p.rho @ a.matrix @ a.matrix)
    checks.append(_real_check(second, cfg, "second moment"))
    radicand = second.real - mean * mean
    checks.append((radicand < -cfg.tol_check, NegativeVarianceError,
                   lambda i: f"variance radicand {radicand[i]:.3e}"))
    return np.sqrt(np.where(radicand < 0.0, 0.0, radicand))


def _geometric(a: HermitianOperator, b: HermitianOperator, p, cfg: Config,
               checks: list) -> np.ndarray:
    g, omega = _h_parts(_tangent(a.matrix, p.rho, cfg.hbar),
                        _tangent(b.matrix, p.rho, cfg.hbar), p, cfg, checks)
    # np.hypot rounds |h| as abs(complex) does; np.abs of a complex array
    # may differ from both in the last bit
    return 0.5 * cfg.hbar * np.hypot(g, omega)


def _rs(a: HermitianOperator, b: HermitianOperator, p, cfg: Config,
        checks: list) -> np.ndarray:
    mean_a = _mean(a, p, cfg, checks)
    mean_b = _mean(b, p, cfg, checks)
    ab = a.matrix @ b.matrix
    ba = b.matrix @ a.matrix
    symmetrized = _trace(p.rho @ (ab + ba)) / 2.0
    checks.append(_real_check(symmetrized, cfg, "symmetrized covariance"))
    commutator_mean = _trace(p.rho @ (ab - ba))
    checks.append((np.abs(commutator_mean.real) > cfg.tol_check, NonRealResultError,
                   lambda i: "commutator expectation has real part "
                             f"{commutator_mean.real[i]:.3e}"))
    return np.hypot(symmetrized.real - mean_a * mean_b, commutator_mean.imag / 2.0)


def expectation(a: HermitianOperator, p: OrbitPoint,
                cfg: Config = DEFAULT_CONFIG) -> float:
    """Expectation value Tr(rho A)."""
    _check_dims(p, a)
    return float(_checked(_mean, a, p, cfg))


def uncertainty(a: HermitianOperator, p: OrbitPoint,
                cfg: Config = DEFAULT_CONFIG) -> float:
    """Standard deviation sqrt(Tr(rho A^2) - Tr(rho A)^2).

    A tiny negative radicand (within ``tol_check``) is clamped to zero;
    anything worse raises :class:`NegativeVarianceError`.
    """
    _check_dims(p, a)
    return float(_checked(_std, a, p, cfg))


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
    framed = p.to_frame(a.matrix)
    values = p.spectrum.full_values()
    weight = np.abs(framed) ** 2
    upper = p.gaps > 0
    first = float(np.dot(values, framed.diagonal().real))
    second = float(np.sum(values[:, None] * weight, where=p.same_cluster))
    sum_plus = float(np.sum((values[:, None] + values[None, :]) * weight, where=upper))
    sum_minus = float(np.sum(p.gaps * weight, where=upper))
    return second - first * first, sum_plus, sum_minus


def geometric_bound(a: HermitianOperator, b: HermitianOperator, p: OrbitPoint,
                    cfg: Config = DEFAULT_CONFIG) -> float:
    """(hbar/2) |h(X_A, X_B)|, the geometric lower bound on dA * dB."""
    _check_dims(p, a, b)
    return float(_checked(_geometric, a, b, p, cfg))


def rs_bound(a: HermitianOperator, b: HermitianOperator, p: OrbitPoint,
             cfg: Config = DEFAULT_CONFIG) -> float:
    """Robertson-Schrodinger baseline: combines the symmetrized covariance
    with the commutator term,

        sqrt( (<{A,B}>/2 - <A><B>)^2 + (<[A,B]>/(2i))^2 ).
    """
    _check_dims(p, a, b)
    return float(_checked(_rs, a, b, p, cfg))


@dataclass(frozen=True)
class UncertaintyReport:
    """Both uncertainty bounds against the product of standard deviations.

    Floats from :func:`full_report`; (N,) arrays from :func:`full_report_batch`.
    """

    deltaA: float
    deltaB: float
    product: float
    geometric_bound: float
    rs_bound: float
    slack_geometric: float
    slack_rs: float


def _report(a: HermitianOperator, b: HermitianOperator, p, cfg: Config,
            checks: list) -> tuple:
    """The :class:`UncertaintyReport` fields at a point (0-d) or batch (N,)."""
    delta_a = _std(a, p, cfg, checks)
    delta_b = _std(b, p, cfg, checks)
    geometric = _geometric(a, b, p, cfg, checks)
    robertson = _rs(a, b, p, cfg, checks)
    product = delta_a * delta_b
    slack_geometric = product - geometric
    slack_rs = product - robertson
    checks.append(((slack_geometric < -cfg.tol_check) | (slack_rs < -cfg.tol_check),
                   TheoremViolationError,
                   lambda i: "bound exceeds uncertainty product: geometric slack "
                             f"{slack_geometric[i]:.3e}, RS slack {slack_rs[i]:.3e}"))
    return delta_a, delta_b, product, geometric, robertson, slack_geometric, slack_rs


def full_report(a: HermitianOperator, b: HermitianOperator, p: OrbitPoint,
                cfg: Config = DEFAULT_CONFIG) -> UncertaintyReport:
    """Evaluate both bounds and their slacks for one pair of observables.

    Raises :class:`TheoremViolationError` if either bound exceeds the product
    beyond ``tol_check``; that can only happen through a library defect.
    """
    _check_dims(p, a, b)
    return UncertaintyReport(*(float(v) for v in _checked(_report, a, b, p, cfg)))


def full_report_batch(a: HermitianOperator, b: HermitianOperator, batch: OrbitBatch,
                      cfg: Config = DEFAULT_CONFIG) -> UncertaintyReport:
    """:func:`full_report` at every point of ``batch`` at once.

    Each field of the returned report is a read-only (N,) array whose entry i
    equals the field of ``full_report(a, b, batch[i])``. The error raised is
    the one the first failing row raises alone, prefixed ``row i:``.
    """
    _check_dims(batch, a, b)
    fields = _checked(_report, a, b, batch, cfg)
    return UncertaintyReport(*(_freeze(v, float) for v in fields))
