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
from .kahler import _real, hermitian_product
from .operators import HermitianOperator, OrbitPoint, _check_dims
from .tangent import tangent_map

__all__ = [
    "UncertaintyReport",
    "expectation",
    "uncertainty",
    "variance_decomposition",
    "geometric_bound",
    "rs_bound",
    "full_report",
]


def expectation(a: HermitianOperator, p: OrbitPoint,
                cfg: Config = DEFAULT_CONFIG) -> float:
    """Expectation value Tr(rho A)."""
    _check_dims(p, a)
    return _real(complex(np.trace(p.rho @ a.matrix)), cfg, "expectation")


def uncertainty(a: HermitianOperator, p: OrbitPoint,
                cfg: Config = DEFAULT_CONFIG) -> float:
    """Standard deviation sqrt(Tr(rho A^2) - Tr(rho A)^2).

    A tiny negative radicand (within ``tol_check``) is clamped to zero;
    anything worse raises :class:`NegativeVarianceError`.
    """
    mean = expectation(a, p, cfg)
    second = _real(complex(np.trace(p.rho @ a.matrix @ a.matrix)), cfg, "second moment")
    radicand = second - mean * mean
    if radicand < -cfg.tol_check:
        raise NegativeVarianceError(f"variance radicand {radicand:.3e}")
    return float(np.sqrt(max(radicand, 0.0)))


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
    product = hermitian_product(tangent_map(a, p, cfg), tangent_map(b, p, cfg), cfg)
    return 0.5 * cfg.hbar * abs(product)


def rs_bound(a: HermitianOperator, b: HermitianOperator, p: OrbitPoint,
             cfg: Config = DEFAULT_CONFIG) -> float:
    """Robertson-Schrodinger baseline: combines the symmetrized covariance
    with the commutator term,

        sqrt( (<{A,B}>/2 - <A><B>)^2 + (<[A,B]>/(2i))^2 ).
    """
    mean_a = expectation(a, p, cfg)
    mean_b = expectation(b, p, cfg)
    ab = a.matrix @ b.matrix
    ba = b.matrix @ a.matrix
    covariance = _real(complex(np.trace(p.rho @ (ab + ba))) / 2.0,
                       cfg, "symmetrized covariance") - mean_a * mean_b
    commutator_mean = complex(np.trace(p.rho @ (ab - ba)))
    if abs(commutator_mean.real) > cfg.tol_check:
        raise NonRealResultError(
            f"commutator expectation has real part {commutator_mean.real:.3e}")
    commutator_term = commutator_mean.imag / 2.0
    return float(np.hypot(covariance, commutator_term))


@dataclass(frozen=True)
class UncertaintyReport:
    """Both uncertainty bounds against the product of standard deviations."""

    deltaA: float
    deltaB: float
    product: float
    geometric_bound: float
    rs_bound: float
    slack_geometric: float
    slack_rs: float


def full_report(a: HermitianOperator, b: HermitianOperator, p: OrbitPoint,
                cfg: Config = DEFAULT_CONFIG) -> UncertaintyReport:
    """Evaluate both bounds and their slacks for one pair of observables.

    Raises :class:`TheoremViolationError` if either bound exceeds the product
    beyond ``tol_check``; that can only happen through a library defect.
    """
    delta_a = uncertainty(a, p, cfg)
    delta_b = uncertainty(b, p, cfg)
    product = delta_a * delta_b
    geometric = geometric_bound(a, b, p, cfg)
    robertson = rs_bound(a, b, p, cfg)
    slack_geometric = product - geometric
    slack_rs = product - robertson
    if slack_geometric < -cfg.tol_check or slack_rs < -cfg.tol_check:
        raise TheoremViolationError(
            f"bound exceeds uncertainty product: geometric slack {slack_geometric:.3e}, "
            f"RS slack {slack_rs:.3e}")
    return UncertaintyReport(
        deltaA=delta_a,
        deltaB=delta_b,
        product=product,
        geometric_bound=geometric,
        rs_bound=robertson,
        slack_geometric=slack_geometric,
        slack_rs=slack_rs,
    )
