"""Numerical configuration: units and tolerances.

All tolerances are absolute, calibrated for unit-scale matrices (entries O(1),
dimensions at desk scale). hbar defaults to 1 so results are dimensionless,
but it is threaded through every formula that carries it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass

__all__ = ["Config", "DEFAULT_CONFIG"]


def _is_number(value) -> bool:
    # bool is an int subclass, so True would pass as 1; int and float skip the slower ABC
    return not isinstance(value, bool) and isinstance(value, (int, float, numbers.Real))


def _is_finite(value) -> bool:
    """A number within float range: an int beyond it is no finite float."""
    try:
        return _is_number(value) and math.isfinite(value)
    except OverflowError:
        return False


def _is_integral(value) -> bool:
    """An int, a numpy integer or an integral float, within float range; never a bool."""
    return _is_finite(value) and float(value).is_integer()


def _integer(name: str, value, minimum: int | None = None) -> int:
    """``value`` as an int that is at least ``minimum``, else a ValueError naming ``name``."""
    if not _is_integral(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {int(value)}")
    return int(value)


def _real(name: str, value, positive: bool = False) -> float:
    """``value`` as a finite float, > 0 if ``positive``, else a ValueError naming ``name``."""
    if not _is_number(value):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not _is_finite(value) or positive and not value > 0:
        domain = "finite and strictly positive" if positive else "finite"
        raise ValueError(f"{name} must be {domain}, got {value}")
    return float(value)


@dataclass(frozen=True)
class Config:
    """Units and tolerances shared by all operations.

    Attributes
    ----------
    hbar : float
        Value of the reduced Planck constant. Default 1.
    tol_hermitian : float
        Max-norm tolerance for hermiticity checks.
    tol_cluster : float
        Eigenvalue gaps at or below this are merged into one cluster.
    tol_trace : float
        Tolerance for unit trace and eigenvalue positivity of densities.
    tol_unitary : float
        Max-norm tolerance for ``U U^dag = I``.
    tol_check : float
        Tolerance for cross-checks (real parts, equivalence of formulas).
    fd_step : float
        Step for central finite differences along unitary flows; at most 1e-2.
    """

    hbar: float = 1.0
    tol_hermitian: float = 1e-10
    tol_cluster: float = 1e-9
    tol_trace: float = 1e-8
    tol_unitary: float = 1e-10
    tol_check: float = 1e-9
    fd_step: float = 1e-4

    def __post_init__(self):
        for field in dataclasses.fields(self):
            _real(field.name, getattr(self, field.name), positive=True)
        # the finite-difference gate 1e3 * fd_step ** 2 stays at most 0.1
        if self.fd_step > 1e-2:
            raise ValueError(f"fd_step must be <= 0.01, got {self.fd_step}")

    @classmethod
    def from_json(cls, path: str) -> "Config":
        """Load a config from a JSON file mirroring the field names."""
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"{path} must hold a JSON object, got {type(data).__name__}")
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)


DEFAULT_CONFIG = Config()
