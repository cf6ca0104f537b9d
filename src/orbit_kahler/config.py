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
        Step for central finite differences along unitary flows.
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
            value = getattr(self, field.name)
            # bool is an int subclass, so True would pass as 1
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{field.name} must be a number, got {value!r}")
            if not 0 < value < math.inf:
                raise ValueError(
                    f"{field.name} must be finite and strictly positive, got {value}")

    def replace(self, **overrides) -> "Config":
        return dataclasses.replace(self, **overrides)

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
