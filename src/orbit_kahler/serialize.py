"""Shared JSON formats.

Complex matrices: ``{"n": <int>, "re": [[...]], "im": [[...]]}``.
Spectra: ``{"values": [...], "mults": [...]}``.
Field names are fixed; emission is deterministic (insertion-ordered keys,
default float repr), so identical inputs yield byte-identical output.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .config import Config, DEFAULT_CONFIG, _integer
from .dynamics import Trajectory
from .integrability import CheckReport
from .kahler import KahlerEvaluation
from .operators import HermitianOperator, Spectrum, make_hermitian, make_spectrum
from .uncertainty import UncertaintyReport

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "spectrum_to_json",
    "spectrum_from_json",
    "hermitian_from_json",
    "check_report_to_json",
    "uncertainty_report_to_json",
    "kahler_evaluation_to_json",
    "trajectory_json_lines",
    "dumps",
]


# json.dumps builds an encoder per call for its non-default separators
_ENCODER = json.JSONEncoder(separators=(", ", ": "))


def dumps(obj) -> str:
    """Deterministic single-line JSON."""
    return _ENCODER.encode(obj)


def matrix_to_json(matrix: np.ndarray) -> dict:
    arr = np.asarray(matrix, dtype=np.complex128)
    return {
        "n": int(arr.shape[0]),
        "re": arr.real.tolist(),
        "im": arr.imag.tolist(),
    }


def matrix_from_json(data: dict) -> np.ndarray:
    try:
        n = _integer("n", data["n"], 1)
        re = np.asarray(data["re"], dtype=float)
        im = np.asarray(data["im"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if re.shape != (n, n) or im.shape != (n, n):
        raise ValueError(
            f"matrix JSON shape mismatch: n={n}, re {re.shape}, im {im.shape}")
    return re + 1j * im


def hermitian_from_json(data: dict, cfg: Config = DEFAULT_CONFIG) -> HermitianOperator:
    return make_hermitian(matrix_from_json(data), cfg)


def spectrum_to_json(spectrum: Spectrum) -> dict:
    return {"values": [float(v) for v in spectrum.values],
            "mults": [int(m) for m in spectrum.mults]}


def spectrum_from_json(data: dict, cfg: Config = DEFAULT_CONFIG) -> Spectrum:
    try:
        return make_spectrum(data["values"], data["mults"], cfg)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed spectrum JSON: {exc}") from exc


def check_report_to_json(report: CheckReport) -> dict:
    return {
        "check": report.check_name,
        "max_residual": report.max_residual,
        "samples": report.samples,
        "tolerance": report.tolerance,
        "passed": report.passed,
        "worst_case": report.worst_case,
    }


def uncertainty_report_to_json(report: UncertaintyReport) -> dict:
    return dataclasses.asdict(report)


def kahler_evaluation_to_json(evaluation: KahlerEvaluation) -> dict:
    return {
        "omega": evaluation.omega,
        "metric": evaluation.metric,
        "h": [evaluation.h.real, evaluation.h.imag],
    }


def trajectory_json_lines(traj: Trajectory) -> list:
    """One ``{"t": ..., "rho": {...}}`` JSON line per sample."""
    return [dumps({"t": t, "rho": matrix_to_json(point.rho)})
            for t, point in zip(traj.times, traj.points)]
