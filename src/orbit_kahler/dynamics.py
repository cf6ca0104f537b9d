"""Unitary flows on the orbit and Hamiltonian-dynamics checks.

The flow of the field generated by H is the conjugation
``rho(t) = exp(-i H t / hbar) rho exp(i H t / hbar)``, computed by
diagonalizing the Hermitian generator. This keeps trajectories exactly on the
orbit: the spectrum label never changes, and the frame is carried along by the
same propagator rather than re-diagonalized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Config, DEFAULT_CONFIG
from .kahler import symplectic
from .operators import HermitianOperator, OrbitPoint, _check_dims, _conjugated

__all__ = ["Trajectory", "unitary_propagator", "evolve", "ehrenfest_check", "trajectory"]


def _propagator(w: np.ndarray, v: np.ndarray, t: float, hbar: float) -> np.ndarray:
    return (v * np.exp(-1j * w * t / hbar)) @ v.conj().T


def unitary_propagator(h: HermitianOperator, t: float, hbar: float) -> np.ndarray:
    """``exp(-i H t / hbar)`` via eigendecomposition of the Hermitian generator."""
    return _propagator(*np.linalg.eigh(h.matrix), t, hbar)


def evolve(p: OrbitPoint, h: HermitianOperator, t: float,
           cfg: Config = DEFAULT_CONFIG) -> OrbitPoint:
    """Flow a point for time ``t`` under the field generated by ``h``."""
    _check_dims(p, h)
    return _conjugated(p, unitary_propagator(h, t, cfg.hbar), cfg)


def _flows(p: OrbitPoint, h: HermitianOperator, times, cfg: Config):
    """Yield :func:`evolve` of ``p`` to each of ``times``, from one
    eigendecomposition of ``h`` (taken when the first point is asked for)."""
    _check_dims(p, h)
    w, v = np.linalg.eigh(h.matrix)
    for t in times:
        yield _conjugated(p, _propagator(w, v, t, cfg.hbar), cfg)


def ehrenfest_check(a: HermitianOperator, h: HermitianOperator, p: OrbitPoint,
                    cfg: Config = DEFAULT_CONFIG) -> float:
    """Residual between d/dt <A> along the flow of ``h`` and omega(X_A, X_H).

    The derivative is taken by a central difference with step ``cfg.fd_step``,
    so the residual is O(fd_step^2).
    """
    _check_dims(p, a, h)
    step = cfg.fd_step
    forward, backward = _flows(p, h, (step, -step), cfg)
    derivative = (np.trace(forward.rho @ a.matrix).real
                  - np.trace(backward.rho @ a.matrix).real) / (2.0 * step)
    return abs(derivative - symplectic(a, h, p, cfg))


@dataclass(frozen=True)
class Trajectory:
    """Uniform-time samples of a unitary flow, all on the same orbit."""

    times: tuple
    points: tuple
    generator: HermitianOperator


def trajectory(p: OrbitPoint, h: HermitianOperator, t_max: float, steps: int,
               cfg: Config = DEFAULT_CONFIG) -> Trajectory:
    """Sample the flow of ``h`` at ``steps`` uniform times from 0 to ``t_max``."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    times = np.linspace(0.0, t_max, steps)
    flowed = _flows(p, h, [float(t) for t in times if t != 0.0], cfg)
    points = tuple(p if t == 0.0 else next(flowed) for t in times)
    return Trajectory(times=tuple(float(t) for t in times), points=points, generator=h)
