"""Unitary flows on the orbit and Hamiltonian-dynamics checks.

The flow of the field generated by H is the conjugation
``rho(t) = exp(-i H t / hbar) rho exp(i H t / hbar)``, computed by
diagonalizing the Hermitian generator. This keeps trajectories exactly on the
orbit: the spectrum label never changes, and the frame is carried along by the
same propagator rather than re-diagonalized.

Flows are stacked: :func:`_flows` takes a point along a stack of generators
to a stack of times with one eigendecomposition of the generators and one
conjugation pass; each flowed point reads its spectrum from its row, which
gives back the spectrum of the point. A single :func:`evolve` is that pass
on one row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Config, DEFAULT_CONFIG
from .kahler import symplectic
from .operators import HermitianOperator, OrbitPoint, _check_dims, _conjugated, _dagger

__all__ = ["Trajectory", "unitary_propagator", "evolve", "ehrenfest_check", "trajectory"]


def _propagators(h: np.ndarray, times, hbar: float) -> np.ndarray:
    """``exp(-i H t / hbar)`` for each H of the (G, d, d) stack ``h`` and each
    of ``times``, from one eigendecomposition: (G * T, d, d), generator-major."""
    w, v = np.linalg.eigh(h)
    phases = np.exp(-1j * w[:, None, :] * np.asarray(times, dtype=float)[:, None] / hbar)
    u = (v[:, None] * phases[..., None, :]) @ _dagger(v)[:, None]
    return u.reshape(-1, *h.shape[1:])


def unitary_propagator(h: HermitianOperator, t: float, hbar: float) -> np.ndarray:
    """``exp(-i H t / hbar)`` via eigendecomposition of the Hermitian generator."""
    return _propagators(h.matrix[None], (t,), hbar)[0]


def evolve(p: OrbitPoint, h: HermitianOperator, t: float,
           cfg: Config = DEFAULT_CONFIG) -> OrbitPoint:
    """Flow a point for time ``t`` under the field generated by ``h``."""
    _check_dims(p, h)
    return _flows(p, h.matrix[None], (t,), cfg)[0]


def _flows(p: OrbitPoint, h: np.ndarray, times, cfg: Config, rename=None):
    """:func:`evolve` of ``p`` under each generator of the (G, d, d) stack
    ``h`` to each of ``times``, as the rows of one conjugation pass (ordered
    generator-major), failing as :func:`_stacked`."""
    return _conjugated(p, _propagators(h, times, cfg.hbar), cfg, rename)


def ehrenfest_check(a: HermitianOperator, h: HermitianOperator, p: OrbitPoint,
                    cfg: Config = DEFAULT_CONFIG) -> float:
    """Residual between d/dt <A> along the flow of ``h`` and omega(X_A, X_H).

    The derivative is taken by a central difference with step ``cfg.fd_step``,
    so the residual is O(fd_step^2).
    """
    _check_dims(p, a, h)
    step = cfg.fd_step
    flowed = _flows(p, h.matrix[None], (step, -step), cfg)
    forward, backward = (flowed.rho @ a.matrix).trace(axis1=-2, axis2=-1).real
    return abs((forward - backward) / (2.0 * step) - symplectic(a, h, p, cfg))


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
    _check_dims(p, h)
    times = np.linspace(0.0, t_max, steps)
    flowed = iter(_flows(p, h.matrix[None], [float(t) for t in times if t != 0.0], cfg))
    points = tuple(p if t == 0.0 else next(flowed) for t in times)
    return Trajectory(times=tuple(float(t) for t in times), points=points, generator=h)
