"""Unitary flows on the orbit and Hamiltonian-dynamics checks.

The flow of the field generated by H is the conjugation
``rho(t) = exp(-i H t / hbar) rho exp(i H t / hbar)``, computed by
diagonalizing the Hermitian generator. This keeps trajectories exactly on the
orbit: the spectrum label never changes, and the frame is carried along by the
same propagator rather than re-diagonalized.

Flows are stacked: :func:`_flows` takes a point or a stack of points along
a stack of generators to a stack of times, shared or per point, with one
eigendecomposition of the generators and one conjugation pass; each flowed
point reads its spectrum from its row. A single :func:`evolve` is that pass
on one row. A flowed point that still fails validation has drifted off the
orbit: it raises :class:`DegenerateDriftError` naming its time, and fails
its own point of a stack. Derivatives along flows are central differences
(:func:`_differences`), taken by point-or-stack kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Config, DEFAULT_CONFIG, _integer, _real
from .errors import DegenerateDriftError
from .kahler import _symplectic
from .operators import HermitianOperator, OrbitPoint, _check_dims, _conjugated, _dagger

__all__ = ["Trajectory", "unitary_propagator", "evolve", "ehrenfest_check", "trajectory"]


def _propagators(h: np.ndarray, times, hbar: float) -> np.ndarray:
    """``exp(-i H t / hbar)`` for each H of the (G, [N,] d, d) stack ``h`` and each
    time of ``times``, (T,) or (T, N) per point, from one eigendecomposition:
    (G * T, [N,] d, d), generator-major."""
    times = np.asarray(times, dtype=float)
    w, v = np.linalg.eigh(h)
    # times (T, [N]) broadcast against w[:, None], (G, 1, [N,] d)
    times = times.reshape(times.shape[:1] + (1,) * (w.ndim - 1 - times.ndim)
                          + times.shape[1:] + (1,))
    phases = np.exp(-1j * w[:, None] * times / hbar)
    u = (v[:, None] * phases[..., None, :]) @ _dagger(v)[:, None]
    return u.reshape(-1, *h.shape[1:])


def unitary_propagator(h: HermitianOperator, t: float, hbar: float) -> np.ndarray:
    """``exp(-i H t / hbar)`` via eigendecomposition of the Hermitian generator."""
    t, hbar = _real("flow times", t), _real("hbar", hbar, positive=True)
    return _propagators(h.matrix[None], (t,), hbar)[0]


def evolve(p: OrbitPoint, h: HermitianOperator, t: float,
           cfg: Config = DEFAULT_CONFIG) -> OrbitPoint:
    """Flow a point for time ``t`` under the field generated by ``h``."""
    _check_dims(p, h)
    return _flows(p, h.matrix[None], (_real("flow times", t),), cfg)[0]


def _flows(p: OrbitPoint, h: np.ndarray, times, cfg: Config) -> OrbitPoint:
    """:func:`evolve` of a point or an N-stack ``p`` under each generator of ``h``,
    (G, [N,] d, d), to each of ``times``, (T,) or per point (T, N): the rows
    (G * T, [N]) of one conjugation pass. The first failing row, in (generator,
    time, point) order, raises its drift error; on a stack it fails its point."""
    points = len(p) if p.rho.ndim == 3 else 1

    def drift(m, error):
        time = np.asarray(times)[m // points % len(times)]
        time = float(time[m % points] if time.ndim else time)
        return DegenerateDriftError(f"flow for time {time} left the validated orbit "
                                    f"neighborhood: {error}")
    return _conjugated(p, _propagators(h, times, cfg.hbar), cfg, drift)


def _differences(values: np.ndarray, cfg: Config) -> np.ndarray:
    """Central differences of fields evaluated at (forward, backward) row pairs."""
    return (values[0::2] - values[1::2]) / (2.0 * cfg.fd_step)


def ehrenfest_check(a: HermitianOperator, h: HermitianOperator, p: OrbitPoint,
                    cfg: Config = DEFAULT_CONFIG) -> float:
    """Residual between d/dt <A> along the flow of ``h`` and omega(X_A, X_H).

    The derivative is taken by a central difference with step ``cfg.fd_step``,
    so the residual is O(fd_step^2).
    """
    _check_dims(p, a, h)
    return float(_ehrenfest(a.matrix, h.matrix, p, cfg))


def _ehrenfest(a: np.ndarray, h: np.ndarray, p: OrbitPoint, cfg: Config) -> np.ndarray:
    """:func:`ehrenfest_check` at a point or an N-stack ``p``: 0-d or (N,)."""
    flowed = _flows(p, h[None], (cfg.fd_step, -cfg.fd_step), cfg)
    (rate,) = _differences((flowed.rho @ a).trace(axis1=-2, axis2=-1).real, cfg)
    return np.abs(rate - _symplectic(a @ h - h @ a, p.rho, cfg))


@dataclass(frozen=True)
class Trajectory:
    """Uniform-time samples of a unitary flow, all on the same orbit."""

    times: tuple
    points: tuple


def trajectory(p: OrbitPoint, h: HermitianOperator, t_max: float, steps: int,
               cfg: Config = DEFAULT_CONFIG) -> Trajectory:
    """Sample the flow of ``h`` at ``steps`` uniform times from 0 to ``t_max``."""
    steps, t_max = _integer("steps", steps, 1), _real("t_max", t_max)
    _check_dims(p, h)
    times = np.linspace(0.0, t_max, steps)
    flowed = iter(_flows(p, h.matrix[None], [float(t) for t in times if t != 0.0], cfg))
    points = tuple(p if t == 0.0 else next(flowed) for t in times)
    return Trajectory(times=tuple(float(t) for t in times), points=points)
