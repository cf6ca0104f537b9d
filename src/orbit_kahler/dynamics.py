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
on one row. A flowed point that still fails validation has drifted off the
orbit: it raises :class:`DegenerateDriftError` naming its time. Derivatives
along flows are central differences (:func:`_differences`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Config, DEFAULT_CONFIG, _integer, _real
from .errors import DegenerateDriftError
from .kahler import symplectic
from .operators import HermitianOperator, OrbitPoint, _check_dims, _conjugated, _dagger, _stacked

__all__ = ["Trajectory", "unitary_propagator", "evolve", "ehrenfest_check", "trajectory"]


def _propagators(h: np.ndarray, times, hbar: float) -> np.ndarray:
    """``exp(-i H t / hbar)`` for each H of the (G, d, d) stack ``h`` and each
    of ``times``, from one eigendecomposition: (G * T, d, d), generator-major."""
    times = np.asarray(times, dtype=float)
    w, v = np.linalg.eigh(h)
    phases = np.exp(-1j * w[:, None, :] * times[:, None] / hbar)
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


def _flows(p: OrbitPoint, h: np.ndarray, times, cfg: Config):
    """:func:`evolve` of ``p`` under each generator of the (G, d, d) stack
    ``h`` to each of ``times``, as the rows of one conjugation pass (ordered
    generator-major); the first failing row raises its drift error."""
    def drift(m, error):
        return DegenerateDriftError(f"flow for time {times[m % len(times)]} left the "
                                    f"validated orbit neighborhood: {error}")
    return _stacked(lambda u: _conjugated(p, u, cfg), _propagators(h, times, cfg.hbar), drift)


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
    flowed = _flows(p, h.matrix[None], (cfg.fd_step, -cfg.fd_step), cfg)
    (rate,) = _differences((flowed.rho @ a.matrix).trace(axis1=-2, axis2=-1).real, cfg)
    return abs(rate - symplectic(a, h, p, cfg))


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
