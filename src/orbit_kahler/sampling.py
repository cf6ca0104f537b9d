"""Seeded instance generators for property checks and sweeps.

All generators consume an explicit ``numpy.random.Generator`` (or a seed) and
are deterministic given it; nothing touches global random state.
"""

from __future__ import annotations

import numpy as np

from .config import Config, DEFAULT_CONFIG, _integer, _real
from .operators import (
    HermitianOperator,
    OrbitPoint,
    Spectrum,
    _check_dims,
    _normals,
    haar_unitary,
    make_spectrum,
    random_density,
)

__all__ = [
    "gaussian_hermitian",
    "random_spectrum",
    "maximally_mixed_spectrum",
    "pure_spectrum",
    "random_point",
    "random_gauge",
]


def gaussian_hermitian(dim: int, rng: np.random.Generator) -> HermitianOperator:
    """Gaussian-ensemble Hermitian matrix drawn from ``rng``."""
    return HermitianOperator(_gaussian(_integer("dim", dim, 1), rng))


def _gaussian(dim: int, rng: np.random.Generator, *lead) -> np.ndarray:
    """The matrices (*lead, dim, dim) of :func:`gaussian_hermitian`, drawn as :func:`_normals`."""
    z = _normals(dim, rng, *lead)
    return 0.5 * (z + z.conj().swapaxes(-1, -2))


def maximally_mixed_spectrum(dim: int, cfg: Config = DEFAULT_CONFIG) -> Spectrum:
    """Single-cluster spectrum {1/dim} with multiplicity dim."""
    dim = _integer("dim", dim, 1)
    return make_spectrum([1.0 / dim], [dim], cfg)


def pure_spectrum(dim: int, cfg: Config = DEFAULT_CONFIG) -> Spectrum:
    """Rank-one spectrum (1, 0) with multiplicities (1, dim - 1)."""
    dim = _integer("dim", dim, 1)
    if dim == 1:
        return make_spectrum([1.0], [1], cfg)
    return make_spectrum([1.0, 0.0], [1, dim - 1], cfg)


def random_spectrum(dim: int, rng: np.random.Generator,
                    max_clusters: int = 4, max_mult: int = 3,
                    min_gap: float = 0.05,
                    cfg: Config = DEFAULT_CONFIG) -> Spectrum:
    """Random density spectrum with bounded cluster count and multiplicities.

    Distinct values are kept at least ``min_gap`` apart before trace
    normalization, which keeps every gap far above the clustering tolerance.
    Bounds that no draw can meet raise :class:`ValueError`.
    """
    dim = _integer("dim", dim, 1)
    max_clusters, max_mult = _integer("max_clusters", max_clusters), _integer("max_mult", max_mult)
    if _real("min_gap", min_gap) < 0:
        raise ValueError(f"min_gap must be >= 0, got {min_gap}")
    if max_clusters < 1 or max_mult < 1:
        raise ValueError(f"max_clusters and max_mult must be >= 1, got "
                         f"{max_clusters} and {max_mult}")
    lo = -(-dim // max_mult)  # ceil
    hi = min(max_clusters, dim)
    if lo > hi:
        raise ValueError(f"dim {dim} cannot be split into <= {max_clusters} "
                         f"clusters of multiplicity <= {max_mult}")
    k = int(rng.integers(lo, hi + 1))
    # k levels in [0.1, 1.0) span less than 0.9, so no draw could be accepted
    if k > 1 and not (k - 1) * min_gap < 0.9:
        raise ValueError(f"{k} levels in [0.1, 1.0) cannot be {min_gap} apart")
    while True:
        mults = rng.multinomial(dim - k, [1.0 / k] * k) + 1
        if mults.max() <= max_mult:
            break
    while True:
        levels = np.sort(rng.uniform(0.1, 1.0, size=k))[::-1]
        # Python floats: the numpy reduction cost a quarter of the draw
        top = levels.tolist()
        if all(a - b >= min_gap for a, b in zip(top, top[1:])):
            break
    values = (levels / float(np.dot(mults, levels))).tolist()
    # of make_spectrum's checks, only a gap can fail here, after a tiny min_gap
    if all(a - b > cfg.tol_cluster for a, b in zip(values, values[1:])):
        return Spectrum(values=tuple(values), mults=tuple(mults.tolist()))
    return make_spectrum(values, mults, cfg)


def random_point(dim: int, rng: np.random.Generator,
                 cfg: Config = DEFAULT_CONFIG, **spectrum_kwargs) -> OrbitPoint:
    """Haar-random orbit point with a random spectrum in dimension ``dim``."""
    return random_density(random_spectrum(dim, rng, cfg=cfg, **spectrum_kwargs), rng, cfg)


def random_gauge(p: OrbitPoint, rng: np.random.Generator) -> np.ndarray:
    """Haar-random intra-cluster gauge: block-diagonal unitary for ``p``."""
    _check_dims(p)
    return _random_gauge(p.spectrum, rng)


def _random_gauge(spectrum: Spectrum, rng: np.random.Generator) -> np.ndarray:
    """:func:`random_gauge` at the points labelled by ``spectrum``."""
    out = np.zeros((spectrum.total_dim,) * 2, dtype=np.complex128)
    bounds = np.cumsum((0,) + spectrum.mults).tolist()
    for start, end in zip(bounds, bounds[1:]):
        out[start:end, start:end] = haar_unitary(end - start, rng)
    return out
