"""Planted defects: a suite that no defect can fail checks nothing.

Each defect is monkeypatched into one binding of the library. The suites
named for it must fail with the defect in place and pass without it, and a
failing suite must reach the command line as exit code 5.
"""

import numpy as np
import pytest

import orbit_kahler.checks as checks_module
import orbit_kahler.integrability as integrability_module
import orbit_kahler.kahler as kahler_module
from orbit_kahler import TangentVector, run_checks
from orbit_kahler.cli import main


def _scaled_j(monkeypatch):
    """Defect A: J scaled by 1 + 1e-3, so J^2 = -(1 + 2e-3 + 1e-6)."""
    apply_j = checks_module.apply_J

    def scaled(x, cfg=checks_module.DEFAULT_CONFIG):
        y = apply_j(x, cfg)
        return TangentVector(y.base, (1.0 + 1e-3) * y.ambient)
    monkeypatch.setattr(checks_module, "apply_J", scaled)


def _flipped_j(monkeypatch):
    """Defect B: J's sign flipped on the block between the top and the bottom
    cluster of every point with k >= 3 clusters. J^2 = -1 still holds, but
    this J is not integrable."""
    j_factor = kahler_module._j_factor

    def flipped(p):
        factor = j_factor(p)
        values = p.eigenvalues
        top, bottom = values == values[..., :1], values == values[..., -1:]
        block = top[..., :, None] & bottom[..., None, :]
        block &= (p.cluster_start.sum(axis=-1) >= 3)[..., None, None]
        return np.where(block | block.swapaxes(-1, -2), -factor, factor)
    for module in (kahler_module, integrability_module):
        monkeypatch.setattr(module, "_j_factor", flipped)


def _passed(names, seed):
    return {r.check_name: r.passed for r in run_checks(names=names, seed=seed)}


@pytest.mark.parametrize("plant, names, seed", [
    (_scaled_j, ["j_squared"], 0),
    (_flipped_j, ["involutivity"], 1),
    (_flipped_j, ["involutivity"], 4),
], ids=["scaled-j", "flipped-j-seed1", "flipped-j-seed4"])
def test_planted_defect_fails_its_suites(plant, names, seed, monkeypatch):
    assert _passed(names, seed) == {name: True for name in names}
    plant(monkeypatch)
    assert _passed(names, seed) == {name: False for name in names}


def test_planted_defect_exits_5(monkeypatch):
    args = ["checks", "--dims", "2", "--samples", "10", "--seed", "5"]
    assert main(args) == 0
    _scaled_j(monkeypatch)
    assert main(args) == 5
