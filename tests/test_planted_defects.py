"""Planted defects: a suite that no defect can fail checks nothing.

Each defect is monkeypatched into one binding of the library. The suites
named for it must fail with the defect in place and pass without it, and a
failing suite must reach the command line as exit code 5.
"""

import numpy as np
import pytest

import sys

import orbit_kahler.kahler as kahler_module
import orbit_kahler.tangent as tangent_module
from orbit_kahler import run_checks
from orbit_kahler.cli import main


def _plant(monkeypatch, original, defect):
    """Bind ``defect`` in place of ``original`` at every module attribute of
    the library bound to it, so that no caller keeps the sound function."""
    for name, module in list(sys.modules.items()):
        if name.startswith("orbit_kahler"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, defect)


def _scaled_j(monkeypatch):
    """Defect A: J's factor scaled by 1 + 1e-3, so J^2 = -(1 + 2e-3 + 1e-6)."""
    j_factor = kahler_module._j_factor
    _plant(monkeypatch, j_factor, lambda p: (1.0 + 1e-3) * j_factor(p))


def _scaled_lift(monkeypatch):
    """Defect C: every lift scaled by 1 + 1e-6, so lift no longer inverts
    the tangent map."""
    lift = tangent_module._lift
    _plant(monkeypatch, lift, lambda x, p, hbar: (1.0 + 1e-6) * lift(x, p, hbar))


def _transposed_trace(monkeypatch):
    """Defect D: the shared trace Tr(x @ y) summed without its transpose, as
    sum x_ab y_ab."""
    _plant(monkeypatch, kahler_module._tr, lambda x, y: (x * y).sum(axis=(-2, -1)))


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
        # k >= 3: at least two steps between consecutive eigenvalues
        block &= ((values[..., 1:] != values[..., :-1]).sum(axis=-1) >= 2)[..., None, None]
        return np.where(block | block.swapaxes(-1, -2), -factor, factor)
    _plant(monkeypatch, j_factor, flipped)


# the suites whose residual runs through a lift
_LIFT_SUITES = ["j_squared", "compatibility", "block_formula", "tangent_roundtrip",
                "pure_state_equality", "variance_identity"]


# the suites whose residual reads a pairing through the shared trace and fail
# with it transposed; ad_equivariance, gauge_invariance and a bound suite
# raise a theorem violation instead
_TRACE_SUITES = ["metric_positivity", "compatibility", "hermitian_symmetry", "block_formula",
                 "split_orthogonality", "nondegeneracy", "closedness_fd",
                 "pure_state_equality", "variance_identity", "ehrenfest"]


def _passed(names, seed):
    return {r.check_name: r.passed for r in run_checks(names=names, seed=seed)}


@pytest.mark.parametrize("plant, names, seed", [
    (_scaled_j, ["j_squared"], 0),
    (_flipped_j, ["involutivity"], 1),
    (_flipped_j, ["involutivity"], 4),
    (_scaled_lift, _LIFT_SUITES, 1),
    (_scaled_lift, _LIFT_SUITES, 4),
    (_transposed_trace, _TRACE_SUITES, 1),
    (_transposed_trace, _TRACE_SUITES, 4),
], ids=["scaled-j", "flipped-j-seed1", "flipped-j-seed4", "scaled-lift-seed1",
        "scaled-lift-seed4", "transposed-trace-seed1", "transposed-trace-seed4"])
def test_planted_defect_fails_its_suites(plant, names, seed, monkeypatch):
    assert _passed(names, seed) == {name: True for name in names}
    plant(monkeypatch)
    assert _passed(names, seed) == {name: False for name in names}


def test_planted_defect_exits_5(monkeypatch):
    args = ["checks", "--dims", "2", "--samples", "10", "--seed", "5"]
    assert main(args) == 0
    _scaled_j(monkeypatch)
    assert main(args) == 5
