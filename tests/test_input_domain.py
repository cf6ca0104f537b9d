"""One row per (public function, parameter, domain).

Every value outside a parameter's domain raises a ValueError whose message
names the parameter; every spelling of one valid value (an int, an integral
float, a numpy scalar) gives the same result. Counts and dims are integers
>= 1, and a bool is never a number.
"""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbit_kahler import (
    Config,
    evolve,
    involutivity_check,
    make_hermitian,
    make_spectrum,
    nondegeneracy_check,
    orbit_batch,
    orbit_point,
    run_checks,
    trajectory,
    unitary_propagator,
)
from orbit_kahler.cli import main
from orbit_kahler.operators import haar_unitary, random_density
from orbit_kahler.sampling import (
    gaussian_hermitian,
    maximally_mixed_spectrum,
    pure_spectrum,
    random_spectrum,
)
from orbit_kahler.serialize import matrix_from_json

QUBIT = orbit_point(make_hermitian(np.diag([0.7, 0.3])))
QUTRIT = orbit_point(make_hermitian(np.diag([0.5, 0.3, 0.2])))
SX = make_hermitian(np.array([[0, 1], [1, 0]]))

# values that no numeric parameter takes: bool is an int subclass, a numpy
# bool is no number, and an int beyond float range is no finite float (each
# such int raised OverflowError)
BEYOND_FLOAT = [10 ** 400, -10 ** 400]
NOT_REAL = [True, False, np.True_, "2", None, math.nan, math.inf, -math.inf, *BEYOND_FLOAT]
_not_real = st.one_of(st.booleans(), st.just(np.False_), st.text(), st.none(),
                      st.sampled_from([math.nan, math.inf, -math.inf, *BEYOND_FLOAT]))
_fractional = st.floats(allow_infinity=False, allow_nan=False).filter(
    lambda x: not x.is_integer())
_below_one = st.integers(-2 ** 62, 0)
_negative = st.one_of(st.integers(-2 ** 62, -1),
                      st.floats(max_value=0.0, exclude_max=True, allow_infinity=False))


@dataclasses.dataclass(frozen=True)
class Domain:
    fixed: tuple      # bad values tried on every row of the domain
    drawn: object     # a strategy of further bad values
    spellings: tuple  # one valid value, spelled in each accepted type


COUNT = Domain(
    tuple(NOT_REAL) + (0, -1, 2.5, np.float64(2.5), np.int64(0)),
    st.one_of(_not_real, _fractional, _below_one, _fractional.map(np.float64),
              _below_one.map(np.int64)),
    (3, 3.0, np.int64(3)))
REAL = Domain(tuple(NOT_REAL), _not_real, (1, 1.0, np.int64(1)))
POSITIVE = Domain(tuple(NOT_REAL) + (0, 0.0, -1, -2.5, np.int64(-3)),
                  st.one_of(_not_real, _negative, st.just(0.0)), (1, 1.0, np.int64(1)))
# None once drew OS entropy, True ran as seed 1, 2.0 raised numpy's TypeError
# and -1 a ValueError that did not name the seed
SEED = Domain(tuple(NOT_REAL) + (-1, 2.5, np.float64(2.5), np.int64(-1)),
              st.one_of(_not_real, _fractional, _negative, _negative.map(np.float64)),
              (2, 2.0, np.int64(2)))
NONNEGATIVE = Domain(tuple(NOT_REAL) + (-1, -1e-300, np.float64(-0.5)),
                     st.one_of(_not_real, _negative), (0, 0.0, np.int64(0)))
# steps above 1e-2 gate the finite-difference suites above 0.1
FD_STEP = Domain(POSITIVE.fixed + (0.5, 1, 0.0100001),
                 st.one_of(POSITIVE.drawn, st.floats(0.0100001, 1e300)),
                 (1e-3, np.float64(1e-3)))


def _rng():
    return np.random.default_rng(0)


def _matrix_json(n):
    return {"n": n, "re": np.eye(3).tolist(), "im": np.zeros((3, 3)).tolist()}


# (function, parameter as its message names it, domain, the call)
ROWS = [
    ("random_spectrum", "dim", COUNT, lambda v: random_spectrum(v, _rng())),
    ("random_spectrum", "max_clusters", COUNT,
     lambda v: random_spectrum(4, _rng(), max_clusters=v)),
    ("random_spectrum", "max_mult", COUNT, lambda v: random_spectrum(4, _rng(), max_mult=v)),
    ("random_spectrum", "min_gap", NONNEGATIVE, lambda v: random_spectrum(3, _rng(), min_gap=v)),
    ("maximally_mixed_spectrum", "dim", COUNT, maximally_mixed_spectrum),
    ("pure_spectrum", "dim", COUNT, pure_spectrum),
    ("gaussian_hermitian", "dim", COUNT, lambda v: gaussian_hermitian(v, _rng())),
    ("haar_unitary", "dim", COUNT, lambda v: haar_unitary(v, 0)),
    ("haar_unitary", "seed", SEED, lambda v: haar_unitary(2, v)),
    ("random_density", "seed", SEED, lambda v: random_density(QUTRIT.spectrum, v)),
    ("make_spectrum", "multiplicities", COUNT, lambda v: make_spectrum([1 / 3], [v])),
    ("make_spectrum", "eigenvalues", REAL, lambda v: make_spectrum([v], [1])),
    ("matrix_from_json", "n", COUNT, lambda v: matrix_from_json(_matrix_json(v))),
    ("evolve", "flow times", REAL, lambda v: evolve(QUBIT, SX, v)),
    ("unitary_propagator", "flow times", REAL, lambda v: unitary_propagator(SX, v, 1.0)),
    ("unitary_propagator", "hbar", POSITIVE, lambda v: unitary_propagator(SX, 1.0, v)),
    ("trajectory", "steps", COUNT, lambda v: trajectory(QUBIT, SX, 1.0, v)),
    ("trajectory", "t_max", REAL, lambda v: trajectory(QUBIT, SX, v, 3)),
    ("involutivity_check", "samples", COUNT, lambda v: involutivity_check(QUTRIT, v, 0)),
    ("nondegeneracy_check", "samples", COUNT, lambda v: nondegeneracy_check(QUTRIT, v, 0)),
    ("involutivity_check", "seed", SEED, lambda v: involutivity_check(QUTRIT, 2, v)),
    ("nondegeneracy_check", "seed", SEED, lambda v: nondegeneracy_check(QUTRIT, 2, v)),
    ("run_checks", "dims", COUNT,
     lambda v: run_checks(dims=(2, v), samples=1, names=["j_squared"])),
    ("run_checks", "samples", COUNT, lambda v: run_checks(samples=v, names=["j_squared"])),
    ("run_checks", "seed", SEED, lambda v: run_checks(samples=1, seed=v, names=["j_squared"])),
    ("Config", "fd_step", FD_STEP, lambda v: Config(fd_step=v)),
] + [("Config", field.name, POSITIVE, lambda v, name=field.name: Config(**{name: v}))
     for field in dataclasses.fields(Config) if field.name != "fd_step"]
IDS = [f"{function}-{name}" for function, name, _, _ in ROWS]


def _rejected(name, call, value):
    with pytest.raises(ValueError) as caught:
        call(value)
    # a combined message names the parameter among others
    assert re.search(rf"\b{name}\b[\w ]* must be", str(caught.value)), str(caught.value)


@pytest.mark.parametrize("function, name, domain, call", ROWS, ids=IDS)
def test_fixed_values_outside_domain(function, name, domain, call):
    for value in domain.fixed:
        _rejected(name, call, value)


@pytest.mark.parametrize("function, name, domain, call", ROWS, ids=IDS)
def test_drawn_values_outside_domain(function, name, domain, call):
    @given(domain.drawn)
    @settings(max_examples=40, deadline=None)
    def rejected(value):
        _rejected(name, call, value)
    rejected()


def _same(a, b):
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


@pytest.mark.parametrize("function, name, domain, call", ROWS, ids=IDS)
def test_spellings_of_one_value_agree(function, name, domain, call):
    first, *others = (call(value) for value in domain.spellings)
    assert all(_same(first, other) for other in others)


def test_empty_matrix_rejected():
    # numpy once raised "zero-size array to reduction operation maximum"
    with pytest.raises(ValueError, match="matrix must be at least 1 x 1, got shape"):
        make_hermitian(np.zeros((0, 0)))


@pytest.mark.parametrize("shape", [(1, 0, 0), (0, 0, 0)])
def test_empty_stack_rejected(shape):
    # numpy once raised "zero-size array to reduction operation maximum"
    with pytest.raises(ValueError, match=r"matrices must be at least 1 x 1, got shape \("):
        orbit_batch(np.zeros(shape))


@pytest.mark.parametrize("command, content, message", [
    # a bool multiplicity was read as 1, and the suite exited 0
    (["checks", "--samples", "2", "--spectra"], [{"values": [0.6, 0.4], "mults": [True, 1]}],
     "error: malformed spectrum JSON: multiplicities must be integers, got (True, 1)\n"),
    # a string size was read as 2
    (["spectrum"], {"n": "2", "re": [[0.5, 0], [0, 0.5]], "im": [[0, 0], [0, 0]]},
     "error: malformed matrix JSON: n must be an integer, got '2'\n"),
], ids=["bool-multiplicity", "string-n"])
def test_cli_input_outside_domain_exits_2(command, content, message, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    assert main(command + [str(path)]) == 2
    assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize("names", [5, [5, "x"], b"j_squared"],
                         ids=["int", "mixed-types", "bytes"])
def test_run_checks_names_outside_domain(names):
    # an int and unknown names of mixed types raised TypeError, and bytes
    # were iterated and reported as "unknown checks: [95, 97, ...]"
    _rejected("names", lambda v: run_checks(samples=1, names=v), names)
