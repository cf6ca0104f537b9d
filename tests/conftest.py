import numpy as np
import pytest

from orbit_kahler import Config, OrbitPoint, make_hermitian, orbit_point

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def labelled_point(rho, spectrum, frame):
    """The point on ``rho`` and ``frame`` labelled ``spectrum``, unchecked
    (white box): its eigenvalues are read off the label."""
    return OrbitPoint(rho=rho, frame=frame, eigenvalues=spectrum.full_values())


@pytest.fixture
def cfg():
    return Config()


@pytest.fixture
def sigma_x():
    return make_hermitian(SX)


@pytest.fixture
def sigma_y():
    return make_hermitian(SY)


@pytest.fixture
def sigma_z():
    return make_hermitian(SZ)


@pytest.fixture
def qubit_point():
    """rho = diag(0.7, 0.3), the workhorse desk-scale example."""
    return orbit_point(make_hermitian(np.diag([0.7, 0.3]).astype(complex)))
