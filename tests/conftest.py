import pytest

from splicelink.invariants import alexander_polynomial
from splicelink.splice import build_k2n


@pytest.fixture(scope="session")
def k2():
    return build_k2n(1)


@pytest.fixture(scope="session")
def k4():
    return build_k2n(2)


@pytest.fixture(scope="session")
def k8():
    return build_k2n(4)


@pytest.fixture(scope="session")
def delta_k2(k2):
    return alexander_polynomial(k2)


@pytest.fixture(scope="session")
def delta_k4(k4):
    return alexander_polynomial(k4)


@pytest.fixture(scope="session")
def delta_k8(k8):
    return alexander_polynomial(k8)


@pytest.fixture(scope="session")
def delta_k12():
    """Δ of the 12-node chain, 3^12 terms: the largest the chain tests
    expand, so it is expanded once per session."""
    return alexander_polynomial(build_k2n(6))
