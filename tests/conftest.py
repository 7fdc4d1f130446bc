import pytest

from mvnabs import fixtures, parse_model


@pytest.fixture
def pl2():
    return fixtures.pl2()


@pytest.fixture
def apl2():
    return fixtures.apl2()


@pytest.fixture
def rho_cro():
    return fixtures.rho_cro()


@pytest.fixture
def mtrp():
    return fixtures.mtrp()


@pytest.fixture
def atrp():
    return fixtures.atrp()


@pytest.fixture
def phi_trp():
    return fixtures.phi_trp()


@pytest.fixture
def apl2_bad(pl2):
    # Making 01 lose its point-attractor status in the abstract model
    # demands behaviour the concrete model does not have.
    src = fixtures.APL2_SOURCE.replace("mvn APL2", "mvn APL2B").replace(
        "table Cro:\n  0 0 -> 1\n  0 1 -> 1\n  1 0 -> 0\n  1 1 -> 0",
        "table Cro:\n  0 0 -> 1\n  0 1 -> 0\n  1 0 -> 0\n  1 1 -> 0",
    )
    return parse_model(src)
