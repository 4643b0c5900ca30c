import random

import pytest

from metaplectic import PadicContext, Representation, builtin_sigma_p3


@pytest.fixture(scope="session")
def ctx():
    return PadicContext(3)


@pytest.fixture(scope="session")
def ctx5():
    return PadicContext(5)


@pytest.fixture(scope="session")
def rep1(ctx):
    return Representation(builtin_sigma_p3(ctx, 1))


@pytest.fixture(scope="session")
def rep2(ctx):
    return Representation(builtin_sigma_p3(ctx, 2))


@pytest.fixture()
def rng():
    return random.Random(99173)
