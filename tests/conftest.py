import random

import pytest

from metaplectic import PadicContext, Representation, named_sigma


@pytest.fixture(scope="session")
def ctx():
    return PadicContext(3)


@pytest.fixture(scope="session")
def ctx5():
    return PadicContext(5)


@pytest.fixture(scope="session")
def rep1(ctx):
    return Representation(named_sigma(ctx, "builtin1"))


@pytest.fixture(scope="session")
def rep2(ctx):
    return Representation(named_sigma(ctx, "builtin2"))


@pytest.fixture(scope="session")
def weil5(ctx5):
    """The odd Weil representation at p = 5: dim 2, betas 1/5 and 4/5."""
    return Representation(named_sigma(ctx5, "weil5"))


@pytest.fixture(scope="session")
def weil7():
    """The odd Weil representation at p = 7: dim 3, betas 1/7, 2/7, 4/7."""
    return Representation(named_sigma(PadicContext(7), "weil7"))


@pytest.fixture(scope="session")
def norm3(ctx):
    """The norm-form data at p = 3, k = 1: dim 2, betas 1/3 and 2/3 in the
    two square classes, omega(-1) = -1."""
    return Representation(named_sigma(ctx, "norm3"))


@pytest.fixture()
def rng():
    return random.Random(99173)
