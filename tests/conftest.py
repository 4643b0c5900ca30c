import random

import pytest

from metaplectic import PadicContext, Representation, elliptic_sigma

from helpers import named_sigma_once


@pytest.fixture(scope="session")
def ctx():
    return PadicContext(3)


@pytest.fixture(scope="session")
def ctx5():
    return PadicContext(5)


@pytest.fixture(scope="session")
def rep1():
    return Representation(named_sigma_once("builtin1"))


@pytest.fixture(scope="session")
def rep2():
    return Representation(named_sigma_once("builtin2"))


@pytest.fixture(scope="session")
def weil5():
    """The odd Weil representation at p = 5: dim 2, betas 1/5 and 4/5."""
    return Representation(named_sigma_once("weil5"))


@pytest.fixture(scope="session")
def weil7():
    """The odd Weil representation at p = 7: dim 3, betas 1/7, 2/7, 4/7."""
    return Representation(named_sigma_once("weil7"))


@pytest.fixture(scope="session")
def norm3():
    """The norm-form data at p = 3, k = 1: dim 2, betas 1/3 and 2/3 in the
    two square classes, omega(-1) = -1."""
    return Representation(named_sigma_once("norm3"))


@pytest.fixture(scope="session")
def norm5():
    """The norm-form data at p = 5, k = 1: dim 4, betas a/5 in both square
    classes."""
    return Representation(named_sigma_once("norm5"))


@pytest.fixture(scope="session")
def elliptic9():
    """The regular elliptic data at p = 3, level 2, k = 1: dim 6, betas j/9
    with 3 not dividing j, classes 1/9 and 2/9, omega(-1) = -1; about 1.3 s
    to build."""
    return Representation(named_sigma_once("elliptic9"))


@pytest.fixture(scope="session")
def elliptic9k4(ctx):
    """The same data at k = 4, where omega(-1) = +1."""
    return Representation(elliptic_sigma(ctx, 4))


@pytest.fixture()
def rng():
    return random.Random(99173)
