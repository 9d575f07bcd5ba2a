import numpy as np
import pytest

from latentscale import toygen


@pytest.fixture(scope="session")
def default_generator():
    return toygen.build_generator(toygen.GeneratorConfig())


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
