import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from gffpin.walk import make_kernel  # noqa: E402
from oracles import simple_random_walk  # noqa: E402


@pytest.fixture(scope="session")
def srw1():
    return simple_random_walk(1)


@pytest.fixture(scope="session")
def srw2():
    return simple_random_walk(2)


@pytest.fixture(scope="session")
def srw2_lazy():
    return simple_random_walk(2, lazify=True)


@pytest.fixture(scope="session")
def srw3():
    return simple_random_walk(3)


@pytest.fixture(scope="session")
def knight():
    # max_step 2 and period 2: x1 + x2 is odd on every step
    return make_kernel([((1, 0), 1.0), ((-1, 0), 1.0), ((0, 1), 1.0),
                        ((0, -1), 1.0), ((2, 1), 0.5), ((-2, -1), 0.5)], 2)


@pytest.fixture(scope="session")
def aniso():
    # the 3:1 anisotropic kernel: Q = diag(3, 1) / 4
    return make_kernel([((1, 0), 3.0), ((-1, 0), 3.0), ((0, 1), 1.0),
                        ((0, -1), 1.0)], 2)
