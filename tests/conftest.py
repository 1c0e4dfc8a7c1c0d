import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from oracles import simple_random_walk  # noqa: E402


@pytest.fixture(scope="session")
def srw2():
    return simple_random_walk(2)


@pytest.fixture(scope="session")
def srw2_lazy():
    return simple_random_walk(2, lazify=True)


@pytest.fixture(scope="session")
def srw3():
    return simple_random_walk(3)
