import os

import pytest

from spencerlab.rings import scene

# CLI tests start child interpreters; they import the package from src/,
# as pytest's ``pythonpath`` setting does for this process
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture
def a1():
    return scene(["x"], [1])


@pytest.fixture
def a2():
    return scene(["x", "y"], [1, 1])


@pytest.fixture
def a3():
    return scene(["x", "y", "z"], [1, 1, 1])


@pytest.fixture
def cusp():
    return scene(["x", "y"], [2, 3], ["x^3 - y^2"])


@pytest.fixture
def e6():
    return scene(["x", "y"], [4, 3], ["x^3 + y^4"])


@pytest.fixture
def node():
    return scene(["x", "y"], [1, 1], ["x^2 - y^2"])
