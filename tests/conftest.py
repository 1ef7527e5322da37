import os

import pytest

from spencerlab.modules import PresentedModule
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


def _omega1_presented(sc):
    """Kähler 1-forms of a scene as a presented module.

    Generators dx_j, labelled ``(j,)`` with the weight of x_j; one relation
    dg = (∂_0 g, ..., ∂_{n-1} g) per ideal generator g.
    """
    ring = sc.ring
    gens = tuple(((j,), w) for j, w in enumerate(ring.weights))
    rels = tuple(
        tuple(g.partial_derivative(j) for j in range(ring.nvars))
        for g in sc.ideal.generators
    )
    return PresentedModule(sc, gens, rels, name="omega1")


@pytest.fixture
def omega1_module():
    """Builder of Ω¹ over a scene as a presented module (dx_j modulo dg)."""
    return _omega1_presented
