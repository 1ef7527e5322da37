"""Value semantics of the package's immutable records.

The six value types compare and hash by their declared fields, refuse
assignment, and print like ``Name(field=value, ...)``.  Scenes are
``lru_cache`` keys (``o_piece``, which ``derivation_space`` and
``spencer_h0`` read), so two separately built equal values must
hit the same cache entry.
"""

import os

import pytest

from spencerlab.diffops import kashiwara_quotient
from spencerlab.errors import SceneError
from spencerlab.groebner import GroebnerBasis, buchberger
from spencerlab.homotopy import Derivation, euler_derivation
from spencerlab.modules import PresentedModule, o_piece
from spencerlab.rings import AffineScene, Ideal, WeightedRing, parse_polynomial, scene
from spencerlab.scenes import load_scene

SCENES = os.path.join(os.path.dirname(__file__), "..", "scenes")


def ring():
    return WeightedRing(("x", "y"), (2, 3))


def cusp():
    return scene(["x", "y"], [2, 3], ["x^3 - y^2"])


def cusp_ideal(text="x^3 - y^2"):
    return Ideal((parse_polynomial(text, ring()),))


# name -> (build the value, build it with one field changed, that field);
# every call builds fresh objects, so equal values are never identical
VALUE_TYPES = {
    "WeightedRing": (ring, lambda: WeightedRing(("x", "y"), (2, 5)), "weights"),
    "Ideal": (cusp_ideal, lambda: cusp_ideal("x^3 + y^2"), "generators"),
    "AffineScene": (cusp, lambda: scene(["x", "y"], [2, 3]), "ideal"),
    "GroebnerBasis": (
        lambda: buchberger(cusp_ideal()),
        lambda: buchberger(cusp_ideal("x^3 + y^2")),
        "generators",
    ),
    "Derivation": (
        lambda: euler_derivation(cusp()),
        lambda: Derivation(cusp(), tuple(c.scale(2) for c in euler_derivation(cusp()).coefficients)),
        "coefficients",
    ),
    "PresentedModule": (
        lambda: PresentedModule(cusp(), (("1", 0),), (), "free"),
        lambda: PresentedModule(cusp(), (("1", 0),), (), "other"),
        "name",
    ),
}


@pytest.mark.parametrize("name", sorted(VALUE_TYPES))
def test_equal_fields_give_equal_values_with_equal_hashes(name):
    build, _changed, _field = VALUE_TYPES[name]
    a, b = build(), build()
    assert type(a).__name__ == name
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", sorted(VALUE_TYPES))
def test_a_changed_field_gives_an_unequal_value(name):
    build, changed, field = VALUE_TYPES[name]
    a, c = build(), changed()
    assert getattr(a, field) != getattr(c, field)
    assert a != c and not a == c
    assert a != object()


@pytest.mark.parametrize("name", sorted(VALUE_TYPES))
def test_fields_cannot_be_assigned_or_deleted(name):
    build, changed, field = VALUE_TYPES[name]
    a = build()
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(changed(), field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == build()


def test_repr_names_every_field():
    r = WeightedRing(("x",), (1,))
    assert repr(r) == "WeightedRing(variables=('x',), weights=(1,))"
    assert repr(GroebnerBasis((), r)) == f"GroebnerBasis(generators=(), ring={r!r})"


def test_one_scene_file_loaded_twice_is_one_cache_key():
    path = os.path.join(SCENES, "cusp.scene")
    first, second = load_scene(path), load_scene(path)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    piece = o_piece(first, 11)
    before = o_piece.cache_info()
    assert o_piece(second, 11) is piece
    after = o_piece.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_ideal_drops_zero_generators():
    R = ring()
    x = parse_polynomial("x", R)
    assert Ideal((R.zero(), x, R.zero())).generators == (x,)
    assert Ideal((R.zero(), x)) == Ideal((x,))
    assert Ideal((R.zero(),)).is_trivial


def test_derivation_equality_ignores_cached_weight_and_jacobian():
    a, b = euler_derivation(cusp()), euler_derivation(cusp())
    assert a.weight == 0 and a._jacobian
    vars(b).update(_weight=7, _jacobian=())
    assert a == b and hash(a) == hash(b)
    assert "_weight" not in repr(a) and "_jacobian" not in repr(a)


def test_constructors_check_their_arguments_and_take_keywords():
    R = ring()
    with pytest.raises(SceneError, match="not weighted-homogeneous"):
        AffineScene(R, Ideal((parse_polynomial("x + y", R),)))
    with pytest.raises(SceneError, match="order bound"):
        kashiwara_quotient(cusp(), -1, 4)
    assert GroebnerBasis(generators=(), ring=R) == GroebnerBasis((), R)
    assert PresentedModule(cusp(), (("1", 0),), relations=(), name="m").relations == ()
