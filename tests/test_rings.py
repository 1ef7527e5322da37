from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spencerlab.errors import ParseError, SceneError
from spencerlab.modules import graded_component_basis
from spencerlab.rings import (
    INHOMOGENEOUS,
    Ideal,
    Polynomial,
    WeightedRing,
    parse_polynomial,
    scene,
)

R23 = WeightedRing(("x", "y"), (2, 3))
R11 = WeightedRing(("x", "y"), (1, 1))


def p(text, ring=R23):
    return parse_polynomial(text, ring)


# -- parsing -------------------------------------------------------------------


def test_parse_cusp_terms():
    f = p("x^3 - y^2")
    assert f.terms == {(3, 0): Fraction(1), (0, 2): Fraction(-1)}


def test_parse_zero():
    assert p("0").is_zero()


def test_parse_collects_like_terms():
    f = p("2*x*y + x*y")
    assert f.terms == {(1, 1): Fraction(3)}


def test_parse_parentheses_and_power():
    f = p("(x + y)^2", R11)
    assert f == p("x^2 + 2*x*y + y^2", R11)


def test_parse_unary_minus_and_rational():
    f = p("-3/2*x + x/2")
    assert f.terms == {(1, 0): Fraction(-1)}


def test_parse_unknown_variable_reports_position():
    with pytest.raises(ParseError) as err:
        p("x + zz")
    assert "zz" in str(err.value)
    assert err.value.position == 4


def test_parse_syntax_error_reports_position():
    with pytest.raises(ParseError) as err:
        p("x + * y")
    assert err.value.position is not None


def test_parse_rejects_trailing_garbage():
    with pytest.raises(ParseError):
        p("x y")


# -- printing round trip ---------------------------------------------------------

poly_coeffs = st.fractions(
    min_value=-6, max_value=6, max_denominator=4
).filter(lambda c: c != 0)


@st.composite
def polynomials(draw, ring=R23, max_terms=5, max_exp=4):
    n = ring.nvars
    terms = draw(
        st.dictionaries(
            st.tuples(*[st.integers(0, max_exp) for _ in range(n)]),
            poly_coeffs,
            max_size=max_terms,
        )
    )
    return Polynomial(ring, terms)


@given(polynomials())
def test_print_parse_round_trip(f):
    assert parse_polynomial(str(f), R23) == f


@given(polynomials(), polynomials())
def test_partial_derivative_is_additive_and_leibniz(f, g):
    for i in range(2):
        assert (f + g).partial_derivative(i) == f.partial_derivative(i) + g.partial_derivative(i)
        assert (f * g).partial_derivative(i) == (
            f.partial_derivative(i) * g + f * g.partial_derivative(i)
        )


# -- weighted degree -------------------------------------------------------------


def test_weighted_degree_examples():
    assert p("x^3 - y^2").weighted_degree() == 6
    assert parse_polynomial("x + y", R11).weighted_degree() == 1
    inhomogeneous = p("x + y")
    # the second call reads the cached degree
    for _ in range(2):
        assert inhomogeneous.weighted_degree() == INHOMOGENEOUS


def test_weighted_degree_of_zero_raises():
    zero = p("0")
    for _ in range(2):
        with pytest.raises(SceneError):
            zero.weighted_degree()


def test_partial_derivative_examples():
    assert p("x^3 - y^2").partial_derivative(0) == p("3*x^2")
    assert p("x^3 - y^2").partial_derivative(1) == p("-2*y")
    assert p("7").partial_derivative(0).is_zero()
    with pytest.raises(SceneError):
        p("x").partial_derivative(5)


# -- scenes ------------------------------------------------------------------------


def test_ring_needs_a_variable():
    with pytest.raises(SceneError, match="at least one variable"):
        WeightedRing((), ())


def test_scene_rejects_inhomogeneous_generator():
    with pytest.raises(SceneError):
        scene(["x", "y"], [3, 2], ["x^3 + y^4"])  # weights 9 vs 8


def test_scene_drops_zero_generators():
    s = scene(["x"], [1], ["0"])
    assert s.ideal.is_trivial


def test_ideal_mixed_rings_rejected():
    with pytest.raises(SceneError):
        Ideal((p("x"), parse_polynomial("x", R11)))


# -- graded component bases ----------------------------------------------------------


def test_graded_basis_plane_weight_2(a2):
    basis = graded_component_basis(a2, 2)
    assert len(basis) == 3


def test_graded_basis_cusp(cusp):
    assert len(graded_component_basis(cusp, 6)) == 1  # x^3 = y^2
    assert graded_component_basis(cusp, 1) == ()


def test_graded_basis_negative_weight(cusp):
    assert graded_component_basis(cusp, -2) == ()


def test_free_dimension_matches_combinatorial_count():
    ring = WeightedRing(("x", "y", "z"), (1, 2, 3))
    s = scene(["x", "y", "z"], [1, 2, 3])
    for d in range(0, 10):
        count = sum(
            1
            for a in range(d + 1)
            for b in range(d // 2 + 1)
            for c in range(d // 3 + 1)
            if a + 2 * b + 3 * c == d
        )
        assert len(graded_component_basis(s, d)) == count
        assert len(ring.monomials_of_weight(d)) == count


def test_graded_basis_invariant_under_variable_permutation():
    s1 = scene(["x", "y"], [2, 3], ["x^3 - y^2"])
    s2 = scene(["y", "x"], [3, 2], ["x^3 - y^2"])
    for d in range(0, 13):
        assert len(graded_component_basis(s1, d)) == len(graded_component_basis(s2, d))


@given(st.text(max_size=40))
def test_parser_never_crashes(text):
    # arbitrary input either parses or raises the reported-position error
    try:
        parse_polynomial(text, R23)
    except ParseError:
        pass
