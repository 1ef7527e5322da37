from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spencerlab.errors import InternalInvariantError, ParseError, SceneError
from spencerlab.modules import o_piece
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


def test_parse_nesting_depth_is_bounded():
    # the parser recurses once per parenthesis: too deep is a ParseError, not a RecursionError
    assert p("(" * 50 + "x" + ")" * 50) == p("x")
    with pytest.raises(ParseError, match="nested too deeply"):
        p("(" * 3000 + "x" + ")" * 3000)


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


# -- coefficient normal form ------------------------------------------------------

mixed_coeffs = st.one_of(st.integers(-6, 6), poly_coeffs)


@st.composite
def raw_terms(draw, max_terms=5, max_exp=3):
    """Term maps over R23 with int and Fraction coefficients, zeros included."""
    return draw(
        st.dictionaries(
            st.tuples(st.integers(0, max_exp), st.integers(0, max_exp)),
            mixed_coeffs,
            max_size=max_terms,
        )
    )


def _reference(terms: dict) -> dict:
    """The same term map over Fraction only, zeros dropped."""
    return {m: Fraction(c) for m, c in terms.items() if c}


def _ref_add(a: dict, b: dict, sign: int) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + sign * c
    return _reference(out)


def _ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = (m1[0] + m2[0], m1[1] + m2[1])
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return _reference(out)


def _ref_partial(a: dict, i: int) -> dict:
    out: dict = {}
    for m, c in a.items():
        if m[i]:
            dm = tuple(e - (k == i) for k, e in enumerate(m))
            out[dm] = out.get(dm, Fraction(0)) + c * m[i]
    return _reference(out)


def _in_normal_form(f: Polynomial) -> bool:
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator > 1)
        for c in f.terms.values()
    )


@given(raw_terms(), raw_terms(), mixed_coeffs, st.tuples(st.integers(0, 2), st.integers(0, 2)))
def test_coefficients_are_int_exactly_when_integral(ta, tb, c, mono):
    f, g = Polynomial(R23, ta), Polynomial(R23, tb)
    ra, rb = _reference(ta), _reference(tb)
    shifted = {(m[0] + mono[0], m[1] + mono[1]): v for m, v in ra.items()}
    cases = [
        (f, ra),
        (f + g, _ref_add(ra, rb, 1)),
        (f - g, _ref_add(ra, rb, -1)),
        (f * g, _ref_mul(ra, rb)),
        (f.scale(c), _reference({m: v * c for m, v in ra.items()})),
        (f.mul_mono(mono, c), _reference({m: v * c for m, v in shifted.items()})),
        (f.partial_derivative(0), _ref_partial(ra, 0)),
        (f.partial_derivative(1), _ref_partial(ra, 1)),
    ]
    for got, ref in cases:
        assert _in_normal_form(got)
        assert {m: Fraction(v) for m, v in got.terms.items()} == ref
        # the all-Fraction reference polynomial is the same value
        same = Polynomial(R23, ref)
        assert same == got and hash(same) == hash(got)
        assert same.terms == got.terms


def test_float_coefficients_are_refused():
    with pytest.raises(InternalInvariantError, match="not exact"):
        Polynomial(R23, {(1, 0): 0.5})
    with pytest.raises(InternalInvariantError, match="not exact"):
        p("3*x").scale(1 / 3)
    with pytest.raises(InternalInvariantError, match="not exact"):
        p("x").mul_mono((0, 1), 2.0)
    with pytest.raises(InternalInvariantError, match="not exact"):
        R23.constant(1.5)


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
    basis = o_piece(a2, 2).basis
    assert len(basis) == 3


def test_graded_basis_cusp(cusp):
    assert o_piece(cusp, 6).dim == 1  # x^3 = y^2
    assert o_piece(cusp, 1).basis == ()


def test_graded_basis_negative_weight(cusp):
    assert o_piece(cusp, -2).basis == ()


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
        assert o_piece(s, d).dim == count
        assert len(ring.monomials_of_weight(d)) == count


def test_graded_basis_invariant_under_variable_permutation():
    s1 = scene(["x", "y"], [2, 3], ["x^3 - y^2"])
    s2 = scene(["y", "x"], [3, 2], ["x^3 - y^2"])
    for d in range(0, 13):
        assert o_piece(s1, d).dim == o_piece(s2, d).dim


@given(st.text(max_size=40))
def test_parser_never_crashes(text):
    # arbitrary input either parses or raises the reported-position error
    try:
        parse_polynomial(text, R23)
    except ParseError:
        pass
