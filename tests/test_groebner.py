import pytest

from spencerlab.errors import BudgetExceeded
from spencerlab.groebner import buchberger, normal_form, quotient_dimension
from spencerlab.modules import o_piece
from spencerlab.rings import Ideal, WeightedRing, parse_polynomial, scene

R23 = WeightedRing(("x", "y"), (2, 3))
R11 = WeightedRing(("x", "y"), (1, 1))


def p(text, ring=R23):
    return parse_polynomial(text, ring)


def gens(ring, *texts):
    return Ideal(tuple(parse_polynomial(t, ring) for t in texts))


def test_already_reduced():
    gb = buchberger(gens(R11, "x^2", "y"))
    assert sorted(str(g) for g in gb.generators) == ["x^2", "y"]
    assert gb.ring == R11


def test_cusp_jacobian_basis():
    gb = buchberger(gens(R23, "x^3 - y^2", "3*x^2", "-2*y"))
    assert sorted(str(g) for g in gb.generators) == ["x^2", "y"]


def test_constant_ideal_gives_unit():
    gb = buchberger(gens(R11, "2"))
    assert [str(g) for g in gb.generators] == ["1"]
    assert gb.is_unit_ideal()


def test_idempotent():
    gb = buchberger(gens(R23, "x^3 - y^2", "3*x^2", "-2*y"))
    again = buchberger(Ideal(gb.generators))
    assert again.generators == gb.generators


def test_normal_form_examples():
    gb = buchberger(gens(R11, "x^2", "y"))
    assert normal_form(p("x^3", R11), gb).is_zero()
    assert str(normal_form(p("1 + x", R11), gb)) == "x + 1"
    assert str(normal_form(p("y^2 + x", R11), gb)) == "x"


def test_normal_form_idempotent_and_membership():
    gb = buchberger(gens(R23, "x^3 - y^2"))
    for text in ("x^5", "x^3*y - y^3", "x^4 + x*y^2"):
        r = normal_form(p(text), gb)
        assert normal_form(r, gb) == r
        assert normal_form(p(text) - r, gb).is_zero()


def test_quotient_dimension_examples():
    dim, basis = quotient_dimension(gens(R11, "x^2", "y"))
    assert dim == 2 and basis == ((0, 0), (1, 0))
    dim, basis = quotient_dimension(gens(R11, "x^2", "y^3"))
    assert dim == 6
    assert quotient_dimension(gens(R11, "x")) is None


def test_quotient_dimension_unit_ideal():
    assert quotient_dimension(gens(R11, "5")) == (0, ())


def test_quotient_dimension_order_independent():
    for texts in (("x^2", "y^3"), ("y^3", "x^2")):
        assert quotient_dimension(gens(R11, *texts))[0] == 6
    dim, _ = quotient_dimension(gens(R23, "3*x^2", "-2*y"))
    assert dim == 2
    # a non-monomial quotient: Q[x,y]/(x^2 - y, y^2) has dimension 4
    dim, _ = quotient_dimension(gens(R11, "x^2 - y", "y^2"))
    assert dim == 4


def test_budget_exhaustion_raises():
    with pytest.raises(BudgetExceeded):
        buchberger(gens(R11, "x^2 + y", "x*y + x", "y^2 - x"), pair_budget=1)


CORPUS = [
    (("x", "y"), (2, 3), ("x^3 - y^2",)),
    (("x", "y"), (4, 3), ("x^3 + y^4",)),
    (("x", "y"), (1, 1), ("x^2 - y^2",)),
    (("x", "y"), (1, 1), ("x*y",)),
    (("x", "y", "z"), (1, 1, 1), ("x^2 + y^2 - z^2",)),
    (("x", "y"), (1, 1), ("x^3 - x*y^2", "3*x^2 - y^2")),
]


def test_membership_matches_degreewise_linear_oracle():
    for variables, weights, texts in CORPUS:
        s = scene(variables, weights, texts)
        gb = buchberger(s.ideal)
        ring = s.ring
        for d in range(0, 13):
            piece = o_piece(s, d)
            for m in ring.monomials_of_weight(d):
                candidate = ring.monomial(m)
                assert normal_form(candidate, gb).is_zero() == piece.is_relation(
                    candidate.terms
                )


def test_buchberger_terminates_on_corpus_within_budget():
    for variables, weights, texts in CORPUS:
        s = scene(variables, weights, texts)
        gb = buchberger(s.ideal, pair_budget=10**5)
        assert gb.generators
