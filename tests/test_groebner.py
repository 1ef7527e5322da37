import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groebner_oracle as oracle
from spencerlab import groebner, invariants
from spencerlab.errors import BudgetExceeded, SceneError
from spencerlab.groebner import buchberger, quotient_dimension
from spencerlab.invariants import jacobian_smoothness, milnor_tjurina
from spencerlab.modules import o_piece
from spencerlab.rings import Ideal, Polynomial, WeightedRing, parse_polynomial, scene
from spencerlab.scenes import load_scene

R23 = WeightedRing(("x", "y"), (2, 3))
R11 = WeightedRing(("x", "y"), (1, 1))
R12 = WeightedRing(("x", "y"), (1, 2))
R111 = WeightedRing(("x", "y", "z"), (1, 1, 1))
SCENES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scenes")


def p(text, ring=R23):
    return parse_polynomial(text, ring)


def gens(ring, *texts):
    return Ideal(tuple(parse_polynomial(t, ring) for t in texts))


def strings(polys):
    return [str(g) for g in polys]


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


def test_inhomogeneous_ideal_raises():
    with pytest.raises(SceneError, match="weighted-homogeneous"):
        buchberger(gens(R11, "x^2 - y", "y^2"))


# the reference Buchberger takes any ideal; these cases are not homogeneous

def test_normal_form_examples():
    basis = oracle.buchberger(gens(R11, "x^2", "y").generators)
    assert oracle.normal_form(p("x^3", R11), basis).is_zero()
    assert str(oracle.normal_form(p("1 + x", R11), basis)) == "x + 1"
    assert str(oracle.normal_form(p("y^2 + x", R11), basis)) == "x"


def test_normal_form_idempotent_and_membership():
    basis = oracle.buchberger(gens(R23, "x^3 - y^2").generators)
    for text in ("x^5", "x^3*y - y^3", "x^4 + x*y^2"):
        r = oracle.normal_form(p(text), basis)
        assert oracle.normal_form(r, basis) == r
        assert oracle.normal_form(p(text) - r, basis).is_zero()


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
    # a non-monomial quotient: Q[x,y]/(x^2 - y, y^2) has dimension 4; with
    # y of weight 2 the ideal is homogeneous, with weight 1 only the
    # reference Buchberger takes it
    for texts in (("x^2 - y", "y^2"), ("y^2", "x^2 - y")):
        assert quotient_dimension(gens(R12, *texts))[0] == 4
        count = oracle.standard_monomial_counter(gens(R11, *texts).generators, R11)
        assert [count(d) for d in range(4)] == [1, 2, 1, 0]


def test_budget_exhaustion_raises():
    # leads x^2 and x*y share x, so the basis is not known before weight 3
    with pytest.raises(BudgetExceeded) as err:
        buchberger(gens(R11, "x^2 + y^2", "x*y"), piece_budget=2)
    assert str(err.value) == "Groebner piece budget 2 exhausted at weight 2"
    assert strings(buchberger(gens(R11, "x^2 + y^2", "x*y"), piece_budget=5).generators) == [
        "x*y", "x^2 + y^2", "y^3"
    ]
    # the reference Buchberger keeps its pair budget, on any ideal
    with pytest.raises(BudgetExceeded, match="pair budget 1 exhausted"):
        oracle.buchberger(gens(R11, "x^2 + y", "x*y + x", "y^2 - x").generators, pair_budget=1)


def test_integral_bases_build_no_fraction(count_fractions):
    cusp_sing = gens(R23, "x^3 - y^2", "3*x^2", "-2*y")
    d4_sing = gens(R11, "x^3 - x*y^2", "3*x^2 - y^2", "-2*x*y")
    built = count_fractions()
    cusp_basis = buchberger(cusp_sing).generators
    assert built[0] == 0
    d4_basis = buchberger(d4_sing).generators
    assert built[0] == 1  # d4's basis holds one non-integer coefficient, -1/3
    assert strings(cusp_basis) == ["y", "x^2"]
    assert strings(d4_basis) == ["x*y", "x^2 - 1/3*y^2", "y^3"]


CORPUS = [
    (("x", "y"), (2, 3), ("x^3 - y^2",)),
    (("x", "y"), (4, 3), ("x^3 + y^4",)),
    (("x", "y"), (1, 1), ("x^2 - y^2",)),
    (("x", "y"), (1, 1), ("x*y",)),
    (("x", "y", "z"), (1, 1, 1), ("x^2 + y^2 - z^2",)),
    (("x", "y"), (1, 1), ("x^3 - x*y^2", "3*x^2 - y^2")),
]


def test_membership_matches_degreewise_linear_oracle():
    # a monomial lies in the ideal iff the reference basis reduces it to
    # zero iff it is a relation of the ideal's graded piece
    for variables, weights, texts in CORPUS:
        s = scene(variables, weights, texts)
        basis = oracle.buchberger(s.ideal.generators)
        ring = s.ring
        for d in range(0, 13):
            piece = o_piece(s, d)
            for m in ring.monomials_of_weight(d):
                candidate = ring.monomial(m)
                assert oracle.normal_form(candidate, basis).is_zero() == piece.is_relation(
                    candidate.terms
                )


def test_buchberger_terminates_on_corpus_within_budget():
    for variables, weights, texts in CORPUS:
        s = scene(variables, weights, texts)
        gb = buchberger(s.ideal, piece_budget=30)
        assert gb.generators


# -- the engine against the reference Buchberger, string for string -------------

def _corpus_ideals(monkeypatch):
    """Every ideal that ``smooth`` and ``milnor`` hand to the engine on the scene corpus."""
    seen = []

    def recording(ideal, *args, **kwargs):
        seen.append(ideal)
        return buchberger(ideal, *args, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", recording)
    monkeypatch.setattr(invariants, "buchberger", recording)
    for name in sorted(os.listdir(SCENES)):
        sc = load_scene(os.path.join(SCENES, name))
        jacobian_smoothness(sc)
        if len(sc.ideal.generators) == 1:
            milnor_tjurina(sc.ideal.generators[0])
    return seen


def test_engine_matches_oracle_on_corpus_ideals(monkeypatch):
    ideals = _corpus_ideals(monkeypatch)
    # 11 singular loci, and the Jacobian and Tjurina ideals of the 10 hypersurfaces
    assert len(ideals) == 31
    for ideal in ideals:
        assert strings(buchberger(ideal).generators) == strings(
            oracle.buchberger(ideal.generators)
        ), ideal


@pytest.mark.parametrize(
    "texts", [("x^2",), ("x*y", "y*z", "x*z"), ("x^2 - y*z", "y^2 - x*z")]
)
def test_engine_matches_oracle_on_monomial_and_binomial_ideals(texts):
    ideal = gens(R111, *texts)
    assert strings(buchberger(ideal).generators) == strings(oracle.buchberger(ideal.generators))


@st.composite
def homogeneous_ideals(draw):
    """Ideals of 1-3 generators of weight 1-6 in 2-3 variables of weight 1-3.

    Weight 0 is left out: a constant generator gives the unit ideal.
    """
    n = draw(st.integers(2, 3))
    ring = WeightedRing(("x", "y", "z")[:n], tuple(draw(st.integers(1, 3)) for _ in range(n)))
    weights = [d for d in range(1, 7) if ring.monomials_of_weight(d)]
    generators = []
    for _ in range(draw(st.integers(1, 3))):
        monos = ring.monomials_of_weight(draw(st.sampled_from(weights)))
        chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True))
        coeffs = st.sampled_from((-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3)))
        generators.append(Polynomial(ring, {m: draw(coeffs) for m in chosen}))
    return Ideal(tuple(generators))


@settings(deadline=None)
@given(homogeneous_ideals())
def test_engine_matches_oracle_on_random_homogeneous_ideals(ideal):
    assert strings(buchberger(ideal).generators) == strings(oracle.buchberger(ideal.generators))
