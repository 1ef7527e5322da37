import os
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spencerlab import linalg
from spencerlab.errors import InternalInvariantError, NotWellDefinedError, SceneError
from spencerlab.complexes import (
    GradedComplex,
    build_de_rham,
    build_jet_complex,
    build_koszul,
    build_spencer_of_module,
    homology_table,
    induced_map,
)
from spencerlab.completion import completed_complex
from spencerlab.diffops import filtered_spencer
from spencerlab.linalg import GradedPiece, LinearMap
from spencerlab.modules import free_module, module_as_complex
from spencerlab.rings import AffineScene, Ideal, mono_mul, parse_polynomial, scene
from spencerlab.scenes import load_scene


def nonzero(table):
    return table.nonzero()


def test_direction_must_be_plus_or_minus_one():
    with pytest.raises(InternalInvariantError, match="direction must be"):
        GradedComplex(
            name="c", kind="c", direction=0, indices=(0,),
            ambient_fn=lambda i, d: (), diff_fn=lambda i, label: {},
        )


# -- Koszul ---------------------------------------------------------------------


def test_koszul_regular_sequence(a2):
    kz = build_koszul(a2, [a2.ring.var(0), a2.ring.var(1)])
    t = homology_table(kz, 8)
    assert nonzero(t) == {(0, 0): 1}


def test_koszul_zero_element(a1):
    kz = build_koszul(a1, [a1.ring.zero()])
    t = homology_table(kz, 4)
    for d in range(0, 5):
        assert t.dim(0, d) == 1 and t.dim(1, d) == 1


def test_koszul_non_regular(a2):
    kz = build_koszul(a2, [a2.ring.var(0), a2.ring.var(0)])
    t = homology_table(kz, 4)
    assert any(t.dim(1, d) > 0 for d in range(5))


def test_koszul_rejects_inhomogeneous(cusp):
    with pytest.raises(SceneError):
        build_koszul(cusp, [parse_polynomial("x + y", cusp.ring)])


def test_koszul_full_variables_acyclic_over_a3(a3):
    kz = build_koszul(a3, [a3.ring.var(i) for i in range(3)])
    t = homology_table(kz, 6)
    assert nonzero(t) == {(0, 0): 1}


# -- de Rham --------------------------------------------------------------------


def test_de_rham_line(a1):
    t = homology_table(build_de_rham(a1), 8)
    assert nonzero(t) == {(0, 0): 1}


def test_de_rham_plane(a2):
    t = homology_table(build_de_rham(a2), 8)
    assert nonzero(t) == {(0, 0): 1}


def test_de_rham_cusp_component_dims(cusp):
    dr = build_de_rham(cusp)
    assert dr.piece(1, 2).dim == 1  # class of dx
    assert dr.piece(2, 5).dim == 1  # class of dx ∧ dy


def test_de_rham_cusp_homology(cusp):
    t = homology_table(build_de_rham(cusp), 12)
    assert nonzero(t) == {(0, 0): 1}


# -- jets -----------------------------------------------------------------------


def test_jet_r0_equals_de_rham(cusp):
    tj = homology_table(build_jet_complex(cusp, 0), 10)
    td = homology_table(build_de_rham(cusp), 10)
    assert tj.nonzero() == td.nonzero()


def test_jet_first_order_dims_on_line(a1):
    j1 = build_jet_complex(a1, 1)
    assert j1.piece(0, 0).dim == 1
    for d in range(1, 6):
        assert j1.piece(0, d).dim == 2


def test_jet_cusp_positive_degrees_vanish(cusp):
    t = homology_table(build_jet_complex(cusp, 1), 12)
    assert all(v == 0 for (i, d), v in t.entries.items() if i >= 1)


def test_jet_r2_well_defined_on_cusp(cusp):
    t = homology_table(build_jet_complex(cusp, 2), 10)
    assert all(v == 0 for (i, d), v in t.entries.items() if i >= 1)


def test_jet_rejects_unsupported_order(cusp):
    with pytest.raises(SceneError):
        build_jet_complex(cusp, 3)


# -- Spencer -------------------------------------------------------------------


def test_spencer_of_O_on_line(a1):
    cx = build_spencer_of_module(a1, 0)
    t = homology_table(cx, 6)
    assert nonzero(t) == {(1, -1): 1}


def test_spencer_of_O_on_plane_positive_indices(a2):
    cx = build_spencer_of_module(a2, 0)
    t = homology_table(cx, 6)
    assert nonzero(t) == {(2, -2): 1}


def test_spencer_refuses_singular_scene(cusp):
    with pytest.raises(SceneError):
        build_spencer_of_module(cusp, 0)


def test_spencer_refuses_form_degree_above_n(a2):
    with pytest.raises(SceneError, match=r"^no omega_3 on 2 variables$"):
        build_spencer_of_module(a2, 3)


# -- structural ------------------------------------------------------------------


def test_dd_zero_and_euler_characteristic_across_builders(cusp, e6, a2):
    complexes = [
        build_de_rham(cusp),
        build_de_rham(e6),
        build_jet_complex(cusp, 1),
        build_jet_complex(e6, 2),
        build_koszul(a2, [a2.ring.var(0), a2.ring.var(1)]),
    ]
    for cx in complexes:
        # homology_table itself asserts d∘d = 0 and the Euler identity
        homology_table(cx, 8)


def test_tables_invariant_under_variable_relabeling():
    s1 = scene(["x", "y"], [2, 3], ["x^3 - y^2"])
    s2 = scene(["u", "v"], [3, 2], ["v^3 - u^2"])
    t1 = homology_table(build_de_rham(s1), 10)
    t2 = homology_table(build_de_rham(s2), 10)
    assert t1.nonzero() == t2.nonzero()


# -- induced maps between relation-free pieces -----------------------------------

def _constructor_oracle(src, tgt, fn):
    """The induced map between relation-free pieces through the public constructor.

    The constructor takes integer columns over one denominator, so the images'
    zeros are dropped and their denominators cleared here.
    """
    index = tgt.ambient.index
    images = [{index(t): Fraction(c) for t, c in fn(lbl).items() if c} for lbl in src.basis]
    den = lcm(*(c.denominator for col in images for c in col.values()))
    cols = [{i: int(c * den) for i, c in col.items()} for col in images]
    return LinearMap(src.basis, tgt.basis, cols, den)


def _cancelling(lbl):
    # the two terms on "u" cancel, and "c" has no image left at all
    out = {"u": 2, "v": -3} if lbl == "a" else {"w": 4}
    out["u"] = out.get("u", 0) - 2
    return {} if lbl == "c" else out


@pytest.mark.parametrize(
    "fn",
    [
        _cancelling,
        lambda lbl: {"u": 3, "w": -6} if lbl != "b" else {"v": 9},
        # a Fraction in one image is cleared into the common denominator
        lambda lbl: {"u": 1, "v": Fraction(3, 4) if lbl == "c" else 2},
        lambda lbl: {"w": Fraction(-2, 3), "u": 0},
    ],
)
def test_relation_free_induced_map_matches_the_constructor(fn):
    src, tgt = GradedPiece(("a", "b", "c"), []), GradedPiece(("u", "v", "w"), [])
    got = induced_map(src, tgt, fn, "unused")
    assert got == _constructor_oracle(src, tgt, fn)
    assert all(all(col.values()) for col in got.int_columns)


def test_relation_free_complexes_match_the_constructor(a3):
    half = [parse_polynomial(t, a3.ring) for t in ("1/2*x^2", "y^2 - z^2", "x*y")]
    for cx in (filtered_spencer(a3.ring, 2), build_koszul(a3, half)):
        for d in range(cx.weight_floor, 4):
            for i in cx.indices:
                j = i + cx.direction
                if j not in cx.indices:
                    continue
                src, tgt = cx.piece(i, d), cx.piece(j, d)
                fn = lambda lbl: cx.diff_fn(i, lbl)
                assert induced_map(src, tgt, fn, "unused") == _constructor_oracle(src, tgt, fn)


def test_relation_free_induced_map_refuses_a_label_outside_the_target():
    src, tgt = GradedPiece(("a", "b"), []), GradedPiece(("u",), [])
    with pytest.raises(InternalInvariantError, match="label 'z' outside ambient basis"):
        induced_map(src, tgt, lambda lbl: {"u": 1, "z": 2}, "unused")


# -- the well-definedness check runs on reduced images ---------------------------

_COEFFS = st.sampled_from([0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)])


def _image(op, row):
    """The ambient image of the source vector ``row`` under the operator table ``op``."""
    out: dict = {}
    for lbl, c in row.items():
        for t, v in op[lbl].items():
            out[t] = out.get(t, 0) + c * v
    return out


@st.composite
def _quotient_maps(draw):
    """Two quotient pieces and an operator table.

    The target relations include the images of a drawn number of the source
    relations, so the operator descends when that number is all of them and
    may fail to when the target also has relations of its own.
    """
    src_amb = tuple(f"a{j}" for j in range(draw(st.integers(1, 4))))
    tgt_amb = tuple(f"u{j}" for j in range(draw(st.integers(1, 6))))

    def vectors(labels):
        return st.lists(_COEFFS, min_size=len(labels), max_size=len(labels)).map(
            lambda cs: dict(zip(labels, cs))
        )

    src_rels = draw(st.lists(vectors(src_amb), max_size=3))
    op = {lbl: draw(vectors(tgt_amb)) for lbl in src_amb}
    tgt_rels = draw(st.lists(vectors(tgt_amb), max_size=2))
    tgt_rels += [_image(op, row) for row in src_rels[: draw(st.integers(0, len(src_rels)))]]
    return GradedPiece(src_amb, src_rels), GradedPiece(tgt_amb, tgt_rels), op


# the relation row 2·a0 − a1 maps to 0, through images over denominators 2 and 1
@example((
    GradedPiece(("a0", "a1"), [{"a0": 2, "a1": -1}]),
    GradedPiece(("u0",), []),
    {"a0": {"u0": Fraction(1, 2)}, "a1": {"u0": 1}},
))
@given(_quotient_maps())
def test_induced_map_matches_the_ambient_image_oracle(case):
    src, tgt, op = case
    if any(not tgt.is_relation(_image(op, row)) for row in src.relation_rows()):
        with pytest.raises(NotWellDefinedError, match="drawn"):
            induced_map(src, tgt, op.__getitem__, "drawn")
        return
    # each basis label's normal form, over the lcm of their denominators
    pairs = [tgt.coords(op[b]) for b in src.basis]
    den = lcm(*(d for _coords, d in pairs))
    cols = [{k: v * (den // d) for k, v in coords.items()} for coords, d in pairs]
    assert induced_map(src, tgt, op.__getitem__, "unused") == LinearMap(src.basis, tgt.basis, cols, den)


@pytest.mark.parametrize("coeff", [1, Fraction(3, 2)])
def test_a_pivot_image_outside_the_target_raises(coeff):
    # "a" is the pivot of the one relation row; "b" is the basis label
    src, tgt = GradedPiece(("a", "b"), [{"a": 2}]), GradedPiece(("u",), [])
    images = {"a": {"z": coeff}, "b": {"u": 1}}
    with pytest.raises(InternalInvariantError, match="label 'z' outside ambient basis"):
        induced_map(src, tgt, images.__getitem__, "unused")


def test_relation_free_differentials_skip_the_quotient_plumbing(monkeypatch, a3):
    calls = []
    for name in ("_integer_row", "_eliminate"):
        spied = getattr(linalg, name)
        monkeypatch.setattr(
            linalg, name, lambda *args, n=name, f=spied: calls.append(n) or f(*args)
        )
    fs = filtered_spencer(a3.ring, 2)
    assert homology_table(fs, 3).nonzero() == {}
    assert calls == []
    assert any(not m.is_zero() for m in fs._maps.values())


# -- the closure rule: commutator rows ------------------------------------------

SCENES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scenes")
CORPUS = sorted(name for name in os.listdir(SCENES) if name.endswith(".scene"))


def _de_rham_oracle_rows(sc, i, d):
    """I·Omega^i plus dg ∧ x^m dx_T = sum_j ∂_j g · x^m dx_j ∧ dx_T, written out."""
    ring = sc.ring
    n = ring.nvars
    rows = []
    for g in sc.ideal.generators:
        e = g.weighted_degree()
        for S in combinations(range(n), i):
            for m in ring.monomials_of_weight(d - e - sum(ring.weights[j] for j in S)):
                rows.append({(mono_mul(m, mg), S): c for mg, c in g.terms.items()})
        if i == 0:
            continue
        for T in combinations(range(n), i - 1):
            for m in ring.monomials_of_weight(d - e - sum(ring.weights[j] for j in T)):
                row = {}
                for j in range(n):
                    if j in T:
                        continue
                    sign = (-1) ** sum(1 for t in T if t < j)
                    S = tuple(sorted(T + (j,)))
                    for mg, c in g.partial_derivative(j).terms.items():
                        row[mono_mul(m, mg), S] = sign * c
                rows.append(row)
    return rows


@pytest.mark.parametrize("name", CORPUS)
def test_de_rham_relations_are_ideal_multiples_and_dg_wedges(name):
    sc = load_scene(os.path.join(SCENES, name))
    cx = build_de_rham(sc)
    for i in cx.indices:
        for d in range(0, 9):
            got = cx.piece(i, d)
            want = GradedPiece(got.ambient, _de_rham_oracle_rows(sc, i, d))
            assert got.basis == want.basis, (i, d)
            assert list(got.relation_rows()) == list(want.relation_rows()), (i, d)


def test_dropping_the_commutator_rows_breaks_de_rham(monkeypatch, cusp):
    monkeypatch.setattr(GradedComplex, "_commutator_rows", lambda self, i, d: [])
    with pytest.raises(InternalInvariantError, match="not well defined on the quotient"):
        homology_table(build_de_rham(cusp), 8)
    ambient = AffineScene(cusp.ring, Ideal(()))
    tower = completed_complex(build_de_rham(ambient), cusp.ideal, 2)
    with pytest.raises(InternalInvariantError, match="not well defined on the quotient"):
        homology_table(tower.stage(2), 12)


def test_o_linear_differentials_cache_only_empty_commutators(cusp):
    ambient = AffineScene(cusp.ring, Ideal(()))
    koszul = build_koszul(cusp, [cusp.ring.var(0), cusp.ring.var(1)])
    spencer = filtered_spencer(cusp.ring, 1)
    module = module_as_complex(free_module(cusp, (("e", 0), ("f", 2))))
    derham = build_de_rham(ambient)
    homology_table(koszul, 8)
    homology_table(module, 8)
    for cx in (spencer, derham):
        tower = completed_complex(cx, cusp.ideal, 2)
        for r in (1, 2):
            homology_table(tower.stage(r), 8)
            # the cache is keyed by generator, so the stages share it
            assert tower.stage(r)._commutators is cx._commutators
    for cx in (koszul, spencer):
        assert cx._commutators and not any(cx._commutators.values()), cx.name
    # a module sits in index 0 alone, so no commutator is ever probed
    assert module._commutators == {}
    assert any(derham._commutators.values())


def test_dd_checks_build_no_fraction(count_fractions, a3):
    fs = filtered_spencer(a3.ring, 2)
    pairs = [
        (i, d) for d in range(fs.weight_floor, 4) for i in fs.indices
        if i + fs.direction in fs.indices
    ]
    for i, d in pairs:
        fs.differential(i, d)
        fs.differential(i + fs.direction, d)
    built = count_fractions()
    for i, d in pairs:
        fs.check_dd_zero(i, d)
    assert built == [0]


def test_induced_koszul_differentials_build_no_fraction(count_fractions, a3):
    elements = [
        parse_polynomial(t, a3.ring) for t in ("x^2 + 2*y^2", "y^2 + 3*z^2", "z^2 + 5*x^2")
    ]
    kz = build_koszul(a3, elements)
    cells = [(i, d) for d in range(11) for i in kz.indices]
    for i, d in cells:
        kz.piece(i, d)
    built = count_fractions()
    for i, d in cells:
        kz.differential(i, d)
    assert built == [0]
    assert any(not kz.differential(i, d).is_zero() for i, d in cells)


SCENES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scenes")


def _corpus_complexes(sc):
    """One complex of each kind on a corpus scene."""
    yield build_de_rham(sc)
    yield build_jet_complex(sc, 1)
    yield build_jet_complex(sc, 2)
    yield filtered_spencer(sc.ring, 2)
    if sc.ideal.is_trivial:
        yield build_spencer_of_module(sc, 0)
        yield build_spencer_of_module(sc, 1)
    else:
        yield build_koszul(AffineScene(sc.ring, Ideal(())), sc.ideal.generators)


def test_corpus_differentials_store_only_ints():
    maps = 0
    for name in sorted(os.listdir(SCENES)):
        if not name.endswith(".scene"):
            continue
        for cx in _corpus_complexes(load_scene(os.path.join(SCENES, name))):
            for d in range(cx.weight_floor, 5):
                for i in cx.indices:
                    m = cx.differential(i, d)
                    entries = [v for col in m.int_columns for v in col.values()]
                    assert type(m.den) is int and m.den >= 1, (name, cx.name, i, d)
                    assert all(type(v) is int for v in entries), (name, cx.name, i, d)
                    assert gcd(m.den, *entries) == 1, (name, cx.name, i, d)
                    maps += bool(entries)
    assert maps > 500
