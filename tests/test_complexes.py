import pytest

from spencerlab.errors import SceneError
from spencerlab.complexes import (
    build_de_rham,
    build_jet_complex,
    build_koszul,
    build_spencer_of_module,
    homology_table,
)
from spencerlab.homotopy import Derivation
from spencerlab.rings import parse_polynomial, scene


def nonzero(table):
    return table.nonzero()


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


def test_bracket_feeds_spencer_second_sum(a1):
    ddx = Derivation(a1, (a1.ring.one(),))
    xddx = Derivation(a1, (a1.ring.var(0),))
    assert ddx.bracket(xddx).coefficients == ddx.coefficients


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
