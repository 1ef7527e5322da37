import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spencerlab import complexes, linalg
from spencerlab.cli import main
from spencerlab.complexes import (
    build_de_rham,
    build_jet_complex,
    contraction,
    homology_table,
    induced_map,
)
from spencerlab.errors import SceneError
from spencerlab.homotopy import (
    Derivation,
    _form_lie,
    _jet_contraction,
    acyclicity_certificate,
    cartan_check,
    euler_derivation,
    interior_product_matrix,
    jet_contraction_matrix,
    lie_derivative_matrix,
)
from spencerlab.linalg import LinearMap
from spencerlab.modules import derivation_space
from spencerlab.rings import parse_polynomial, scene

SCENES = Path(__file__).resolve().parent.parent / "scenes"


def test_euler_on_cusp(cusp):
    xi = euler_derivation(cusp)
    assert str(xi) == "(2*x)*d_x + (3*y)*d_y"
    f = cusp.ideal.generators[0]
    assert xi.apply(f) == f.scale(6)


def test_euler_on_plane(a2):
    xi = euler_derivation(a2)
    assert [str(c) for c in xi.coefficients] == ["x", "y"]


def test_non_tangent_derivation_rejected(cusp):
    with pytest.raises(SceneError):
        Derivation(cusp, (cusp.ring.one().scale(0), cusp.ring.var(0)))


def test_tangency_accepts_euler_multiples(cusp):
    xi = euler_derivation(cusp)
    Derivation(cusp, tuple(c * cusp.ring.var(0) for c in xi.coefficients))


def test_tangency_names_the_failing_generator(cusp):
    # d/dx sends x^3 - y^2 to 3x^2, which is not in the ideal
    with pytest.raises(SceneError, match=r"not tangent to the ideal: fails on x\^3 - y\^2$"):
        Derivation(cusp, (cusp.ring.one(), cusp.ring.zero()))


def test_tangency_accepts_a_non_euler_derivation(cusp):
    (coeffs,) = derivation_space(cusp, 1).basis
    xi = Derivation(cusp, coeffs)
    assert xi.weight == 1 and not xi.is_euler()


# -- Lie derivative ------------------------------------------------------------


def test_lie_derivative_is_weight_multiplication_on_cusp(cusp):
    xi = euler_derivation(cusp)
    dr = build_de_rham(cusp)
    L = lie_derivative_matrix(xi, dr, 1, 2)
    assert L.shape == (1, 1) and L.columns == ({0: 2},)  # L(dx) = 2 dx
    for d in (5, 7, 8):
        L = lie_derivative_matrix(xi, dr, 2, d)
        assert L == LinearMap.identity(L.source_basis).scale(d)


def test_lie_derivative_weight_zero_piece(cusp):
    xi = euler_derivation(cusp)
    dr = build_de_rham(cusp)
    L = lie_derivative_matrix(xi, dr, 0, 0)
    assert L.shape == (1, 1) and L.is_zero()


# -- interior product ------------------------------------------------------------


def test_interior_product_of_dx(cusp):
    xi = euler_derivation(cusp)
    dr = build_de_rham(cusp)
    iota = interior_product_matrix(xi, dr, 1, 2)
    # iota(dx) = 2x, the weight-2 monomial
    assert iota.shape == (1, 1) and iota.columns == ({0: 2},)


def test_interior_product_of_top_form(cusp):
    xi = euler_derivation(cusp)
    dr = build_de_rham(cusp)
    iota = interior_product_matrix(xi, dr, 2, 5)
    # iota(dx ∧ dy) = 2x dy - 3y dx
    out = {iota.target_basis[k]: c for k, c in iota.columns[0].items()}
    assert out[((1, 0), (1,))] == 2
    assert out[((0, 1), (0,))] == -3


def test_interior_product_squares_to_zero(cusp):
    xi = euler_derivation(cusp)
    dr = build_de_rham(cusp)
    for d in range(5, 9):
        first = interior_product_matrix(xi, dr, 2, d)
        second = interior_product_matrix(xi, dr, 1, d)
        assert second.compose(first).is_zero()


def test_interior_product_with_weighted_derivation(a1):
    # xi = x^2 d/dx has weight 1; contraction shifts the target weight
    xi = Derivation(a1, (parse_polynomial("x^2", a1.ring),))
    dr = build_de_rham(a1)
    iota = interior_product_matrix(xi, dr, 1, 3)
    assert iota.target_basis == (((4,), ()),)  # x^2 * x^2 at weight 4
    assert iota.shape == (1, 1) and iota.columns == ({0: 1},)
    report = cartan_check(xi, dr, 6)
    assert report.passed


def test_jet_lie_derivative_general_tangent_field(a1):
    # a non-Euler tangent field acts on jet pieces through the diagonal
    # formula; the quotient descent is machine-checked inside induced()
    from spencerlab.complexes import build_jet_complex

    xi = Derivation(a1, (parse_polynomial("x^2", a1.ring),))
    j1 = build_jet_complex(a1, 1)
    L = lie_derivative_matrix(xi, j1, 0, 2)
    assert L.source_basis == j1.piece(0, 2).basis
    assert L.target_basis == j1.piece(0, 3).basis  # shifted by weight(xi) = 1


def test_interior_product_refuses_degree_zero(cusp):
    xi = euler_derivation(cusp)
    dr = build_de_rham(cusp)
    with pytest.raises(SceneError):
        interior_product_matrix(xi, dr, 0, 4)


def _inversion_sign(seq) -> int:
    """Sign of the permutation sorting ``seq``, by counting inversions."""
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


@given(st.data())
def test_form_lie_sign_matches_inversion_count(data):
    # xi = x_k d_s has d(xi_s) = dx_k, so L_xi(dx_S) replaces dx_s at its
    # slot t by dx_k and sorts the slots: sign of that permutation, or 0
    # when dx_k already occurs elsewhere in S
    n = data.draw(st.integers(1, 5))
    weights = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    S = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
    t = data.draw(st.integers(0, len(S) - 1))
    k = data.draw(st.integers(0, n - 1))
    s = scene([f"x{j}" for j in range(n)], weights)
    coeffs = [s.ring.zero()] * n
    coeffs[S[t]] = s.ring.var(k)
    one = (0,) * n
    slots = list(S)
    slots[t] = k
    expected = {}
    if len(set(slots)) == len(slots):
        expected[(one, tuple(sorted(slots)))] = _inversion_sign(slots)
    assert _form_lie(Derivation(s, tuple(coeffs)), (one, S)) == expected


# -- Cartan and certificates --------------------------------------------------------


@pytest.mark.parametrize("r", [0, 1, 2])  # jet order 0 is the de Rham complex
def test_each_operator_is_built_once_per_call(monkeypatch, cusp, a2, r):
    built = []  # holding the pieces keeps every id unique
    induced_map = complexes.induced_map

    def spy(src, tgt, fn, error):
        built.append((src, tgt, error))
        return induced_map(src, tgt, fn, error)

    monkeypatch.setattr(complexes, "induced_map", spy)
    for s in (cusp, a2):
        cx = build_jet_complex(s, r)
        xi = euler_derivation(s)
        for run in (cartan_check, acyclicity_certificate):
            built.clear()
            run(xi, cx, 8)
            assert built and len(built) == len(set(built)), run.__name__


def test_euler_certify_induces_each_interior_product_once(monkeypatch, capsys):
    # cartan_check and acyclicity_certificate read the same interior products
    built = []
    induced_map = complexes.induced_map

    def spy(src, tgt, fn, error):
        if "interior product" in error:  # names the complex and (i, d)
            built.append(error)
        return induced_map(src, tgt, fn, error)

    monkeypatch.setattr(complexes, "induced_map", spy)
    argv = ["euler-certify", str(SCENES / "quadric_cone.scene"),
            "--complex", "derham", "--degree-bound", "9"]
    assert main(argv) == 0
    assert '"passed": true' in capsys.readouterr().out
    assert len(built) == len(set(built)) == 18


@pytest.mark.parametrize("iota_first", [True, False])
def test_operators_between_the_same_pieces_are_memoized_apart(cusp, iota_first):
    # for a weight-zero field the jet iota_xi and the jet contraction both map
    # the piece (1, d) to the piece (0, d)
    cx, xi, d = build_jet_complex(cusp, 1), euler_derivation(cusp), 6
    src, tgt = cx.piece(1, d), cx.piece(0, d)
    fresh = {
        "iota": induced_map(src, tgt, lambda lbl: contraction(xi.coefficients, lbl), "iota"),
        "jet": induced_map(src, tgt, _jet_contraction, "jet contraction"),
    }
    assert fresh["iota"] != fresh["jet"]
    calls = {
        "iota": lambda: interior_product_matrix(xi, cx, 1, d),
        "jet": lambda: jet_contraction_matrix(cx, 1, d),
    }
    for op in ("iota", "jet") if iota_first else ("jet", "iota"):
        assert calls[op]() == fresh[op]
    for op in calls:
        assert calls[op]() == fresh[op]


def test_siblings_with_equal_pieces_induce_an_interior_product_once(monkeypatch, cusp):
    # below weight 12 neither (f^2) nor (f^3) has a relation, so the two stages
    # hold the same pieces there
    f = cusp.ideal.generators[0]
    cx = build_de_rham(cusp.ambient())
    stages = [cx.with_ideal((f ** r,), f"stage {r}") for r in (2, 3)]
    assert stages[0].piece(1, 8) is stages[1].piece(1, 8)
    built = []
    induced_map = complexes.induced_map

    def spy(*args):
        built.append(args)
        return induced_map(*args)

    monkeypatch.setattr(complexes, "induced_map", spy)
    xi = euler_derivation(cusp)
    first, second = (interior_product_matrix(xi, stage, 1, 8) for stage in stages)
    assert first is second and len(built) == 1


@pytest.mark.parametrize("r", [0, 1, 2])  # jet order 0 is the de Rham complex
def test_each_cartan_operator_is_eliminated_once(monkeypatch, cusp, a2, r):
    seen: dict = {}  # id -> map; holding the maps keeps every id unique
    repeats = []
    rank_kernel_image, inverse = linalg.rank_kernel_image, LinearMap.inverse

    def eliminated(m):
        if id(m) in seen:
            repeats.append(m.shape)
        seen[id(m)] = m

    def spy_rank(m):
        eliminated(m)
        return rank_kernel_image(m)

    def spy_inverse(m):
        eliminated(m)
        return inverse(m)

    # modules import the function by name, so patch every holder
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "spencerlab" and \
                getattr(module, "rank_kernel_image", None) is rank_kernel_image:
            monkeypatch.setattr(module, "rank_kernel_image", spy_rank)
    monkeypatch.setattr(LinearMap, "inverse", spy_inverse)
    for s in (cusp, a2):
        cx = build_jet_complex(s, r)
        seen.clear()
        acyclicity_certificate(euler_derivation(s), cx, 8)
        assert seen and not repeats, (s, repeats)


def test_cartan_plane(a2):
    xi = euler_derivation(a2)
    report = cartan_check(xi, build_de_rham(a2), 8)
    assert report.passed and report.checked


def test_cartan_cusp_and_e6(cusp, e6):
    for s in (cusp, e6):
        xi = euler_derivation(s)
        assert cartan_check(xi, build_de_rham(s), 12).passed


def test_cartan_zero_derivation(a2):
    zero = Derivation(a2, (a2.ring.zero(), a2.ring.zero()))
    assert cartan_check(zero, build_de_rham(a2), 4).passed


def test_cartan_jet_complex(cusp):
    xi = euler_derivation(cusp)
    assert cartan_check(xi, build_jet_complex(cusp, 1), 12).passed


def test_euler_operators_build_no_fraction(count_fractions):
    quadric_cone = scene(["x", "y", "z"], [1, 1, 1], ["x^2 + y^2 - z^2"])
    xi = euler_derivation(quadric_cone)
    cx = build_de_rham(quadric_cone)
    cells = [(i, d) for d in range(10) for i in cx.indices]
    for i, d in cells:
        cx.piece(i, d)
    built = count_fractions()
    for i, d in cells:
        cx.differential(i, d)
        lie_derivative_matrix(xi, cx, i, d)
        if i >= 1:
            interior_product_matrix(xi, cx, i, d)
    assert built == [0]


def test_certificate_de_rham_cusp_and_e6(cusp, e6):
    for s in (cusp, e6):
        xi = euler_derivation(s)
        cx = build_de_rham(s)
        cert = acyclicity_certificate(xi, cx, 12)
        assert cert.valid
        assert cert.form_degrees() == (1, 2)
        table = homology_table(cx, 12)
        for (i, d) in cert.certified:
            assert table.dim(i, d) == 0


def test_certificate_jet_r1(cusp, e6):
    for s in (cusp, e6):
        xi = euler_derivation(s)
        cert = acyclicity_certificate(xi, build_jet_complex(s, 1), 12)
        assert cert.valid
        assert 1 in cert.form_degrees()


def test_certificate_jet_r2_smooth_vs_singular(a2, cusp):
    cert = acyclicity_certificate(
        euler_derivation(a2), build_jet_complex(a2, 2), 8
    )
    assert cert.valid
    cert = acyclicity_certificate(
        euler_derivation(cusp), build_jet_complex(cusp, 2), 8
    )
    assert not cert.valid  # the jet contraction does not descend at order 2
    assert all("not well defined" in reason for _pos, reason in cert.refused)


def test_certificate_weight_zero_nonzero_piece_refused(a2):
    # Koszul-style trap: a de Rham piece with weight 0 in positive form
    # degree can only come from weight-zero variables, which scenes forbid;
    # fabricate the refusal through the zero derivation instead.
    zero = Derivation(a2, (a2.ring.zero(), a2.ring.zero()))
    cert = acyclicity_certificate(zero, build_de_rham(a2), 4)
    assert not cert.valid
    # L = 0, so every nonzero piece is refused for a singular L and nothing else
    assert cert.refused
    for _pos, reason in cert.refused:
        assert reason == "L singular" or reason.startswith("L singular at form degree ")


def test_certificate_with_general_weight_zero_derivation(a2):
    # not the Euler field: bijectivity must come from the rank computation
    xi = Derivation(a2, (a2.ring.var(0), a2.ring.var(1).scale(2)))
    cx = build_de_rham(a2)
    assert cartan_check(xi, cx, 6).passed
    cert = acyclicity_certificate(xi, cx, 6)
    assert cert.valid


def test_lie_derivative_commutes_with_differential(cusp):
    xi = euler_derivation(cusp)
    dr = build_de_rham(cusp)
    for d in range(0, 9):
        for i in (0, 1):
            left = lie_derivative_matrix(xi, dr, i + 1, d).compose(dr.differential(i, d))
            right = dr.differential(i, d).compose(lie_derivative_matrix(xi, dr, i, d))
            assert left == right


def test_certificates_hold_across_every_corpus_cone():
    # every weighted-homogeneous scene is a cone, so the Euler homotopy
    # applies regardless of how bad the singularity is (even non-isolated)
    import os

    from spencerlab.scenes import load_scene

    scenes_dir = os.path.join(os.path.dirname(__file__), "..", "scenes")
    for name in ("cusp", "e6", "e8", "node", "xy", "d4", "quadric_cone",
                 "whitney", "hyperplane"):
        s = load_scene(os.path.join(scenes_dir, f"{name}.scene"))
        bound = 8 if s.ring.nvars >= 3 else 10
        xi = euler_derivation(s)
        cx = build_de_rham(s)
        assert cartan_check(xi, cx, bound).passed, name
        cert = acyclicity_certificate(xi, cx, bound)
        assert cert.valid, (name, cert.refused)
        table = homology_table(cx, bound)
        assert all(v == 0 for (i, d), v in table.entries.items() if i >= 1), name
