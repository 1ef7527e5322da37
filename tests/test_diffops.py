import os
from itertools import product

import pytest

from spencerlab.complexes import homology_table
from spencerlab.diffops import filtered_spencer, kashiwara_quotient, pushforward_point
from spencerlab.errors import SceneError
from spencerlab.groebner import buchberger
from spencerlab.rings import AffineScene, Ideal, WeightedRing, parse_polynomial
from spencerlab.scenes import load_scene

R1 = WeightedRing(("x",), (1,))
R2 = WeightedRing(("x", "y"), (1, 1))


# -- filtered Spencer -------------------------------------------------------------


def test_filtered_spencer_line_p2_is_exact():
    fs = filtered_spencer(R1, 2)
    assert [fs.piece(0, d).dim for d in range(4)] == [3, 3, 3, 3]
    t = homology_table(fs, 8)
    assert not t.nonzero()


def test_filtered_spencer_kernel_of_right_multiplication():
    fs = filtered_spencer(R1, 2)
    from spencerlab.linalg import rank_kernel_image

    for d in range(-2, 6):
        _, kernel = rank_kernel_image(fs.differential(1, d))
        assert kernel == []


def test_filtered_spencer_plane_exact_at_low_spots():
    fs = filtered_spencer(R2, 2)
    t = homology_table(fs, 6)
    for (i, d), v in t.entries.items():
        if i <= 1:
            assert v == 0


def test_filtered_spencer_rejects_p0():
    with pytest.raises(SceneError):
        filtered_spencer(R1, 0)


# -- Kashiwara quotient ------------------------------------------------------------


def test_kashiwara_point_in_line():
    ideal = Ideal((parse_polynomial("x", R1),))
    for p in range(0, 5):
        kq = kashiwara_quotient(AffineScene(R1, ideal), p, 4)
        assert kq.total_dimension == p + 1
        weights = sorted(d for d, basis in kq.pieces.items() if basis)
        assert weights == list(range(-p, 1))
        assert kq.to_json()["support_verified"] is True


def test_kashiwara_quotient_keeps_its_scene_and_order():
    sc = AffineScene(R2, Ideal((parse_polynomial("x", R2),)))
    kq = kashiwara_quotient(sc, 2, 3)
    assert kq.scene is sc and kq.p == 2 and kq.to_json()["p"] == 2


def test_kashiwara_p0_is_functions_on_point():
    ideal = Ideal((parse_polynomial("x", R1),))
    kq = kashiwara_quotient(AffineScene(R1, ideal), 0, 4)
    assert kq.total_dimension == 1


def test_kashiwara_line_in_plane_pattern():
    ideal = Ideal((parse_polynomial("x", R2),))
    kq = kashiwara_quotient(AffineScene(R2, ideal), 1, 3)
    # classes y^k, y^k d_x, y^k d_y: weight-d piece has dim 3 for d >= 1
    for d in range(1, 4):
        assert len(kq.pieces[d]) == 3
    assert len(kq.pieces[-1]) == 2  # d_x, d_y
    assert len(kq.pieces[0]) == 3


def test_kashiwara_origin_in_plane():
    # two generators: operators supported at the origin of the plane
    ideal = Ideal((parse_polynomial("x", R2), parse_polynomial("y", R2)))
    for p in (0, 1, 2):
        kq = kashiwara_quotient(AffineScene(R2, ideal), p, 2)
        want = sum(1 for k in range(p + 1) for _ in range(k + 1))
        assert kq.total_dimension == want  # multi-indices |b| <= p


SCENES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scenes")
CORPUS_WITH_IDEAL = [
    name
    for name in sorted(os.listdir(SCENES))
    if name.endswith(".scene") and not load_scene(os.path.join(SCENES, name)).ideal.is_trivial
]


@pytest.mark.parametrize("name", CORPUS_WITH_IDEAL)
def test_kashiwara_dims_match_groebner_standard_monomials(name):
    # independent oracle: F^p D / I·F^p D is the sum over |b| <= p of O_Y
    # shifted by w(b), and dim (O_Y)_e counts the weight-e monomials outside
    # the leading ideal of a Groebner basis
    sc = load_scene(os.path.join(SCENES, name))
    ring = sc.ring
    lms = buchberger(sc.ideal).leading_monomials()

    def standard(e):
        return sum(
            1 for m in ring.monomials_of_weight(e)
            if not any(all(a >= b for a, b in zip(m, lm)) for lm in lms)
        )

    for p in (1, 2, 3):
        orders = [b for b in product(range(p + 1), repeat=ring.nvars) if sum(b) <= p]
        kq = kashiwara_quotient(sc, p, 6)
        assert kq.pieces
        for d, piece in kq.pieces.items():
            want = sum(standard(d + ring.mono_weight(b)) for b in orders)
            assert len(piece) == want, (p, d)


# -- pushforward -------------------------------------------------------------------


def test_pushforward_O(a1, a2):
    assert pushforward_point(0, a1, 6).nonzero() == {(0, 0): 1}
    assert pushforward_point(0, a2, 6).nonzero() == {(0, 0): 1}


def test_pushforward_omega_top_spot(a1):
    t = pushforward_point(1, a1, 6)
    assert all(t.dim(1, d) == 0 for d in range(0, 7))


def test_pushforward_of_top_forms_is_shifted_de_rham():
    # Sp(omega) pairs off against the de Rham complex; the pushforward
    # table is the de Rham table shifted by the volume-form weight.
    from spencerlab.complexes import build_de_rham, homology_table
    from spencerlab.rings import scene as mkscene

    for n in (1, 2, 3):
        s = mkscene([f"x{i+1}" for i in range(n)], [1] * n)
        push = pushforward_point(n, s, 6)
        derham = homology_table(build_de_rham(s), 6)
        shift = n
        for (i, d), v in derham.nonzero().items():
            assert push.dim(i, d + shift) == v
        for (i, d), v in push.nonzero().items():
            assert derham.dim(i, d - shift) == v
