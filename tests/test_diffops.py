import random

import pytest

from spencerlab.complexes import homology_table
from spencerlab.diffops import (
    WeylAlgebra,
    augmentation,
    compose,
    filtered_spencer,
    kashiwara_quotient,
    pushforward_point,
)
from spencerlab.errors import BudgetExceeded, SceneError
from spencerlab.rings import Ideal, WeightedRing, parse_polynomial

R1 = WeightedRing(("x",), (1,))
R2 = WeightedRing(("x", "y"), (1, 1))


def test_compose_defining_relation():
    alg = WeylAlgebra(R1, 2)
    d = alg.partial(0)
    x = alg.from_polynomial(parse_polynomial("x", R1))
    assert str(compose(d, x)) == "1 + x*d_x"


def test_compose_second_order():
    alg = WeylAlgebra(R1, 2)
    d2 = alg.monomial_op((0,), (2,))
    x = alg.from_polynomial(parse_polynomial("x", R1))
    got = compose(d2, x)
    want = alg.monomial_op((1,), (2,)) + alg.monomial_op((0,), (1,), 2)
    assert got == want


def test_compose_already_normal():
    alg = WeylAlgebra(R1, 2)
    x = alg.from_polynomial(parse_polynomial("x", R1))
    d = alg.partial(0)
    assert str(compose(x, d)) == "x*d_x"


def test_compose_order_budget():
    alg = WeylAlgebra(R1, 2)
    d2 = alg.monomial_op((0,), (2,))
    with pytest.raises(BudgetExceeded):
        compose(d2, alg.partial(0))


def test_compose_associative_on_sample():
    alg = WeylAlgebra(R2, 6)
    rng = random.Random(7)
    basis = []
    for _ in range(24):
        a = (rng.randrange(3), rng.randrange(3))
        b = (rng.randrange(2), rng.randrange(2))
        basis.append(alg.monomial_op(a, b, rng.randrange(1, 4)))
    triples = 0
    while triples < 100:
        A, B, C = rng.choice(basis), rng.choice(basis), rng.choice(basis)
        if A.order() + B.order() + C.order() > alg.order_bound:
            continue
        assert compose(compose(A, B), C) == compose(A, compose(B, C))
        triples += 1


def test_augmentation_examples():
    alg = WeylAlgebra(R1, 3)
    A = alg.monomial_op((2,), (0,)) + alg.monomial_op((1,), (1,))
    assert str(augmentation(A)) == "x^2"
    assert augmentation(alg.monomial_op((0,), (3,))).is_zero()
    B = (
        alg.from_polynomial(parse_polynomial("3", R1))
        + alg.monomial_op((0,), (1,), 2)
        + alg.monomial_op((1,), (2,))
    )
    assert str(augmentation(B)) == "3"


def test_augmentation_is_module_map_over_order_zero():
    alg = WeylAlgebra(R1, 3)
    rng = random.Random(3)
    for _ in range(30):
        f = parse_polynomial(f"{rng.randrange(1,4)}*x^{rng.randrange(3)}", R1)
        A = alg.from_polynomial(f)
        B = alg.monomial_op((rng.randrange(3),), (rng.randrange(3),), rng.randrange(1, 3))
        assert augmentation(compose(A, B)) == f * augmentation(B)


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
        kq = kashiwara_quotient(WeylAlgebra(R1, p), ideal, 4)
        assert kq.total_dimension == p + 1
        weights = sorted(d for d, basis in kq.pieces.items() if basis)
        assert weights == list(range(-p, 1))
        assert kq.support_verified


def test_kashiwara_p0_is_functions_on_point():
    ideal = Ideal((parse_polynomial("x", R1),))
    kq = kashiwara_quotient(WeylAlgebra(R1, 0), ideal, 4)
    assert kq.total_dimension == 1


def test_kashiwara_line_in_plane_pattern():
    ideal = Ideal((parse_polynomial("x", R2),))
    kq = kashiwara_quotient(WeylAlgebra(R2, 1), ideal, 3)
    # classes y^k, y^k d_x, y^k d_y: weight-d piece has dim 3 for d >= 1
    for d in range(1, 4):
        assert len(kq.pieces[d]) == 3
    assert len(kq.pieces[-1]) == 2  # d_x, d_y
    assert len(kq.pieces[0]) == 3


def test_kashiwara_origin_in_plane():
    # two generators: operators supported at the origin of the plane
    ideal = Ideal((parse_polynomial("x", R2), parse_polynomial("y", R2)))
    for p in (0, 1, 2):
        kq = kashiwara_quotient(WeylAlgebra(R2, p), ideal, 2)
        want = sum(1 for k in range(p + 1) for _ in range(k + 1))
        assert kq.total_dimension == want  # multi-indices |b| <= p


# -- pushforward -------------------------------------------------------------------


def test_pushforward_O(a1, a2):
    assert pushforward_point("O", a1, 6).nonzero() == {(0, 0): 1}
    assert pushforward_point("O", a2, 6).nonzero() == {(0, 0): 1}


def test_pushforward_omega_top_spot(a1):
    t = pushforward_point("omega_1", a1, 6)
    assert all(t.dim(1, d) == 0 for d in range(0, 7))


def test_pushforward_of_top_forms_is_shifted_de_rham():
    # Sp(omega) pairs off against the de Rham complex; the pushforward
    # table is the de Rham table shifted by the volume-form weight.
    from spencerlab.complexes import build_de_rham, homology_table
    from spencerlab.rings import scene as mkscene

    for n in (1, 2, 3):
        s = mkscene([f"x{i+1}" for i in range(n)], [1] * n)
        push = pushforward_point(f"omega_{n}", s, 6)
        derham = homology_table(build_de_rham(s), 6)
        shift = n
        for (i, d), v in derham.nonzero().items():
            assert push.dim(i, d + shift) == v
        for (i, d), v in push.nonzero().items():
            assert derham.dim(i, d - shift) == v
