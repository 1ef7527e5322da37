from spencerlab.modules import (
    PresentedModule,
    derivation_module_piece,
    derivation_space,
    free_module,
    module_graded_piece,
    omega_module,
)


def test_omega1_cusp_pieces(cusp):
    om = omega_module(cusp, 1)
    # weight 2: the class of dx only; the relation 3x^2 dx - 2y dy has weight 6
    assert len(module_graded_piece(om, 2)) == 1
    # weight 6: span {x^2 dx, y dy} modulo one relation
    assert len(module_graded_piece(om, 6)) == 1


def test_omega1_line_is_free(a1):
    om = omega_module(a1, 1)
    for d in range(1, 8):
        assert len(module_graded_piece(om, d)) == 1
    assert len(module_graded_piece(om, 0)) == 0  # dx has weight 1


def test_module_piece_independent_of_relation_order(cusp):
    om = omega_module(cusp, 1)
    flipped = PresentedModule(
        om.scene, om.generators, tuple(reversed(om.relations)), name="flip"
    )
    for d in range(0, 13):
        assert len(module_graded_piece(om, d)) == len(module_graded_piece(flipped, d))


def test_derivations_of_line(a1):
    # d/dx has weight -1
    assert len(derivation_module_piece(a1, -1)) == 1
    assert len(derivation_module_piece(a1, -2)) == 0


def test_cusp_derivations_contain_euler(cusp):
    basis = derivation_module_piece(cusp, 0)
    assert len(basis) >= 1
    ring = cusp.ring
    euler = tuple(ring.var(i).scale(ring.weights[i]) for i in range(2))
    coords = derivation_space(cusp, 0).express(euler)
    assert any(c != 0 for c in coords)


def test_cusp_derivations_vanish_far_below(cusp):
    for d in range(-10, -3):
        assert derivation_module_piece(cusp, d) == ()


def test_smooth_derivations_match_free_module(a2):
    ring = a2.ring
    for d in range(-1, 5):
        got = len(derivation_module_piece(a2, d))
        want = sum(len(ring.monomials_of_weight(d + ring.weights[i])) for i in range(2))
        assert got == want


def test_free_module_pieces(a2):
    mod = free_module(a2, [("e", 0), ("f", 2)])
    assert len(module_graded_piece(mod, 2)) == 3 + 1  # monomials of weight 2, plus f
