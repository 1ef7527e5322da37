from fractions import Fraction as F

from spencerlab.complexes import build_de_rham
from spencerlab.linalg import _integer_row
from spencerlab.modules import (
    PresentedModule,
    _stacked_coords,
    derivation_space,
    free_module,
    o_piece,
)
from spencerlab.rings import scene


def test_omega1_cusp_pieces(cusp):
    om = build_de_rham(cusp)
    # weight 2: the class of dx only; the relation 3x^2 dx - 2y dy has weight 6
    assert len(om.piece(1, 2).basis) == 1
    # weight 6: span {x^2 dx, y dy} modulo one relation
    assert len(om.piece(1, 6).basis) == 1


def test_omega1_line_is_free(a1):
    om = build_de_rham(a1)
    for d in range(1, 8):
        assert len(om.piece(1, d).basis) == 1
    assert len(om.piece(1, 0).basis) == 0  # dx has weight 1


def test_module_piece_independent_of_relation_order(cusp, omega1_module):
    om = omega1_module(cusp)
    flipped = PresentedModule(
        om.scene, om.generators, tuple(reversed(om.relations)), name="flip"
    )
    for d in range(0, 13):
        assert len(om.piece(d).basis) == len(flipped.piece(d).basis)


def test_derivations_of_line(a1):
    # d/dx has weight -1
    assert len(derivation_space(a1, -1).basis) == 1
    assert len(derivation_space(a1, -2).basis) == 0


def test_cusp_derivations_contain_euler(cusp):
    (basis,) = derivation_space(cusp, 0).basis
    ring = cusp.ring
    euler = tuple(ring.var(i).scale(ring.weights[i]) for i in range(2))
    # the one weight-0 derivation is a nonzero multiple of the Euler field:
    # the 2x2 minor of the two coefficient pairs vanishes
    assert any(not p.is_zero() for p in basis)
    assert basis[0] * euler[1] == basis[1] * euler[0]


def test_cusp_derivations_vanish_far_below(cusp):
    for d in range(-10, -3):
        assert derivation_space(cusp, d).basis == ()


def test_smooth_derivations_match_free_module(a2):
    ring = a2.ring
    for d in range(-1, 5):
        got = len(derivation_space(a2, d).basis)
        want = sum(len(ring.monomials_of_weight(d + ring.weights[i])) for i in range(2))
        assert got == want


def test_free_module_pieces(a2):
    mod = free_module(a2, [("e", 0), ("f", 2)])
    assert len(mod.piece(2).basis) == 3 + 1  # monomials of weight 2, plus f


def test_stacked_coords_build_no_fraction(count_fractions):
    # the tangency columns of derivation_space at weight 2 on a cone with two
    # equations, whose pieces reduce with non-unit leads
    sc = scene(["x", "y", "z"], [1, 1, 1], ["x^2 + 3*y^2 - z^2", "x*y - 2*z^2"])
    gens = sc.ideal.generators
    pieces = [o_piece(sc, 2 + g.weighted_degree()) for g in gens]
    polys = [
        [g.partial_derivative(i).mul_mono(m) for g in gens]
        for i in range(3) for m in o_piece(sc, 3).basis
    ]
    built = count_fractions()
    cols = [_stacked_coords(p, pieces) for p in polys]
    assert built == [0]
    for p, (row, den) in zip(polys, cols):
        base, want = 0, {}
        for poly, piece in zip(p, pieces):
            coords, d = piece.int_coords(*_integer_row(poly.terms))
            want.update({base + k: F(c, d) for k, c in coords.items()})
            base += piece.dim
        assert {k: F(v, den) for k, v in row.items()} == want
    assert any(den > 1 for _row, den in cols)  # some coordinates are not integers
