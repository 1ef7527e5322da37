"""Reduced Groebner bases of weighted-homogeneous ideals, read off graded pieces.

One monomial order throughout: weighted degrevlex (weighted degree first,
ties by reverse lex).  With the weight-d monomials in descending order,
the RREF of an ideal's weight-d :class:`GradedPiece` has its leading
monomials of weight d as pivots, and each pivot row is the one element
of the ideal with that lead and a tail of standard monomials (Lazard,
EUROCAL 1983).  So the one elimination kernel does the work: no
S-polynomials, no normal forms, homogeneous ideals only.  A budget on the
pieces eliminated makes a runaway run raise instead of hang.  The entry
point keeps the name ``buchberger`` because the benchmark traces it as
the ``groebner.buchberger`` span, until its next version renames it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import product

from .complexes import ideal_multiples
from .errors import BudgetExceeded, SceneError
from .linalg import GradedPiece
from .rings import (
    INHOMOGENEOUS,
    Ideal,
    Polynomial,
    WeightedRing,
    _Value,
    mono_divides,
    mono_lcm,
    mono_mul,
)

DEFAULT_PIECE_BUDGET = 10 ** 4


def _order_key(ring: WeightedRing, m: tuple) -> tuple:
    """Weighted degrevlex: weighted degree first, ties by reverse lex."""
    return (ring.mono_weight(m), tuple(-e for e in reversed(m)))


class GroebnerBasis(_Value):
    # generators: monic, reduced, sorted by leading monomial
    _fields = ("generators", "ring")

    def __init__(self, generators: tuple, ring: WeightedRing):
        super().__init__(generators, ring)

    def leading_monomials(self) -> tuple:
        key = partial(_order_key, self.ring)
        return tuple(max(g.terms, key=key) for g in self.generators)

    def is_unit_ideal(self) -> bool:
        zero = (0,) * self.ring.nvars
        return any(lm == zero for lm in self.leading_monomials())


def buchberger(ideal: Ideal, piece_budget: int = DEFAULT_PIECE_BUDGET) -> GroebnerBasis:
    """Reduced Groebner basis of a weighted-homogeneous ideal, from its graded pieces.

    Eliminates the pieces of weight 0, 1, 2, ...; a pivot row whose lead
    no earlier lead divides, divided by that lead, is a basis element.
    Stops past every generator's weight and the weight of every lcm of
    two leads that are not coprime, or at the lead 1: every S-pair left
    then reduces to zero, which is Buchberger's criterion.
    """
    if ideal.is_trivial:
        raise SceneError("Groebner basis of the zero ideal is empty; handle upstream")
    gens = ideal.generators
    ring = gens[0].ring
    for g in gens:
        if g.weighted_degree() == INHOMOGENEOUS:
            raise SceneError(
                f"Groebner bases need weighted-homogeneous generators; {g} is not, "
                f"for weights {ring.weights}"
            )
    key = partial(_order_key, ring)
    top = max(g.weighted_degree() for g in gens)
    one = (0,) * ring.nvars
    basis: dict = {}  # lead -> monic basis element
    d = 0
    while d <= top and one not in basis:
        if d >= piece_budget:
            raise BudgetExceeded(f"Groebner piece budget {piece_budget} exhausted at weight {d}")
        piece = GradedPiece(
            sorted(ring.monomials_of_weight(d), key=key, reverse=True),
            ideal_multiples(gens, d, ring.monomials_of_weight, mono_mul),
        )
        for row in piece.relation_rows():
            lead = max(row, key=key)
            if any(mono_divides(m, lead) for m in basis):
                continue
            for m in basis:
                lcm = mono_lcm(m, lead)
                if lcm != mono_mul(m, lead):
                    top = max(top, ring.mono_weight(lcm))
            c = row[lead]
            basis[lead] = Polynomial(
                ring, {m: Fraction(v, c) if v % c else v // c for m, v in row.items()}
            )
        d += 1
    return GroebnerBasis(tuple(basis[m] for m in sorted(basis, key=key)), ring)


def quotient_dimension(ideal: Ideal, piece_budget: int = DEFAULT_PIECE_BUDGET):
    """(dimension, standard monomial basis) of the quotient, or None if infinite."""
    gb = buchberger(ideal, piece_budget)
    ring = gb.ring
    n = ring.nvars
    lms = gb.leading_monomials()
    if gb.is_unit_ideal():
        return 0, ()
    bounds = []
    for i in range(n):
        pure = [lm[i] for lm in lms if all(lm[j] == 0 for j in range(n) if j != i)]
        if not pure:
            return None
        bounds.append(min(pure))
    standard = sorted(
        (m for m in product(*map(range, bounds)) if not any(mono_divides(lm, m) for lm in lms)),
        key=lambda m: (ring.mono_weight(m), m),
    )
    return len(standard), tuple(standard)
