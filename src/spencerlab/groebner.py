"""Buchberger-based ideal arithmetic at desk scale.

Everything runs in one monomial order, weighted degrevlex (weighted
degree first, ties by reverse lex), which respects the grading.  Supports
reduced Groebner bases with the coprime-leading-term pair criterion,
normal forms, and standard-monomial enumeration for finite quotient
dimensions.  A pair budget guards against runaway runs; exhaustion
raises instead of hanging.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from .errors import BudgetExceeded, SceneError
from .rings import (
    Ideal,
    Polynomial,
    WeightedRing,
    _Value,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)

DEFAULT_PAIR_BUDGET = 10 ** 5


def _order_key(ring: WeightedRing, m: tuple) -> tuple:
    """Weighted degrevlex: weighted degree first, ties by reverse lex."""
    return (ring.mono_weight(m), tuple(-e for e in reversed(m)))


def _leading_monomial(p: Polynomial) -> tuple:
    if p.is_zero():
        raise SceneError("zero polynomial has no leading monomial")
    return max(p.terms, key=partial(_order_key, p.ring))


def _monic(p: Polynomial) -> Polynomial:
    return p.scale(Fraction(1) / p.terms[_leading_monomial(p)])


class GroebnerBasis(_Value):
    # generators: monic, reduced, sorted by leading monomial
    _fields = ("generators", "ring")

    def __init__(self, generators: tuple, ring: WeightedRing):
        super().__init__(generators, ring)

    def leading_monomials(self) -> tuple:
        return tuple(_leading_monomial(g) for g in self.generators)

    def is_unit_ideal(self) -> bool:
        zero = (0,) * self.ring.nvars
        return any(lm == zero for lm in self.leading_monomials())


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Remainder of p on division by the basis; no term divisible by any LM."""
    lms = gb.leading_monomials()
    rem = p.ring.zero()
    work = p
    while not work.is_zero():
        lm = _leading_monomial(work)
        lc = work.terms[lm]
        for g, glm in zip(gb.generators, lms):
            if mono_divides(glm, lm):
                work = work - g.mul_mono(mono_div(lm, glm), lc)
                break
        else:
            t = Polynomial(p.ring, {lm: lc})
            rem = rem + t
            work = work - t
    return rem


def _spoly(f: Polynomial, g: Polynomial) -> Polynomial:
    lf, lg = _leading_monomial(f), _leading_monomial(g)
    l = mono_lcm(lf, lg)
    cf, cg = f.terms[lf], g.terms[lg]
    return f.mul_mono(mono_div(l, lf), Fraction(1) / cf) - g.mul_mono(
        mono_div(l, lg), Fraction(1) / cg
    )


def buchberger(ideal: Ideal, pair_budget: int = DEFAULT_PAIR_BUDGET) -> GroebnerBasis:
    """Reduced Groebner basis via Buchberger with normal pair selection.

    Pairs are processed by (weighted degree of the lcm, lcm) ascending;
    pairs with coprime leading terms are skipped.  Deterministic.
    """
    if ideal.is_trivial:
        raise SceneError("Groebner basis of the zero ideal is empty; handle upstream")
    ring = ideal.generators[0].ring
    basis = [_monic(g) for g in ideal.generators]

    def pair_key(i, j):
        l = mono_lcm(_leading_monomial(basis[i]), _leading_monomial(basis[j]))
        # the trailing indices make tie-breaking (hence budget accounting)
        # independent of set iteration order
        return (ring.mono_weight(l), l, i, j)

    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    processed = 0
    while pairs:
        i, j = min(pairs, key=lambda ij: pair_key(*ij))
        pairs.discard((i, j))
        processed += 1
        if processed > pair_budget:
            raise BudgetExceeded(
                f"Buchberger pair budget {pair_budget} exhausted"
            )
        fi, fj = basis[i], basis[j]
        li, lj = _leading_monomial(fi), _leading_monomial(fj)
        if mono_lcm(li, lj) == mono_mul(li, lj):  # coprime criterion
            continue
        r = normal_form(_spoly(fi, fj), GroebnerBasis(tuple(basis), ring))
        if r.is_zero():
            continue
        basis.append(_monic(r))
        k = len(basis) - 1
        pairs.update((m, k) for m in range(k))
    return _reduce_basis(basis, ring)


def _reduce_basis(basis: list[Polynomial], ring: WeightedRing) -> GroebnerBasis:
    # Minimal: drop generators whose LM is divisible by another LM.
    keep = []
    lms = [_leading_monomial(g) for g in basis]
    for i, g in enumerate(basis):
        if any(
            j != i
            and mono_divides(lms[j], lms[i])
            and (lms[j] != lms[i] or j < i)
            for j in range(len(basis))
        ):
            continue
        keep.append(g)
    # Reduced: every tail term reduced modulo the others.
    reduced = []
    for i, g in enumerate(keep):
        others = GroebnerBasis(tuple(keep[:i] + keep[i + 1:]), ring)
        reduced.append(_monic(normal_form(g, others) if others.generators else g))
    reduced.sort(key=lambda g: _order_key(ring, _leading_monomial(g)))
    return GroebnerBasis(tuple(reduced), ring)


def quotient_dimension(ideal: Ideal, pair_budget: int = DEFAULT_PAIR_BUDGET):
    """(dimension, standard monomial basis) of the quotient, or None if infinite."""
    gb = buchberger(ideal, pair_budget)
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
    standard = []

    def walk(prefix):
        i = len(prefix)
        if i == n:
            m = tuple(prefix)
            if not any(mono_divides(lm, m) for lm in lms):
                standard.append(m)
            return
        for e in range(bounds[i]):
            walk(prefix + [e])

    walk([])
    standard.sort(key=lambda m: (ring.mono_weight(m), m))
    return len(standard), tuple(standard)
