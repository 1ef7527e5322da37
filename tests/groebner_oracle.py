"""Buchberger's algorithm, kept as an independent oracle for ``spencerlab.groebner``.

The package reads reduced Groebner bases off the RREFs of graded pieces
and only takes weighted-homogeneous ideals.  This is the classical route:
S-polynomials, polynomial division and a pair budget, in the same monomial
order (weighted degrevlex), on any ideal.  Its reduced basis is unique, so
the two engines must agree string for string.
"""

from fractions import Fraction
from functools import partial

from spencerlab.errors import BudgetExceeded
from spencerlab.rings import Polynomial, mono_divides, mono_lcm, mono_mul


def _order_key(ring, m):
    return (ring.mono_weight(m), tuple(-e for e in reversed(m)))


def _mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def leading_monomial(p):
    return max(p.terms, key=partial(_order_key, p.ring))


def _monic(p):
    return p.scale(Fraction(1) / p.terms[leading_monomial(p)])


def normal_form(p, basis):
    """Remainder of p on division by the polynomials ``basis``; no term divisible by any lead."""
    lms = [leading_monomial(g) for g in basis]
    rem = p.ring.zero()
    work = p
    while not work.is_zero():
        lm = leading_monomial(work)
        lc = work.terms[lm]
        for g, glm in zip(basis, lms):
            if mono_divides(glm, lm):
                work = work - g.mul_mono(_mono_div(lm, glm), lc)
                break
        else:
            t = Polynomial(p.ring, {lm: lc})
            rem = rem + t
            work = work - t
    return rem


def _spoly(f, g):
    lf, lg = leading_monomial(f), leading_monomial(g)
    l = mono_lcm(lf, lg)
    cf, cg = f.terms[lf], g.terms[lg]
    return f.mul_mono(_mono_div(l, lf), Fraction(1) / cf) - g.mul_mono(
        _mono_div(l, lg), Fraction(1) / cg
    )


def buchberger(generators, pair_budget=10 ** 5):
    """Reduced Groebner basis of the nonzero ``generators``, sorted by lead.

    Pairs are processed by (weighted degree of the lcm, lcm) ascending;
    pairs with coprime leading terms are skipped.  Deterministic.
    """
    ring = generators[0].ring
    basis = [_monic(g) for g in generators]

    def pair_key(i, j):
        l = mono_lcm(leading_monomial(basis[i]), leading_monomial(basis[j]))
        return (ring.mono_weight(l), l, i, j)

    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    processed = 0
    while pairs:
        i, j = min(pairs, key=lambda ij: pair_key(*ij))
        pairs.discard((i, j))
        processed += 1
        if processed > pair_budget:
            raise BudgetExceeded(f"Buchberger pair budget {pair_budget} exhausted")
        fi, fj = basis[i], basis[j]
        li, lj = leading_monomial(fi), leading_monomial(fj)
        if mono_lcm(li, lj) == mono_mul(li, lj):  # coprime criterion
            continue
        r = normal_form(_spoly(fi, fj), basis)
        if r.is_zero():
            continue
        basis.append(_monic(r))
        k = len(basis) - 1
        pairs.update((m, k) for m in range(k))
    return _reduce_basis(basis, ring)


def _reduce_basis(basis, ring):
    # Minimal: drop generators whose LM is divisible by another LM.
    keep = []
    lms = [leading_monomial(g) for g in basis]
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
        others = keep[:i] + keep[i + 1:]
        reduced.append(_monic(normal_form(g, others) if others else g))
    reduced.sort(key=lambda g: _order_key(ring, leading_monomial(g)))
    return tuple(reduced)


def standard_monomial_counter(generators, ring):
    """``count(d)``: the weight-d monomials of ``ring`` outside the leading ideal."""
    lms = [leading_monomial(g) for g in buchberger(generators)] if generators else []

    def count(d):
        return sum(
            1 for m in ring.monomials_of_weight(d)
            if not any(mono_divides(lm, m) for lm in lms)
        )

    return count
