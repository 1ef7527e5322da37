"""Truncated differential operators on affine space.

Operators are stored normal-ordered on the basis x^a d^b with |b| bounded
by the algebra's order p; composition rewrites with [d_i, x_j] = delta_ij
exactly.  Weights: weight(x_i) = w_i, weight(d_i) = -w_i, so every
construction here stays weight-graded with finite graded pieces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb

from .complexes import (
    GradedComplex,
    HomologyTable,
    _multi_indices,
    build_spencer_of_module,
    homology_table,
    ideal_multiples,
    label_mul,
    subset_weight,
)
from .errors import BudgetExceeded, InternalInvariantError, SceneError
from .linalg import GradedPiece
from .rings import AffineScene, Ideal, Polynomial, WeightedRing, mono_mul


@dataclass(frozen=True)
class WeylAlgebra:
    """Differential operators of order <= order_bound on the ring's affine space."""

    ring: WeightedRing
    order_bound: int

    def __post_init__(self):
        if self.order_bound < 0:
            raise SceneError("order bound must be >= 0")

    @property
    def nvars(self) -> int:
        return self.ring.nvars

    def zero(self) -> DiffOperator:
        return DiffOperator(self, {})

    def from_polynomial(self, p: Polynomial) -> DiffOperator:
        zero_b = (0,) * self.nvars
        return DiffOperator(self, {(m, zero_b): c for m, c in p.terms.items()})

    def partial(self, i: int) -> DiffOperator:
        a = (0,) * self.nvars
        b = tuple(1 if j == i else 0 for j in range(self.nvars))
        return DiffOperator(self, {(a, b): Fraction(1)})

    def monomial_op(self, a: tuple, b: tuple, coeff=1) -> DiffOperator:
        if sum(b) > self.order_bound:
            raise BudgetExceeded(f"operator order {sum(b)} exceeds bound {self.order_bound}")
        return DiffOperator(self, {(tuple(a), tuple(b)): Fraction(coeff)})

    def basis_of_weight(self, d: int, max_order: int | None = None) -> tuple:
        """All (a, b) with |b| <= max_order and weight d, sorted."""
        p = self.order_bound if max_order is None else max_order
        out = []
        for b in _multi_indices(self.nvars, p):
            wa = d + self.ring.mono_weight(b)
            for a in self.ring.monomials_of_weight(wa):
                out.append((a, b))
        return tuple(sorted(out))


class DiffOperator:
    """Normal-ordered operator: finite map (x-exponents, d-exponents) -> Fraction."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: WeylAlgebra, terms: dict):
        self.algebra = algebra
        self.terms = {k: Fraction(c) for k, c in terms.items() if c != 0}

    def is_zero(self) -> bool:
        return not self.terms

    def order(self) -> int:
        return max((sum(b) for _a, b in self.terms), default=0)

    def __eq__(self, other):
        return (
            isinstance(other, DiffOperator)
            and self.algebra == other.algebra
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.algebra, frozenset(self.terms.items())))

    def __add__(self, other: DiffOperator) -> DiffOperator:
        res = dict(self.terms)
        for k, c in other.terms.items():
            res[k] = res.get(k, Fraction(0)) + c
        return DiffOperator(self.algebra, res)

    def __sub__(self, other: DiffOperator) -> DiffOperator:
        res = dict(self.terms)
        for k, c in other.terms.items():
            res[k] = res.get(k, Fraction(0)) - c
        return DiffOperator(self.algebra, res)

    def scale(self, c) -> DiffOperator:
        return DiffOperator(self.algebra, {k: Fraction(c) * v for k, v in self.terms.items()})

    def __str__(self):
        if not self.terms:
            return "0"
        ring = self.algebra.ring
        chunks = []
        for (a, b), c in sorted(self.terms.items()):
            bits = []
            xs = ring.mono_str(a)
            if xs != "1":
                bits.append(xs)
            for i, e in enumerate(b):
                if e == 1:
                    bits.append(f"d_{ring.variables[i]}")
                elif e > 1:
                    bits.append(f"d_{ring.variables[i]}^{e}")
            body = "*".join(bits) if bits else "1"
            if c != 1 or not bits:
                body = f"{c}*{body}" if bits else f"{c}"
            chunks.append(body)
        return " + ".join(chunks)


def compose(A: DiffOperator, B: DiffOperator) -> DiffOperator:
    """Normal-ordered product A∘B; errors if the combined order exceeds p.

    Term by term: d^b x^c = sum_k prod_i C(b_i, k_i) * falling(c_i, k_i)
    x^(c-k) d^(b-k), then the outer x^a and d^e just add exponents.
    """
    alg = A.algebra
    if alg != B.algebra:
        raise SceneError("operators from different algebras")
    if A.order() + B.order() > alg.order_bound:
        raise BudgetExceeded(
            f"combined order {A.order()} + {B.order()} exceeds bound {alg.order_bound}"
        )
    n = alg.nvars
    res: dict = {}
    for (a, b), ca in A.terms.items():
        for (c, e), cb in B.terms.items():
            for k in _k_range(b, c):
                coeff = ca * cb
                for i in range(n):
                    coeff *= comb(b[i], k[i]) * _falling(c[i], k[i])
                if coeff == 0:
                    continue
                key = (
                    mono_mul(a, tuple(c[i] - k[i] for i in range(n))),
                    mono_mul(tuple(b[i] - k[i] for i in range(n)), e),
                )
                res[key] = res.get(key, Fraction(0)) + coeff
    return DiffOperator(alg, res)


def _falling(c: int, k: int) -> int:
    out = 1
    for j in range(k):
        out *= c - j
    return out


def _k_range(b: tuple, c: tuple):
    ranges = [range(min(bi, ci) + 1) for bi, ci in zip(b, c)]

    def walk(prefix, idx):
        if idx == len(ranges):
            yield tuple(prefix)
            return
        for k in ranges[idx]:
            yield from walk(prefix + [k], idx + 1)

    yield from walk([], 0)


def augmentation(A: DiffOperator) -> Polynomial:
    """Evaluation at the constant 1: the pure-function part of A."""
    ring = A.algebra.ring
    zero_b = (0,) * A.algebra.nvars
    return Polynomial(ring, {a: c for (a, b), c in A.terms.items() if b == zero_b})


# -- the filtered Spencer resolution ------------------------------------------

def filtered_spencer(ring: WeightedRing, p: int) -> GradedComplex:
    """Augmented complex F^(p-i) D ⊗ ∧^i(d_1..d_n) -> ... -> F^p D -> O.

    Position i >= 0 carries operators of order <= p - i wedged with i
    coordinate fields; the order budget drops with the exterior degree so
    right multiplication by d_j stays inside the truncation.  Position -1
    is O with the augmentation (evaluation at 1).
    """
    if p < 1:
        raise SceneError("filtered Spencer needs p >= 1")
    n = ring.nvars
    alg = WeylAlgebra(ring, p)

    def ambient(i, d):
        if i == -1:
            return tuple((m,) for m in ring.monomials_of_weight(d))
        out = []
        for S in combinations(range(n), i):
            wS = subset_weight(ring, S)
            for (a, b) in alg.basis_of_weight(d + wS, max_order=p - i):
                out.append((a, b, S))
        return tuple(sorted(out))

    def diff(i, label):
        if i == -1:
            return {}
        if i == 0:
            a, b, _S = label
            if any(b):
                return {}
            return {(a,): Fraction(1)}
        a, b, S = label
        out: dict = {}
        for t, s in enumerate(S):
            sign = (-1) ** t
            b2 = list(b)
            b2[s] += 1
            key = (a, tuple(b2), S[:t] + S[t + 1:])
            out[key] = out.get(key, Fraction(0)) + sign
        return out

    floor = -(p * max(ring.weights) + sum(ring.weights))
    return GradedComplex(
        name=f"filtered-spencer(p={p})",
        kind="filtered-spencer",
        direction=-1,
        indices=tuple(range(-1, n + 1)),
        ambient_fn=ambient,
        diff_fn=diff,
        weight_floor=floor,
    )


# -- Kashiwara quotient --------------------------------------------------------

@dataclass
class KashiwaraQuotient:
    """Graded components of F^p D / I·F^p D with the support check recorded."""

    algebra: WeylAlgebra
    ideal: Ideal
    weight_lo: int
    weight_hi: int
    pieces: dict = field(default_factory=dict)  # weight -> tuple of (a, b) classes
    support_verified: bool = True

    @property
    def total_dimension(self) -> int:
        return sum(len(v) for v in self.pieces.values())

    def to_json(self) -> dict:
        ring = self.algebra.ring
        out = {}
        for d, basis in sorted(self.pieces.items()):
            if basis:
                out[str(d)] = [_op_label_str(ring, a, b) for a, b in basis]
        return {
            "p": self.algebra.order_bound,
            "weight_lo": self.weight_lo,
            "weight_hi": self.weight_hi,
            "total_dimension": self.total_dimension,
            "support_verified": self.support_verified,
            "pieces": out,
        }


def _op_label_str(ring, a, b) -> str:
    bits = []
    xs = ring.mono_str(a)
    if xs != "1":
        bits.append(xs)
    for i, e in enumerate(b):
        if e == 1:
            bits.append(f"d_{ring.variables[i]}")
        elif e > 1:
            bits.append(f"d_{ring.variables[i]}^{e}")
    return "*".join(bits) if bits else "1"


def kashiwara_quotient(
    alg: WeylAlgebra, ideal: Ideal, bound: int
) -> KashiwaraQuotient:
    """Left-coset components of I·F^p D inside F^p D, degreewise.

    Left multiplication by a function touches only the polynomial part, so
    the weight-d component is a direct sum over d-exponents of O/I slices.
    The support condition is verified exactly: left multiplication by each
    generator is the zero map on every computed component.
    """
    ring = alg.ring
    floor = -alg.order_bound * max(ring.weights)
    piece_objects: dict = {}
    for d in range(floor, bound + 1):
        piece_objects[d] = GradedPiece(
            alg.basis_of_weight(d),
            ideal_multiples(ideal.generators, d, alg.basis_of_weight, label_mul),
        )

    def classes(w):
        return piece_objects[w].basis if w in piece_objects else ()

    # support condition: g·(class) = 0 exactly
    verified = all(
        not piece_objects[d].reduce(row)
        for d in range(floor, bound + 1)
        for row in ideal_multiples(ideal.generators, d, classes, label_mul)
    )
    if not verified:
        raise InternalInvariantError("Kashiwara quotient support condition failed")
    pieces = {d: piece.basis for d, piece in piece_objects.items()}
    return KashiwaraQuotient(alg, ideal, floor, bound, pieces, verified)


# -- pushforward to the point ---------------------------------------------------

def pushforward_point(form_degree: int, scene: AffineScene, bound: int) -> HomologyTable:
    """Spencer homology re-presented as the cohomology of the point pushforward.

    Indices are reversed (i -> n - i) and weights shifted by the weight of
    the volume form, matching the contraction pairing vol ⊗ ∧^i T ->
    Omega^(n-i); with O-coefficients (form degree 0) this reproduces the
    de Rham table.
    """
    cx = build_spencer_of_module(scene, form_degree)
    n = scene.ring.nvars
    shift = sum(scene.ring.weights)
    raw = homology_table(cx, bound)
    out = HomologyTable(
        name=f"pushforward(omega_{form_degree})",
        direction=1,
        indices=tuple(range(n + 1)),
        weight_lo=0,
        weight_hi=bound,
    )
    for (i, d), v in raw.entries.items():
        i2, d2 = n - i, d + shift
        if out.weight_lo <= d2 <= out.weight_hi:
            out.entries[(i2, d2)] = v
    for i in out.indices:
        for d in range(out.weight_lo, out.weight_hi + 1):
            out.entries.setdefault((i, d), 0)
    return out
