"""Truncated differential operators on affine space.

An operator x^a d^b (normal-ordered, |b| bounded by an order p) is the
label (a, b); the filtered Spencer resolution and the Kashiwara quotient
each list their own labels of a weight.  Weights: weight(x_i) = w_i,
weight(d_i) = -w_i, so every construction here stays weight-graded with
finite graded pieces.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .complexes import (
    GradedComplex,
    HomologyTable,
    _multi_indices,
    build_spencer_of_module,
    homology_table,
    ideal_multiples,
    subset_weight,
)
from .errors import InternalInvariantError, SceneError
from .modules import graded_component_basis, o_piece
from .rings import AffineScene, WeightedRing, mono_mul


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

    def ambient(i, d):
        if i == -1:
            return tuple((m,) for m in ring.monomials_of_weight(d))
        out = []
        for S in combinations(range(n), i):
            wS = subset_weight(ring, S)
            for b in _multi_indices(n, p - i):
                for a in ring.monomials_of_weight(d + wS + ring.mono_weight(b)):
                    out.append((a, b, S))
        return tuple(sorted(out))

    def diff(i, label):
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

class KashiwaraQuotient:
    """Graded components of F^p D / I·F^p D with the support check recorded."""

    def __init__(
        self, scene: AffineScene, p: int, weight_lo: int, weight_hi: int,
        pieces: dict, support_verified: bool,
    ):
        self.scene = scene
        self.p = p
        self.weight_lo = weight_lo
        self.weight_hi = weight_hi
        self.pieces = pieces  # weight -> tuple of (a, b) classes
        self.support_verified = support_verified

    @property
    def total_dimension(self) -> int:
        return sum(len(v) for v in self.pieces.values())

    def to_json(self) -> dict:
        ring = self.scene.ring
        out = {}
        for d, basis in sorted(self.pieces.items()):
            if basis:
                out[str(d)] = [_op_label_str(ring, a, b) for a, b in basis]
        return {
            "p": self.p,
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


def kashiwara_quotient(scene: AffineScene, p: int, bound: int) -> KashiwaraQuotient:
    """Left-coset components of I·F^p D inside F^p D, degreewise.

    Left multiplication by a function touches only the polynomial part x^a
    of a label (a, b), so the weight-d component is the direct sum over
    |b| <= p of the O_Y slices of weight d + w(b), read off the cached
    :func:`~.modules.o_piece`.  The support condition is verified exactly:
    left multiplication by each generator is the zero map on every slice.
    """
    if p < 0:
        raise SceneError("order bound must be >= 0")
    ring = scene.ring
    floor = -p * max(ring.weights)
    partials = [(b, ring.mono_weight(b)) for b in _multi_indices(ring.nvars, p)]
    pieces = {
        d: tuple(sorted(
            (a, b) for b, wb in partials for a in graded_component_basis(scene, d + wb)
        ))
        for d in range(floor, bound + 1)
    }

    def classes(w):
        return graded_component_basis(scene, w)

    # support condition: g·(class) = 0 exactly, on every slice a piece reads
    # (weight d + w(b) lies in 0..bound - floor)
    verified = all(
        o_piece(scene, e).is_relation(row)
        for e in range(bound - floor + 1)
        for row in ideal_multiples(scene.ideal.generators, e, classes, mono_mul)
    )
    if not verified:
        raise InternalInvariantError("Kashiwara quotient support condition failed")
    return KashiwaraQuotient(scene, p, floor, bound, pieces, verified)


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
    out = HomologyTable(tuple(range(n + 1)))
    for (i, d), v in homology_table(cx, bound).entries.items():
        if 0 <= d + shift <= bound:
            out.entries[(n - i, d + shift)] = v
    return out
