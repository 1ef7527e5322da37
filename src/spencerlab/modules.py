"""Degreewise graded-module machinery over an affine scene.

Everything is computed one weight at a time: the weight-d component of
O_Y = O_X/I is the span of weight-d monomials modulo the degree-d slice
of the ideal, and modules presented by generators and relations get their
components the same way.  No global Groebner data is needed here; the
quotients are plain exact linear algebra on labeled bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import SceneError
from .linalg import GradedPiece, LinearMap, rank_kernel_image, solve
from .rings import INHOMOGENEOUS, AffineScene, Polynomial, mono_mul


@lru_cache(maxsize=None)
def o_piece(scene: AffineScene, d: int) -> GradedPiece:
    """The weight-d component of O_Y as a quotient of the monomial span."""
    ambient = scene.ring.monomials_of_weight(d)
    relations = []
    for g in scene.ideal.generators:
        e = g.weighted_degree()
        for m in scene.ring.monomials_of_weight(d - e):
            relations.append({mono_mul(m, mg): c for mg, c in g.terms.items()})
    return GradedPiece(ambient, relations)


def graded_component_basis(scene: AffineScene, d: int) -> tuple:
    """Monomial basis of (O_X/I)_d; the ring-core entry point."""
    if d < 0:
        return ()
    return o_piece(scene, d).basis


def reduce_poly(scene: AffineScene, p: Polynomial) -> dict:
    """Normal form of a homogeneous polynomial in its O_Y graded piece."""
    if p.is_zero():
        return {}
    d = p.weighted_degree()
    if d == INHOMOGENEOUS:
        raise SceneError("degreewise reduction needs a homogeneous polynomial")
    return o_piece(scene, d).reduce(dict(p.terms))


def in_ideal_degreewise(scene: AffineScene, p: Polynomial) -> bool:
    """Membership of a homogeneous polynomial via the linear-algebra slice."""
    return not reduce_poly(scene, p)


@dataclass(frozen=True)
class PresentedModule:
    """Graded O_Y-module with labeled generators and polynomial relations.

    ``generators`` maps labels to integer weights (negative weights are
    fine, e.g. for ∂ symbols).  Each relation is one polynomial per
    generator; the scene ideal times every generator is appended
    automatically, so relations only need the genuinely module-level part.
    """

    scene: AffineScene
    generators: tuple  # ((label, weight), ...)
    relations: tuple = ()  # ((poly_per_generator, ...), ...)
    name: str = "module"

    def __post_init__(self):
        weights = dict(self.generators)
        if len(weights) != len(self.generators):
            raise SceneError("duplicate generator labels")
        for rel in self.relations:
            if len(rel) != len(self.generators):
                raise SceneError("relation length must match generator count")
            degs = set()
            for (label, w), p in zip(self.generators, rel):
                if p.is_zero():
                    continue
                e = p.weighted_degree()
                if e == INHOMOGENEOUS:
                    raise SceneError(f"inhomogeneous relation component for {label!r}")
                degs.add(e + w)
            if len(degs) > 1:
                raise SceneError("relation is not weight-homogeneous")

    def gen_weight(self, label) -> int:
        for lbl, w in self.generators:
            if lbl == label:
                return w
        raise KeyError(label)

    def _all_relations(self):
        ring = self.scene.ring
        rels = list(self.relations)
        for g in self.scene.ideal.generators:
            for i in range(len(self.generators)):
                rel = [ring.zero()] * len(self.generators)
                rel[i] = g
                rels.append(tuple(rel))
        return rels

    def piece(self, d: int) -> GradedPiece:
        return _module_piece(self, d)

    def mul_into_ambient(self, label, p: Polynomial) -> dict:
        """p * (generator) as an ambient vector at weight w(label) + deg p."""
        return {(m, label): c for m, c in p.terms.items()}


@lru_cache(maxsize=None)
def _module_piece(module: PresentedModule, d: int) -> GradedPiece:
    ring = module.scene.ring
    ambient = []
    for label, w in module.generators:
        for m in ring.monomials_of_weight(d - w):
            ambient.append((m, label))
    ambient.sort(key=lambda t: (str(t[1]), t[0]))
    relations = []
    for rel in module._all_relations():
        deg = None
        for (label, w), p in zip(module.generators, rel):
            if not p.is_zero():
                deg = p.weighted_degree() + w
                break
        if deg is None:
            continue
        for m in ring.monomials_of_weight(d - deg):
            vec: dict = {}
            for (label, _w), p in zip(module.generators, rel):
                for mp, c in p.terms.items():
                    key = (mono_mul(m, mp), label)
                    vec[key] = vec.get(key, Fraction(0)) + c
            relations.append(vec)
    return GradedPiece(tuple(ambient), relations)


def module_graded_piece(module: PresentedModule, d: int) -> tuple:
    """Labeled basis of the weight-d component (the graded-linalg op)."""
    return module.piece(d).basis


def free_module(scene: AffineScene, labels_weights, name="free") -> PresentedModule:
    return PresentedModule(scene, tuple(labels_weights), (), name)


def omega_module(scene: AffineScene, i: int = 1) -> PresentedModule:
    """Kaehler i-forms as a presented module (dx wedges modulo dg-relations)."""
    from itertools import combinations

    ring = scene.ring
    n = ring.nvars
    gens = []
    for S in combinations(range(n), i):
        gens.append((S, sum(ring.weights[j] for j in S)))
    rels = []
    for g in scene.ideal.generators:
        for T in combinations(range(n), i - 1):
            rel = {S: ring.zero() for S, _ in gens}
            for j in range(n):
                if j in T:
                    continue
                sign, S = _insert_sorted(j, T)
                rel[S] = rel[S] + g.partial_derivative(j).scale(sign)
            rels.append(tuple(rel[S] for S, _ in gens))
    return PresentedModule(scene, tuple(gens), tuple(rels), name=f"omega{i}")


def _insert_sorted(j: int, S: tuple) -> tuple[int, tuple]:
    before = sum(1 for s in S if s < j)
    out = tuple(sorted(S + (j,)))
    return (-1) ** before, out


# -- derivation modules ------------------------------------------------------

@dataclass(frozen=True)
class DerivationSpace:
    """Weight-t derivations of O_Y: kernel of the tangency evaluation map."""

    scene: AffineScene
    weight: int
    basis: tuple  # tuple of coefficient tuples (Polynomial per variable)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def express(self, coeffs) -> tuple:
        """Coordinates of a tangent coefficient tuple in this basis."""
        scene, t = self.scene, self.weight
        cols = [_derivation_dense(scene, t, b) for b in self.basis]
        sol = solve(cols, _derivation_dense(scene, t, coeffs))
        if sol is None:
            raise SceneError("vector is not in the derivation space")
        return sol


def _derivation_dense(scene: AffineScene, t: int, coeffs) -> list:
    out = []
    for i in range(scene.ring.nvars):
        piece = o_piece(scene, t + scene.ring.weights[i])
        red = reduce_poly(scene, coeffs[i]) if coeffs[i] else {}
        out.extend(red.get(m, Fraction(0)) for m in piece.basis)
    return out


@lru_cache(maxsize=None)
def derivation_space(scene: AffineScene, t: int) -> DerivationSpace:
    ring = scene.ring
    n = ring.nvars
    source = []
    for i in range(n):
        for m in graded_component_basis(scene, t + ring.weights[i]):
            source.append((i, m))
    if not source:
        return DerivationSpace(scene, t, ())
    gens = scene.ideal.generators
    target = []
    for j, g in enumerate(gens):
        for m in graded_component_basis(scene, t + g.weighted_degree()):
            target.append((j, m))
    cols = []
    for (i, m) in source:
        vec = [Fraction(0)] * len(target)
        for j, g in enumerate(gens):
            prod = g.partial_derivative(i).mul_mono(m)
            red = reduce_poly(scene, prod) if not prod.is_zero() else {}
            dpiece = graded_component_basis(scene, t + g.weighted_degree())
            base = sum(
                len(graded_component_basis(scene, t + gg.weighted_degree()))
                for gg in gens[:j]
            )
            for k, mm in enumerate(dpiece):
                c = red.get(mm)
                if c:
                    vec[base + k] = c
        cols.append(tuple(vec))
    if target:
        themap = LinearMap.from_columns(tuple(source), tuple(target), cols)
        _rank, kernel, _image = rank_kernel_image(themap)
    else:
        kernel = [
            tuple(Fraction(1 if k == j else 0) for k in range(len(source)))
            for j in range(len(source))
        ]
    basis = []
    for vec in kernel:
        coeffs = [ring.zero()] * n
        for (i, m), c in zip(source, vec):
            if c:
                coeffs[i] = coeffs[i] + ring.monomial(m, c)
        basis.append(tuple(_normalize(coeffs, ring)))
    basis.sort(key=lambda cs: tuple(sorted(cs[i].terms.items()) for i in range(n)).__repr__())
    return DerivationSpace(scene, t, tuple(basis))


def _normalize(coeffs, ring):
    """Scale a coefficient tuple to primitive integers, first sign positive."""
    nums, dens = [], []
    for p in coeffs:
        for c in p.terms.values():
            nums.append(abs(c.numerator))
            dens.append(c.denominator)
    if not nums:
        return coeffs
    den_l = 1
    for dv in dens:
        den_l = den_l * dv // gcd(den_l, dv)
    g = 0
    for nv in nums:
        g = gcd(g, nv * (den_l // 1))
    scale = Fraction(den_l, 1)
    scaled = [p.scale(scale) for p in coeffs]
    g = 0
    for p in scaled:
        for c in p.terms.values():
            g = gcd(g, abs(c.numerator))
    if g > 1:
        scaled = [p.scale(Fraction(1, g)) for p in scaled]
    for p in scaled:
        if p.terms:
            lead = p.sorted_terms()[0][1]
            if lead < 0:
                scaled = [q.scale(-1) for q in scaled]
            break
    return scaled


def derivation_module_piece(scene: AffineScene, d: int) -> tuple:
    """Basis of weight-d derivations, as coefficient tuples (one per variable)."""
    return derivation_space(scene, d).basis
