"""Degreewise graded-module machinery over an affine scene.

Everything is computed one weight at a time: the weight-d component of
O_Y = O_X/I is the span of weight-d monomials modulo the degree-d slice
of the ideal, and modules presented by generators and relations get their
components the same way.  No global Groebner data is needed here; the
quotients are plain exact linear algebra on labeled bases.  The scene
ideal's multiples g·label come from :func:`~.complexes.ideal_multiples`,
so a module's own relations hold only its genuinely module-level part; a
presented module's pieces are those of :func:`module_as_complex`.  The
derivations are the kernel of a tangency map from :func:`~.complexes.induced_map`.
"""

from __future__ import annotations

from functools import lru_cache

from .complexes import GradedComplex, ideal_multiples, induced_map
from .errors import SceneError
from .linalg import GradedPiece, rank_kernel_image
from .rings import INHOMOGENEOUS, AffineScene, _Value, mono_mul


@lru_cache(maxsize=None)
def o_piece(scene: AffineScene, d: int) -> GradedPiece:
    """The weight-d component of O_Y as a quotient of the monomial span."""
    ring = scene.ring
    return GradedPiece(
        ring.monomials_of_weight(d),
        ideal_multiples(scene.ideal.generators, d, ring.monomials_of_weight, mono_mul),
    )


class PresentedModule(_Value):
    """Graded O_Y-module with labeled generators and polynomial relations.

    ``generators`` maps labels to integer weights (negative weights are
    fine, e.g. for ∂ symbols).  Each relation is one polynomial per
    generator.  Each piece adds the scene ideal's multiples of the labels
    on top, so relations only need the genuinely module-level part.
    """

    _fields = ("scene", "generators", "relations", "name")

    def __init__(
        self, scene: AffineScene, generators: tuple, relations: tuple, name: str
    ):
        weights = dict(generators)
        if len(weights) != len(generators):
            raise SceneError("duplicate generator labels")
        for rel in relations:
            if len(rel) != len(generators):
                raise SceneError("relation length must match generator count")
            degs = set()
            for (label, w), p in zip(generators, rel):
                if p.is_zero():
                    continue
                e = p.weighted_degree()
                if e == INHOMOGENEOUS:
                    raise SceneError(f"inhomogeneous relation component for {label!r}")
                degs.add(e + w)
            if len(degs) > 1:
                raise SceneError("relation is not weight-homogeneous")
        super().__init__(scene, generators, relations, name)

    def labels(self, d: int) -> tuple:
        """Ambient labels (monomial, generator label) of weight d."""
        ring = self.scene.ring
        out = [
            (m, label) for label, w in self.generators
            for m in ring.monomials_of_weight(d - w)
        ]
        return tuple(sorted(out, key=lambda t: (str(t[1]), t[0])))

    def relation_rows(self, d: int) -> list:
        """The presentation's own relations in weight d, without I·M."""
        ring = self.scene.ring
        rows = []
        for rel in self.relations:
            deg = next((
                p.weighted_degree() + w
                for (_label, w), p in zip(self.generators, rel) if not p.is_zero()
            ), None)
            if deg is None:
                continue
            for m in ring.monomials_of_weight(d - deg):
                vec: dict = {}
                for (label, _w), p in zip(self.generators, rel):
                    for mp, c in p.terms.items():
                        key = (mono_mul(m, mp), label)
                        vec[key] = vec.get(key, 0) + c
                rows.append(vec)
        return rows

    def piece(self, d: int) -> GradedPiece:
        return module_as_complex(self).piece(0, d)


def module_as_complex(module: PresentedModule) -> GradedComplex:
    """A presented module viewed as a complex concentrated in index 0."""
    floor = min((w for _lbl, w in module.generators), default=0)
    return GradedComplex(
        name=f"module({module.name})",
        kind="module",
        direction=-1,
        indices=(0,),
        ambient_fn=lambda i, d: module.labels(d),
        diff_fn=lambda i, label: {},
        relations_fn=lambda ideal, i, d: module.relation_rows(d),
        weight_floor=min(floor, 0),
        ideal=module.scene.ideal.generators,
    )


def free_module(scene: AffineScene, labels_weights, name="free") -> PresentedModule:
    return PresentedModule(scene, tuple(labels_weights), (), name)


# -- derivation modules ------------------------------------------------------

def derivation_space(scene: AffineScene, t: int) -> tuple:
    """Weight-t derivations of O_Y: the canonical integer kernel of the tangency map.

    The map sends the free label (i, m), x^m ∂_i for a class m of O_Y, to
    (x^m ∂_i g_j)_j in the generators' ``o_piece``s stacked as labels (j, m),
    whose cached relation rows are already in RREF.  Each kernel vector
    comes back as a tuple of coefficients (c_0, ..., c_{n-1}).
    """
    ring = scene.ring
    n = ring.nvars
    source = [(i, m) for i in range(n) for m in o_piece(scene, t + ring.weights[i]).basis]
    if not source:
        return ()
    gens = scene.ideal.generators
    pieces = [o_piece(scene, t + g.weighted_degree()) for g in gens]
    target = GradedPiece(
        ((j, m) for j, piece in enumerate(pieces) for m in piece.ambient),
        [
            {(j, m): c for m, c in row.items()}
            for j, piece in enumerate(pieces) for row in piece.relation_rows()
        ],
    )
    partials = [[g.partial_derivative(i) for g in gens] for i in range(n)]

    def tangency(label):
        i, m = label
        return {
            (j, k): c
            for j, dg in enumerate(partials[i]) for k, c in dg.mul_mono(m).terms.items()
        }

    tangency_map = induced_map(
        GradedPiece(source, []), target, tangency, "tangency map not well defined"
    )
    _rank, kernel = rank_kernel_image(tangency_map)
    basis = []
    for vec in kernel:
        coeffs = [ring.zero()] * n
        for k, c in vec.items():
            i, m = source[k]
            coeffs[i] = coeffs[i] + ring.monomial(m, c)
        basis.append(tuple(coeffs))
    return tuple(basis)
