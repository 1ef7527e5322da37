"""Chain complexes of graded pieces and their homology tables.

A :class:`GradedComplex` is stored degreewise: for each homological index
``i`` and weight ``d`` it exposes an ambient labeled basis, a relation
span (both generating the quotient piece), and a differential given on
ambient labels.  :func:`induced_map` is the one routine that descends an
operator on ambient labels to a matrix between quotient pieces; every
differential, Lie derivative, contraction and tower transition goes
through it.  It checks that the operator sends the source piece's RREF
relation rows into the target's relation span; a failure means the
construction is not well defined and raises immediately rather than
producing wrong homology.

Index conventions follow the sources the builders model: Koszul and
Spencer complexes are homological (differential lowers the index), de
Rham and jet complexes are cohomological (raises it).  A ``direction``
flag records which.

Jet complexes use the order-lowering convention: the form degree ``i``
carries jets of order ``r - i``, so the complex for order ``r`` ends at
form degree ``min(r, n)``.  Coefficients of a jet are carried on the
second tensor factor; the differential combines the form-slot exterior
derivative with differentiation of that factor (which lowers the jet
order by one).  At ``r = 0`` the jets are plain functions and the complex
is the de Rham complex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import factorial

from .errors import InternalInvariantError, SceneError
from .linalg import GradedPiece, LinearMap, rank_kernel_image
from .rings import INHOMOGENEOUS, AffineScene, Polynomial, mono_mul


# -- exterior algebra bookkeeping -------------------------------------------

def insert_sign(j: int, S: tuple):
    """Sign and sorted result of dx_j ∧ dx_S; None if j already occurs."""
    if j in S:
        return None, S
    before = sum(1 for s in S if s < j)
    return (-1) ** before, tuple(sorted(S + (j,)))


def remove_sign(t: int, S: tuple):
    """Sign (-1)^t for contracting the slot at position t (0-based)."""
    return (-1) ** t, S[:t] + S[t + 1:]


def subset_weight(ring, S: tuple) -> int:
    return sum(ring.weights[j] for j in S)


# -- the complex container ----------------------------------------------------

def induced_map(src: GradedPiece, tgt: GradedPiece, fn, error: str) -> LinearMap:
    """Matrix of an ambient-label operator between two quotient pieces.

    ``fn(label) -> dict over target ambient labels`` is extended linearly
    and evaluated once per ambient label of ``src``: each one is a pivot of
    a relation row or a basis label.  Raises ``InternalInvariantError(error)``
    unless the operator maps every relation row of ``src`` into the relation
    span of ``tgt``; the rows span the source relations, so this is exactly
    well-definedness on the quotients.
    """
    image = {lbl: fn(lbl) for lbl in src.ambient}
    for row in src.relation_rows():
        out: dict = {}
        for label, c in row.items():
            for lbl, cc in image[label].items():
                out[lbl] = out.get(lbl, 0) + c * cc
        if not tgt.is_relation(out):
            raise InternalInvariantError(error)
    cols = [tgt.sparse_coords(image[lbl]) for lbl in src.basis]
    return LinearMap.from_sparse_columns(src.basis, tgt.basis, cols)


class GradedComplex:
    """Finite family of graded pieces with exact induced differentials."""

    def __init__(
        self,
        *,
        name: str,
        kind: str,
        direction: int,
        indices: tuple,
        ambient_fn,
        relations_fn,
        diff_fn,
        weight_floor: int = 0,
        scene: AffineScene | None = None,
        meta: dict | None = None,
        mul_fn=None,
    ):
        if direction not in (1, -1):
            raise InternalInvariantError("direction must be +1 or -1")
        self.name = name
        self.kind = kind
        self.direction = direction
        self.indices = tuple(indices)
        self.ambient_fn = ambient_fn
        self.relations_fn = relations_fn
        self.diff_fn = diff_fn
        self.weight_floor = weight_floor
        self.scene = scene
        self.meta = dict(meta or {})
        # monomial multiplication on ambient labels, used to form O/I^r
        # stages of completion towers; default matches (monomial, rest) labels
        self.mul_fn = mul_fn or (lambda i, lbl, mono: (mono_mul(lbl[0], mono),) + lbl[1:])
        self._pieces: dict = {}
        self._diffs: dict = {}
        self._eliminated: dict = {}  # (i, d) -> (rank, sparse kernel basis or [])
        self._dd_checked: set = set()

    def piece(self, i: int, d: int) -> GradedPiece:
        key = (i, d)
        if key not in self._pieces:
            if i not in self.indices:
                self._pieces[key] = GradedPiece((), [])
            else:
                self._pieces[key] = GradedPiece(
                    self.ambient_fn(i, d), self.relations_fn(i, d)
                )
        return self._pieces[key]

    def component(self, i: int, d: int) -> tuple:
        return self.piece(i, d).basis

    def induced(self, src_pos, tgt_pos, fn, what="map"):
        """Matrix of an ambient-level operator between two pieces of this complex.

        ``fn(label) -> dict over target ambient labels``; see :func:`induced_map`.
        """
        return induced_map(
            self.piece(*src_pos),
            self.piece(*tgt_pos),
            fn,
            f"{self.name}: {what} not well defined on the quotient "
            f"at (i={src_pos[0]}, d={src_pos[1]})",
        )

    def differential(self, i: int, d: int) -> LinearMap:
        """Induced map piece(i, d) -> piece(i + direction, d)."""
        key = (i, d)
        if key not in self._diffs:
            src = self.piece(i, d)
            tgt = self.piece(i + self.direction, d)
            if i + self.direction not in self.indices or i not in self.indices:
                self._diffs[key] = LinearMap.zero(src.basis, tgt.basis)
            else:
                self._diffs[key] = self.induced(
                    (i, d),
                    (i + self.direction, d),
                    lambda lbl: self.diff_fn(i, d, lbl),
                    what="differential",
                )
        return self._diffs[key]

    def _elimination(self, i: int, d: int) -> tuple:
        """Rank and sparse kernel of the differential at (i, d), eliminated once."""
        key = (i, d)
        if key not in self._eliminated:
            self._eliminated[key] = rank_kernel_image(self.differential(i, d))
        return self._eliminated[key]

    def rank(self, i: int, d: int) -> int:
        return self._elimination(i, d)[0]

    def homology_cycles(self, i: int, d: int) -> list:
        """Cycles to draw homology representatives from at (i, d).

        The canonical sparse kernel basis of the differential, or none when
        the homology there is zero.
        """
        if self.homology_dim(i, d) == 0:
            return []
        return self._elimination(i, d)[1]

    def check_dd_zero(self, i: int, d: int):
        """Raise unless d∘d = 0 from (i, d); each pair is composed once per complex."""
        if (i, d) in self._dd_checked:
            return
        first = self.differential(i, d)
        second = self.differential(i + self.direction, d)
        if not second.compose(first).is_zero():
            raise InternalInvariantError(
                f"{self.name}: d∘d != 0 at (i={i}, d={d})"
            )
        self._dd_checked.add((i, d))

    def homology_dim(self, i: int, d: int) -> int:
        out_rank = self.rank(i, d)
        in_rank = self.rank(i - self.direction, d)
        h = self.piece(i, d).dim - out_rank - in_rank
        if h < 0:
            raise InternalInvariantError(
                f"{self.name}: negative homology dimension at (i={i}, d={d})"
            )
        if h == 0:
            # every cycle is a boundary, so no representative is ever drawn
            # from this kernel; dropping it keeps the cache to nonzero cells
            self._eliminated[i, d] = (out_rank, [])
        return h


@dataclass
class HomologyTable:
    """dim H at each (homological index, weight) up to the degree bound."""

    name: str
    direction: int
    indices: tuple
    weight_lo: int
    weight_hi: int
    entries: dict = field(default_factory=dict)
    components: dict = field(default_factory=dict)

    def dim(self, i: int, d: int) -> int:
        return self.entries.get((i, d), 0)

    def nonzero(self) -> dict:
        return {k: v for k, v in sorted(self.entries.items()) if v}

    def table_json(self) -> dict:
        out: dict = {str(i): {} for i in self.indices}
        for (i, d), v in sorted(self.entries.items()):
            if v:
                out[str(i)][str(d)] = v
        return out


def homology_table(
    complex_: GradedComplex, bound: int, weight_lo: int | None = None
) -> HomologyTable:
    """Homology dimensions per (index, weight); aborts if d∘d != 0."""
    lo = complex_.weight_floor if weight_lo is None else weight_lo
    table = HomologyTable(
        name=complex_.name,
        direction=complex_.direction,
        indices=complex_.indices,
        weight_lo=lo,
        weight_hi=bound,
    )
    for d in range(lo, bound + 1):
        for i in complex_.indices:
            if i + complex_.direction in complex_.indices:
                complex_.check_dd_zero(i, d)
        for i in complex_.indices:
            table.components[(i, d)] = complex_.piece(i, d).dim
            table.entries[(i, d)] = complex_.homology_dim(i, d)
    return table


# -- Koszul ------------------------------------------------------------------

def build_koszul(scene: AffineScene, elements) -> GradedComplex:
    """Koszul complex over O_Y of a list of homogeneous elements.

    Exterior slot j carries the weight of elements[j]; the differential is
    the usual alternating contraction against multiplication.
    """
    ring = scene.ring
    elements = tuple(elements)
    degrees = []
    for f in elements:
        if f.ring != ring:
            raise SceneError("Koszul element in the wrong ring")
        if f.is_zero():
            degrees.append(0)
            continue
        e = f.weighted_degree()
        if e == INHOMOGENEOUS:
            raise SceneError(f"Koszul element {f} is inhomogeneous")
        degrees.append(e)
    k = len(elements)

    def slot_weight(S):
        return sum(degrees[j] for j in S)

    def ambient(i, d):
        out = []
        for S in combinations(range(k), i):
            for m in ring.monomials_of_weight(d - slot_weight(S)):
                out.append((m, S))
        return tuple(sorted(out, key=lambda t: (t[1], t[0])))

    def relations(i, d):
        rels = []
        for g in scene.ideal.generators:
            e = g.weighted_degree()
            for S in combinations(range(k), i):
                for m in ring.monomials_of_weight(d - slot_weight(S) - e):
                    rels.append(
                        {(mono_mul(m, mg), S): c for mg, c in g.terms.items()}
                    )
        return rels

    def diff(i, d, label):
        m, S = label
        out: dict = {}
        for t, s in enumerate(S):
            sign, rest = remove_sign(t, S)
            f = elements[s]
            for mf, c in f.terms.items():
                key = (mono_mul(m, mf), rest)
                out[key] = out.get(key, Fraction(0)) + sign * c
        return out

    return GradedComplex(
        name=f"koszul({', '.join(str(f) for f in elements)})",
        kind="koszul",
        direction=-1,
        indices=tuple(range(k + 1)),
        ambient_fn=ambient,
        relations_fn=relations,
        diff_fn=diff,
        scene=scene,
        meta={"degrees": tuple(degrees)},
    )


# -- de Rham -----------------------------------------------------------------

def _derham_parts(scene: AffineScene):
    ring = scene.ring
    n = ring.nvars

    def ambient(i, d):
        out = []
        for S in combinations(range(n), i):
            for m in ring.monomials_of_weight(d - subset_weight(ring, S)):
                out.append((m, S))
        return tuple(sorted(out, key=lambda t: (t[1], t[0])))

    def relations(i, d):
        rels = []
        for g in scene.ideal.generators:
            e = g.weighted_degree()
            # I * Omega^i
            for S in combinations(range(n), i):
                for m in ring.monomials_of_weight(d - subset_weight(ring, S) - e):
                    rels.append(
                        {(mono_mul(m, mg), S): c for mg, c in g.terms.items()}
                    )
            # dg ∧ Omega^{i-1}
            for T in (combinations(range(n), i - 1) if i >= 1 else ()):
                wT = subset_weight(ring, T)
                for m in ring.monomials_of_weight(d - wT - e):
                    vec: dict = {}
                    for j in range(n):
                        if j in T:
                            continue
                        sign, S = insert_sign(j, T)
                        for mg, c in g.partial_derivative(j).terms.items():
                            key = (mono_mul(m, mg), S)
                            vec[key] = vec.get(key, Fraction(0)) + sign * c
                    if vec:
                        rels.append(vec)
        return rels

    def diff(i, d, label):
        m, S = label
        out: dict = {}
        for j in range(n):
            if m[j] == 0 or j in S:
                continue
            sign, Snew = insert_sign(j, S)
            dm = list(m)
            dm[j] -= 1
            out[(tuple(dm), Snew)] = Fraction(sign * m[j])
        return out

    return ambient, relations, diff


def build_de_rham(scene: AffineScene) -> GradedComplex:
    """Algebraic de Rham complex of O_Y with the exterior derivative."""
    ambient, relations, diff = _derham_parts(scene)
    return GradedComplex(
        name="de-rham",
        kind="derham",
        direction=1,
        indices=tuple(range(scene.ring.nvars + 1)),
        ambient_fn=ambient,
        relations_fn=relations,
        diff_fn=diff,
        scene=scene,
    )


# -- jets ---------------------------------------------------------------------

def _multi_indices(n: int, max_total: int):
    if max_total < 0:
        return
    if n == 0:
        yield ()
        return
    for e0 in range(max_total + 1):
        for rest in _multi_indices(n - 1, max_total - e0):
            yield (e0,) + rest


def divided_derivative(p: Polynomial, alpha: tuple) -> Polynomial:
    """∂^alpha p / alpha!  (exact in characteristic zero)."""
    out = p
    for i, a in enumerate(alpha):
        for _ in range(a):
            out = out.partial_derivative(i)
    denom = 1
    for a in alpha:
        denom *= factorial(a)
    return out.scale(Fraction(1, denom))


def build_jet_complex(scene: AffineScene, r: int) -> GradedComplex:
    """Jet-valued form complex of order r (order drops with form degree).

    Labels are (S, c, beta): form slot dx_S, coefficient monomial c on the
    second tensor factor, and delta-exponent beta with |beta| <= r - i.
    Relations encode I on the coefficient factor, the Taylor expansion of
    I on the first factor, and dg-wedges on the form slot.
    """
    if r not in (0, 1, 2):
        raise SceneError(f"jet order r={r} unsupported (expected 0, 1, or 2)")
    if r == 0:
        c = build_de_rham(scene)
        c.name = "jet-complex(r=0)"
        c.meta["r"] = 0
        return c

    ring = scene.ring
    n = ring.nvars
    top = min(r, n)

    def jet_order(i):
        return r - i

    def ambient(i, d):
        out = []
        s = jet_order(i)
        for S in combinations(range(n), i):
            wS = subset_weight(ring, S)
            for beta in _multi_indices(n, s):
                wb = ring.mono_weight(beta)
                for c in ring.monomials_of_weight(d - wS - wb):
                    out.append((S, c, beta))
        return tuple(sorted(out))

    def relations(i, d):
        s = jet_order(i)
        rels = []
        for g in scene.ideal.generators:
            e = g.weighted_degree()
            for S in combinations(range(n), i):
                wS = subset_weight(ring, S)
                for beta in _multi_indices(n, s):
                    wb = ring.mono_weight(beta)
                    # second-factor ideal: (m g) delta^beta
                    for m in ring.monomials_of_weight(d - wS - wb - e):
                        rels.append(
                            {(S, mono_mul(m, mg), beta): c
                             for mg, c in g.terms.items()}
                        )
                    # first-factor ideal via the Taylor expansion of g at
                    # the diagonal: sum (-1)^|a| (m ∂^a g / a!) delta^(a+beta)
                    for m in ring.monomials_of_weight(d - wS - wb - e):
                        vec: dict = {}
                        for alpha in _multi_indices(n, s - sum(beta)):
                            part = divided_derivative(g, alpha)
                            sign = (-1) ** sum(alpha)
                            for mg, c in part.terms.items():
                                key = (S, mono_mul(m, mg), mono_mul(alpha, beta))
                                vec[key] = vec.get(key, Fraction(0)) + sign * c
                        if vec:
                            rels.append(vec)
            # dg ∧ (forms) on the form slot
            for T in (combinations(range(n), i - 1) if i >= 1 else ()):
                wT = subset_weight(ring, T)
                for beta in _multi_indices(n, s):
                    wb = ring.mono_weight(beta)
                    for m in ring.monomials_of_weight(d - wT - wb - e):
                        vec = {}
                        for j in range(n):
                            if j in T:
                                continue
                            sign, S = insert_sign(j, T)
                            for mg, c in g.partial_derivative(j).terms.items():
                                key = (S, mono_mul(m, mg), beta)
                                vec[key] = vec.get(key, Fraction(0)) + sign * c
                        if vec:
                            rels.append(vec)
        return rels

    def diff(i, d, label):
        S, c, beta = label
        target_order = jet_order(i + 1)
        out: dict = {}
        for k in range(n):
            if k in S:
                continue
            sign, Snew = insert_sign(k, S)
            if c[k] > 0 and sum(beta) <= target_order:
                dc = list(c)
                dc[k] -= 1
                key = (Snew, tuple(dc), beta)
                out[key] = out.get(key, Fraction(0)) + sign * c[k]
            if beta[k] > 0:
                db = list(beta)
                db[k] -= 1
                key = (Snew, c, tuple(db))
                out[key] = out.get(key, Fraction(0)) + sign * beta[k]
        return out

    return GradedComplex(
        name=f"jet-complex(r={r})",
        kind="jet",
        direction=1,
        indices=tuple(range(top + 1)),
        ambient_fn=ambient,
        relations_fn=relations,
        diff_fn=diff,
        scene=scene,
        meta={"r": r},
        mul_fn=lambda i, lbl, mono: (lbl[0], mono_mul(lbl[1], mono), lbl[2]),
    )


# -- Spencer complex of a module ---------------------------------------------

class SpencerCoefficients:
    """Coefficient data for the Spencer complex on a smooth ambient scene.

    kind "O": the structure sheaf with the tautological derivation action.
    kind "omega_j": j-forms with the Lie-derivative action.
    Labels: "O" uses monomials; "omega_j" uses (monomial, T) pairs.
    """

    def __init__(self, scene: AffineScene, kind: str):
        if not scene.ideal.is_trivial:
            raise SceneError(
                "the Spencer complex of a module is built over a smooth "
                "ambient scene; singular Y has no free tangent module and "
                "the two-term differential is not O-linear there"
            )
        self.scene = scene
        self.kind = kind
        ring = scene.ring
        if kind == "O":
            self.form_degree = 0
        elif kind.startswith("omega_"):
            self.form_degree = int(kind.split("_")[1])
            if not 0 <= self.form_degree <= ring.nvars:
                raise SceneError(f"no {kind} on {ring.nvars} variables")
        else:
            raise SceneError(f"unknown Spencer coefficient kind {kind!r}")

    def labels(self, d: int) -> tuple:
        ring = self.scene.ring
        if self.kind == "O":
            return tuple((m, ()) for m in ring.monomials_of_weight(d))
        out = []
        for T in combinations(range(ring.nvars), self.form_degree):
            for m in ring.monomials_of_weight(d - subset_weight(ring, T)):
                out.append((m, T))
        return tuple(sorted(out, key=lambda t: (t[1], t[0])))

    def act(self, j: int, label) -> dict:
        """Action of the coordinate field ∂_j on a coefficient label."""
        m, T = label
        if m[j] == 0:
            return {}
        dm = list(m)
        dm[j] -= 1
        return {(tuple(dm), T): Fraction(m[j])}


def build_spencer_of_module(coeffs: SpencerCoefficients) -> GradedComplex:
    """Spencer complex M ⊗ ∧^i T with the two-term differential.

    On the smooth ambient scene T is free on the coordinate fields, whose
    brackets vanish, so only the action sum contributes on basis wedges.
    """
    scene = coeffs.scene
    ring = scene.ring
    n = ring.nvars

    def ambient(i, d):
        out = []
        for S in combinations(range(n), i):
            for mlabel in coeffs.labels(d + subset_weight(ring, S)):
                out.append((mlabel, S))
        return tuple(sorted(out, key=lambda t: (t[1], t[0])))

    def relations(i, d):
        return []

    def diff(i, d, label):
        mlabel, S = label
        out: dict = {}
        for t, s in enumerate(S):
            sign, rest = remove_sign(t, S)
            for lbl, c in coeffs.act(s, mlabel).items():
                key = (lbl, rest)
                out[key] = out.get(key, Fraction(0)) + sign * c
        return out

    return GradedComplex(
        name=f"spencer({coeffs.kind})",
        kind="spencer",
        direction=-1,
        indices=tuple(range(n + 1)),
        ambient_fn=ambient,
        relations_fn=relations,
        diff_fn=diff,
        weight_floor=-sum(ring.weights),
        scene=scene,
        meta={"coefficients": coeffs.kind},
        mul_fn=lambda i, lbl, mono: ((mono_mul(lbl[0][0], mono), lbl[0][1]), lbl[1]),
    )
