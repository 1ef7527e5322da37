"""Chain complexes of graded pieces and their homology tables.

A :class:`GradedComplex` is stored degreewise: for each homological index
``i`` and weight ``d`` it exposes an ambient labeled basis, a relation
span (both generating the quotient piece), and a differential
``diff_fn(i, label)`` given on ambient labels.  Every label leads with
its monomial.  A complex carries its ideal, and one rule builds the
relations of every piece from it: the ideal multiples g·label, formed by
:func:`ideal_multiples` on that leading monomial; the builder's own
relations ``relations_fn(ideal, i, d)`` (the Taylor terms of jets, the
relations of a presented module); and the commutator rows
[d, g](l) = d(g·l) - g·d(l) of each generator g.  Together they span the
smallest subcomplex containing I·C, so every quotient is a complex: for
de Rham and jets the commutators are the dg-wedges, for Koszul, filtered
Spencer and modules they vanish.  So the same complex carrying another
ideal, :meth:`GradedComplex.with_ideal`, is the complex over another
subscheme; completion stages are built that way.  The ideal reaches an
operator only through its pieces, so siblings share one object per
distinct piece, the one cache key: an induced map (memoized by operator in
:meth:`GradedComplex.induced`), a rank and kernel, a d∘d check and a tower
transition are computed once per distinct pair or triple of pieces.
:func:`induced_map` is the one routine that descends an operator on
ambient labels to a matrix between quotient pieces; every
differential, Lie derivative, contraction and tower transition goes
through it.  It checks that the operator sends the source piece's RREF
relation rows into the target's relation span; a failure means the
construction is not well defined and raises immediately rather than
producing wrong homology.

The form operators are written once, on labels (monomial, S, *tail)
whose trailing parts pass through: :func:`exterior_derivative` is the de
Rham differential and both halves of the jet differential, and
:func:`contraction` is the Koszul differential and the interior product.

Index conventions follow the sources the builders model: Koszul and
Spencer complexes are homological (differential lowers the index), de
Rham and jet complexes are cohomological (raises it).  A ``direction``
flag records which.

Jet complexes use the order-lowering convention: the form degree ``i``
carries jets of order ``r - i``, so the complex for order ``r`` ends at
form degree ``min(r, n)``.  Coefficients of a jet are carried on the
second tensor factor; the differential is the exterior derivative of
that factor (where the target order allows it) plus the exterior
derivative of the delta factor, which lowers the jet order by one.  At
``r = 0`` the jets are plain functions and the complex is the de Rham
complex.
"""

from __future__ import annotations

import copy
from fractions import Fraction
from itertools import combinations
from math import factorial

from .errors import InternalInvariantError, NotWellDefinedError, SceneError
from .linalg import (
    GradedPiece,
    LinearMap,
    _integer_row,
    common_denominator,
    rank_kernel_image,
)
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


# -- operators on form labels (monomial, S, *tail) ---------------------------

def exterior_derivative(label: tuple) -> dict:
    """d(x^m dx_S) = sum_j m_j x^(m - e_j) dx_j ∧ dx_S on a form label."""
    m, S = label[:2]
    tail = label[2:]
    out: dict = {}
    for j, e in enumerate(m):
        if not e or j in S:
            continue
        sign, Snew = insert_sign(j, S)
        out[(m[:j] + (e - 1,) + m[j + 1:], Snew) + tail] = sign * e
    return out


def contraction(coefficients, label: tuple) -> dict:
    """Contraction of a form label with sum_s coefficients[s] ∂_s.

    Slot s of S is contracted against the polynomial ``coefficients[s]``
    with the sign of its position; the Koszul differential is the
    contraction with its elements.
    """
    m, S = label[:2]
    tail = label[2:]
    out: dict = {}
    for t, s in enumerate(S):
        sign, rest = remove_sign(t, S)
        for mm, c in coefficients[s].terms.items():
            key = (mono_mul(m, mm), rest) + tail
            out[key] = out.get(key, 0) + sign * c
    return out


def wedge_labels(ring, slot_weights: tuple, i: int, d: int) -> tuple:
    """Labels (monomial, S) of weight d over the i-subsets S of the slots.

    Slot j carries weight ``slot_weights[j]``; the labels come sorted by
    (S, monomial).
    """
    return tuple(
        (m, S)
        for S in combinations(range(len(slot_weights)), i)
        for m in ring.monomials_of_weight(d - sum(slot_weights[j] for j in S))
    )


def label_mul(label: tuple, mono: tuple) -> tuple:
    """A (monomial, rest...) label multiplied by a monomial."""
    return (mono_mul(label[0], mono),) + label[1:]


def ideal_multiples(generators, d: int, labels, mul) -> list:
    """Relation rows of I·M in weight d.

    Each generator g times each ambient label of weight d - deg g:
    ``labels(w)`` lists the labels of weight w and ``mul(label, mono)`` is
    the label multiplied by a monomial.
    """
    # a label times distinct monomials gives distinct labels, so no two
    # terms of g land on the same key
    return [
        {mul(label, mg): c for mg, c in g.terms.items()}
        for g in generators
        for label in labels(d - g.weighted_degree())
    ]


# -- the complex container ----------------------------------------------------

def induced_map(src: GradedPiece, tgt: GradedPiece, fn, error: str) -> LinearMap:
    """Matrix of an ambient-label operator between two quotient pieces.

    ``fn(label) -> dict over target ambient labels`` is extended linearly
    and evaluated once per ambient label of ``src``: each one is a pivot of
    a relation row or a basis label.  Each image is cleared once to an
    integer row over its denominator, which the target's normal form takes.
    Raises ``NotWellDefinedError(error)`` unless the operator maps every
    relation row of ``src`` into the relation span of ``tgt``; the rows span
    the source relations, so this is exactly well-definedness on the
    quotients.

    Between relation-free pieces, where every basis position is an ambient
    index and there is nothing to check, an image of int coefficients is
    its column: each target label is looked up in ``tgt._index`` and zeros
    are dropped, with no clearing and no normal form.  An image holding a
    ``Fraction`` sends the whole map down the general path.
    """
    if not (src._sparse_rows or tgt._sparse_rows):
        index, cols = tgt._index, []
        for lbl in src.ambient:
            col: dict = {}
            for t, c in fn(lbl).items():
                if type(c) is not int:
                    break
                if c:
                    try:
                        col[index[t]] = c
                    except KeyError:
                        raise InternalInvariantError(f"label {t!r} outside ambient basis")
            else:
                cols.append(col)
                continue
            break  # a Fraction coefficient: the general path clears it
        else:
            return LinearMap._from_int_columns(src.basis, tgt.basis, cols)
    image = {lbl: _integer_row(fn(lbl)) for lbl in src.ambient}
    if src.dim < len(src.ambient):  # the source has relation rows
        # scale does not change whether a combination is a relation, so the
        # check combines the images over one common denominator
        cleared = dict(zip(image, common_denominator(image.values())[0]))
        for row in src.relation_rows():
            out: dict = {}
            for label, c in row.items():
                for lbl, v in cleared[label].items():
                    out[lbl] = out.get(lbl, 0) + c * v
            if tgt.int_coords(out)[0]:
                raise NotWellDefinedError(error)
    cols, den = common_denominator(tgt.int_coords(*image[lbl]) for lbl in src.basis)
    return LinearMap(src.basis, tgt.basis, cols, den)


class GradedComplex:
    """Finite family of graded pieces with exact induced maps, memoized by piece."""

    def __init__(
        self,
        *,
        name: str,
        kind: str,
        direction: int,
        indices: tuple,
        ambient_fn,
        diff_fn,
        relations_fn=None,
        weight_floor: int = 0,
        ideal: tuple = (),
        meta: dict | None = None,
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
        self.ideal = tuple(ideal)
        self.meta = dict(meta or {})
        # this complex's own: (i, d) -> piece
        self._pieces: dict = {}
        # shared by every ideal this complex carries: (i, d) -> ambient labels;
        # (generator, source index, label tail) -> [d, g] on the label with its
        # monomial set to 1; (i, d) -> the distinct pieces built there;
        # (operator, src, tgt) pieces -> induced map; (src, tgt) -> rank and
        # kernel of the differential; the (src, mid, tgt) triples with d∘d = 0
        self._ambient: dict = {}
        self._commutators: dict = {}
        self._interned: dict = {}
        self._maps: dict = {}
        self._eliminations: dict = {}
        self._dd_checked: set = set()

    def with_ideal(self, ideal: tuple, name: str) -> GradedComplex:
        """The same complex carrying another ideal.

        It shares the ambient labels and commutators, which do not depend on
        the ideal, and every memo keyed by pieces: the ideal reaches an induced
        map, a rank, a kernel and a d∘d check only through the pieces.
        """
        other = copy.copy(self)
        other.name, other.ideal, other._pieces = name, tuple(ideal), {}
        return other

    def ambient(self, i: int, d: int) -> tuple:
        """Ambient labels at (i, d), listed once per complex."""
        key = (i, d)
        if key not in self._ambient:
            self._ambient[key] = self.ambient_fn(i, d)
        return self._ambient[key]

    def piece(self, i: int, d: int) -> GradedPiece:
        """The piece at (i, d); siblings share one object per distinct piece.

        Over the shared ambient labels, equal RREF relation rows are equal pieces.
        """
        key = (i, d)
        if key not in self._pieces:
            if i not in self.indices:
                piece = GradedPiece((), [])
            else:
                rels = list(self.relations_fn(self.ideal, i, d)) if self.relations_fn else []
                rels += ideal_multiples(self.ideal, d, lambda w: self.ambient(i, w), label_mul)
                rels += self._commutator_rows(i, d)
                piece = GradedPiece(self.ambient(i, d), rels)
            built = self._interned.setdefault(key, [])
            piece = next((p for p in built if p._sparse_rows == piece._sparse_rows), piece)
            if piece not in built:
                built.append(piece)
            self._pieces[key] = piece
        return self._pieces[key]

    def _commutator_rows(self, i: int, d: int) -> list:
        """Rows [d, g](l) = d(g·l) - g·d(l) landing in piece (i, d).

        One row per generator g and ambient label l at index i - direction
        and weight d - deg g.  With the ideal multiples they span the
        smallest subcomplex containing I·C, so every quotient is a complex.
        """
        src = i - self.direction
        if src not in self.indices:
            return []
        rows = []
        for g in self.ideal:
            for label in self.ambient(src, d - g.weighted_degree()):
                row = self._commutator(g, src, label)
                if row:
                    rows.append({label_mul(lbl, label[0]): c for lbl, c in row.items()})
        return rows

    def _commutator(self, g: Polynomial, i: int, label: tuple) -> dict:
        """[d, g] from index i on the label with its monomial set to 1, cached.

        Every differential here is first order in the label's monomial, so
        [d, g] is O-linear: its value on x^m·l is this one shifted by x^m.
        """
        tail = label[1:]
        key = (g, i, tail)
        if key not in self._commutators:
            unit = ((0,) * len(label[0]),) + tail
            out: dict = {}
            for mg, c in g.terms.items():
                for lbl, v in self.diff_fn(i, label_mul(unit, mg)).items():
                    out[lbl] = out.get(lbl, 0) + c * v
            for lbl, v in self.diff_fn(i, unit).items():
                for mg, c in g.terms.items():
                    shifted = label_mul(lbl, mg)
                    out[shifted] = out.get(shifted, 0) - c * v
            self._commutators[key] = {lbl: c for lbl, c in out.items() if c}
        return self._commutators[key]

    def induced(self, op, src_pos, tgt_pos, fn, what):
        """Matrix of an ambient-level operator between two pieces of this complex.

        ``fn(label) -> dict over target ambient labels``; see :func:`induced_map`.
        Induced once per ``op`` and pair of pieces, for every ideal this complex
        carries.  A piece belongs to one (i, d), so the pair fixes the positions
        ``fn`` may read; ``op`` tells apart operators between the same pieces.
        """
        src, tgt = self.piece(*src_pos), self.piece(*tgt_pos)
        key = (op, src, tgt)
        if key not in self._maps:
            error = (f"{self.name}: {what} not well defined on the quotient "
                     f"at (i={src_pos[0]}, d={src_pos[1]})")
            self._maps[key] = induced_map(src, tgt, fn, error)
        return self._maps[key]

    def differential(self, i: int, d: int) -> LinearMap:
        """Induced map piece(i, d) -> piece(i + direction, d)."""
        j = i + self.direction
        if i not in self.indices or j not in self.indices:
            return LinearMap.zero(self.piece(i, d).basis, self.piece(j, d).basis)
        return self.induced("d", (i, d), (j, d), lambda lbl: self.diff_fn(i, lbl), "differential")

    def _eliminated(self, i: int, d: int, pair: tuple = ()) -> tuple:
        """Rank and sparse kernel of the differential at (i, d), once per piece pair.

        ``pair`` is ``(piece(i, d), piece(i + direction, d))`` where the caller
        already holds them.
        """
        key = pair or (self.piece(i, d), self.piece(i + self.direction, d))
        if key not in self._eliminations:
            # kept where homology is zero too: a sibling sharing the pair may read it
            self._eliminations[key] = rank_kernel_image(self.differential(i, d))
        return self._eliminations[key]

    def rank(self, i: int, d: int) -> int:
        return self._eliminated(i, d)[0]

    def homology_cycles(self, i: int, d: int) -> list:
        """Cycles to draw homology representatives from at (i, d).

        The canonical sparse kernel basis of the differential; d∘d = 0 into
        the cell is not checked here, :meth:`homology_dim` checks it.
        """
        return self._eliminated(i, d)[1]

    def check_dd_zero(self, i: int, d: int, pieces: tuple = ()):
        """Raise unless d∘d = 0 from (i, d); composed once per distinct piece triple.

        ``pieces`` are the pieces at i, i + direction and i + 2·direction
        where the caller already holds them.
        """
        key = pieces or tuple(self.piece(i + k * self.direction, d) for k in range(3))
        if key not in self._dd_checked:
            first = self.differential(i, d)
            second = self.differential(i + self.direction, d)
            if not second.compose(first).is_zero():
                raise InternalInvariantError(
                    f"{self.name}: d∘d != 0 at (i={i}, d={d})"
                )
            self._dd_checked.add(key)

    def homology_dim(self, i: int, d: int) -> int:
        """dim H at (i, d), after d∘d = 0 into (i, d) is checked."""
        k = self.direction
        below, here, above = (self.piece(i + s * k, d) for s in (-1, 0, 1))
        if i - k in self.indices:
            self.check_dd_zero(i - k, d, (below, here, above))
        h = (here.dim - self._eliminated(i, d, (here, above))[0]
             - self._eliminated(i - k, d, (below, here))[0])
        if h < 0:
            raise InternalInvariantError(
                f"{self.name}: negative homology dimension at (i={i}, d={d})"
            )
        return h


class HomologyTable:
    """dim H at each (homological index, weight) up to the degree bound."""

    def __init__(self, indices: tuple):
        self.indices = indices
        self.entries: dict = {}

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


def homology_table(complex_: GradedComplex, bound: int) -> HomologyTable:
    """Homology dimensions per (index, weight); aborts if d∘d != 0."""
    table = HomologyTable(complex_.indices)
    for d in range(complex_.weight_floor, bound + 1):
        for i in complex_.indices:
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

    def ambient(i, d):
        return wedge_labels(ring, degrees, i, d)

    return GradedComplex(
        name=f"koszul({', '.join(str(f) for f in elements)})",
        kind="koszul",
        direction=-1,
        indices=tuple(range(k + 1)),
        ambient_fn=ambient,
        diff_fn=lambda i, label: contraction(elements, label),
        ideal=scene.ideal.generators,
    )


# -- de Rham -----------------------------------------------------------------

def build_de_rham(scene: AffineScene) -> GradedComplex:
    """Algebraic de Rham complex of O_Y with the exterior derivative."""
    ring = scene.ring
    n = ring.nvars

    def ambient(i, d):
        return wedge_labels(ring, ring.weights, i, d)

    return GradedComplex(
        name="de-rham",
        kind="derham",
        direction=1,
        indices=tuple(range(n + 1)),
        ambient_fn=ambient,
        diff_fn=lambda i, label: exterior_derivative(label),
        ideal=scene.ideal.generators,
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
    return out if denom == 1 else out.scale(Fraction(1, denom))


def build_jet_complex(scene: AffineScene, r: int) -> GradedComplex:
    """Jet-valued form complex of order r (order drops with form degree).

    Labels are (c, S, beta): coefficient monomial c on the second tensor
    factor, form slot dx_S, and delta-exponent beta with |beta| <= r - i,
    sorted by (S, c, beta).  The builder's own relations are the Taylor
    expansion of I on the first factor; I on the coefficient factor and
    the dg-wedges on the form slot are the complex's ideal multiples and
    commutator rows.
    """
    if r not in (0, 1, 2):
        raise SceneError(f"jet order r={r} unsupported (expected 0, 1, or 2)")
    if r == 0:
        c = build_de_rham(scene)
        c.name = "jet-complex(r=0)"
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
                    out.append((c, S, beta))
        return tuple(sorted(out, key=lambda t: (t[1], t[0], t[2])))

    # keyed by generator, shared by every ideal this complex carries
    taylor: dict = {}  # (generator, alpha) -> ∂^alpha g / alpha!

    def taylor_terms(g, alpha):
        if (g, alpha) not in taylor:
            taylor[g, alpha] = divided_derivative(g, alpha)
        return taylor[g, alpha].terms

    def relations(ideal, i, d):
        # I on the coefficient factor are the complex's ideal multiples
        s = jet_order(i)
        rels = []
        for g in ideal:
            e = g.weighted_degree()
            # first-factor ideal via the Taylor expansion of g at the
            # diagonal: sum (-1)^|a| (m ∂^a g / a!) delta^(a+beta)
            for S in combinations(range(n), i):
                wS = subset_weight(ring, S)
                for beta in _multi_indices(n, s):
                    monos = ring.monomials_of_weight(d - wS - ring.mono_weight(beta) - e)
                    if not monos:
                        continue
                    parts = [
                        ((-1) ** sum(alpha), mono_mul(alpha, beta), taylor_terms(g, alpha))
                        for alpha in _multi_indices(n, s - sum(beta))
                    ]
                    for m in monos:
                        vec: dict = {}
                        for sign, delta, terms in parts:
                            for mg, c in terms.items():
                                vec[mono_mul(m, mg), S, delta] = sign * c
                        rels.append(vec)
        return rels

    def diff(i, label):
        # d on the coefficient factor where the jet order allows it, plus d
        # on the delta factor, which lowers the jet order by one
        c, S, beta = label
        out = exterior_derivative(label) if sum(beta) <= jet_order(i + 1) else {}
        for (db, Snew, _c), v in exterior_derivative((beta, S, c)).items():
            key = (c, Snew, db)
            out[key] = out.get(key, 0) + v
        return out

    return GradedComplex(
        name=f"jet-complex(r={r})",
        kind="jet",
        direction=1,
        indices=tuple(range(top + 1)),
        ambient_fn=ambient,
        diff_fn=diff,
        relations_fn=relations,
        ideal=scene.ideal.generators,
        meta={"r": r},
    )


# -- Spencer complex of a module ---------------------------------------------

def build_spencer_of_module(scene: AffineScene, form_degree: int) -> GradedComplex:
    """Spencer complex Omega^k ⊗ ∧^i T with the two-term differential.

    The coefficients are the k-forms (k = ``form_degree``; k = 0 is O)
    with the Lie-derivative action.  On the smooth ambient scene T is free
    on the coordinate fields, whose brackets vanish, so only the action
    sum contributes on basis wedges.  Labels are (m, T, S): the
    coefficient x^m dx_T and the polyvector slot d_S, sorted by (S, m, T).
    """
    if not scene.ideal.is_trivial:
        raise SceneError(
            "the Spencer complex of a module is built over a smooth "
            "ambient scene; singular Y has no free tangent module and "
            "the two-term differential is not O-linear there"
        )
    ring = scene.ring
    n = ring.nvars
    if not 0 <= form_degree <= n:
        raise SceneError(f"no omega_{form_degree} on {n} variables")

    def ambient(i, d):
        out = []
        for S in combinations(range(n), i):
            for m, T in wedge_labels(ring, ring.weights, form_degree, d + subset_weight(ring, S)):
                out.append((m, T, S))
        return tuple(sorted(out, key=lambda t: (t[2], t[0], t[1])))

    def diff(i, label):
        # the coordinate field ∂_s of slot s acts on the coefficient x^m dx_T
        m, T, S = label
        out: dict = {}
        for t, s in enumerate(S):
            if m[s]:
                sign, rest = remove_sign(t, S)
                out[(m[:s] + (m[s] - 1,) + m[s + 1:], T, rest)] = sign * m[s]
        return out

    return GradedComplex(
        name=f"spencer(omega_{form_degree})",
        kind="spencer",
        direction=-1,
        indices=tuple(range(n + 1)),
        ambient_fn=ambient,
        diff_fn=diff,
        weight_floor=-sum(ring.weights),
    )
