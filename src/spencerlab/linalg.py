"""Exact rational linear algebra on labeled bases.

The one elimination kernel, ``_gauss_jordan``, is an incremental sparse
Gauss–Jordan that never builds a ``Fraction``, after Bareiss's
fraction-free elimination.  Each incoming row has its denominators
cleared into an ``{column: int}`` dict (a row's scale does not change its
span), and no work is spent on zero entries.  A row is reduced against the
pivot rows found so far by ``a·acc − c·row``, with ``a`` and ``c`` divided
by their gcd; what is left becomes a new pivot row, and its pivot column
is cleared from the earlier pivot rows the same way.  Every pivot row is
kept primitive (its entries have gcd 1) with a positive lead, and holds no
entry in any other pivot column.  Such a row is its RREF row times its
lead, and a row space has exactly one RREF, so the result does not depend
on the order of the rows.  ``solve_columns`` solves many sparse targets
against one set of sparse columns in a single elimination;
``LinearMap.inverse`` is built on it.

``Fraction`` appears only at the exit: ``rref`` and ``solve_columns`` divide
each entry they hand out by its row's lead, so every result is the same
exact rational as an elimination over ``Fraction`` would give.  Every vector
handed in or out is sparse, ``{position: coefficient}`` with zeros dropped.

:class:`LinearMap` stores primitive integer sparse columns over one
denominator, in a canonical form, so composition, sums, comparisons and
the ``d∘d = 0`` and chain-map checks cost O(nonzeros) integer operations
and build no ``Fraction``; ``apply``, ``inverse`` and the ``columns`` and
``matrix`` views are where rationals leave it.  ``rank_kernel_image``
eliminates the map's dense integer rows through ``rref``, the
dense-in/dense-out adapter of the kernel, because the benchmark tracer
reads the ``rref`` span; its kernel comes back sparse.

:class:`GradedPiece` is the quotient-space workhorse used by every graded
construction: an ambient labeled basis, a relation span kept as the
kernel's primitive integer pivot rows, and one normal form onto the
non-pivot labels.  The normal form runs on integers with one common
denominator: ``int_coords`` takes an already cleared integer row and hands
the normal form out by basis position as integers over that denominator;
``sparse_coords`` and ``is_relation`` take rational vectors, clear them
once, and build a Fraction only on the way out of ``sparse_coords``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import InternalInvariantError

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _integer_row(vec: dict):
    """``(row, den)``: ``row`` is ``{column: int}`` and ``row / den == vec``.

    ``vec`` holds nonzero ints or Fractions; ``den`` is the least common
    denominator of its entries.
    """
    den = 1
    for v in vec.values():
        q = v.denominator
        if q != 1:
            den = lcm(den, q)
    if den == 1:
        return {j: v.numerator for j, v in vec.items()}, 1
    return {j: v.numerator * (den // v.denominator) for j, v in vec.items()}, den


def common_denominator(pairs) -> tuple:
    """``(rows, den)`` from ``(row, d)`` pairs of integer rows: ``rows[k] / den == row / d``.

    ``den`` is the least common multiple of the ``d``, 1 for no pairs.
    """
    pairs = list(pairs)
    den = lcm(*(d for _row, d in pairs))
    rows = [
        row if d == den else {j: v * (den // d) for j, v in row.items()}
        for row, d in pairs
    ]
    return rows, den


def _ratio(v: int, den: int) -> Fraction:
    """``v / den`` as a Fraction, without a gcd when ``den`` is 1."""
    return Fraction(v) if den == 1 else Fraction(v, den)


def _combine(acc: dict, a: int, c: int, row: dict) -> None:
    """acc = a·acc − c·row on sparse integer rows, dropping entries that cancel."""
    if a != 1:
        for j, v in acc.items():
            acc[j] = a * v
    for j, b in row.items():
        v = acc.get(j, 0) - c * b
        if v:
            acc[j] = v
        else:
            del acc[j]


def _make_primitive(row: dict, lead: int) -> None:
    """Divide a nonzero integer row by its content, signed so ``row[lead] > 0``."""
    g = gcd(*row.values())
    if row[lead] < 0:
        g = -g
    if g != 1:
        for j, v in row.items():
            row[j] = v // g


def _eliminate(acc: dict, pivot_rows: dict) -> int:
    """Reduce an integer row modulo primitive pivot rows, in place.

    Returns the scale ``s``: the reduced ``acc`` is ``s`` times the normal
    form of the row handed in.  A pivot row has no entry in any other pivot
    column, so one pass in ascending pivot order clears them all.
    """
    s = 1
    for p in sorted(c for c in acc if c in pivot_rows):
        row = pivot_rows[p]
        a, c = row[p], acc[p]
        if a != 1:
            g = gcd(a, c)
            a, c = a // g, c // g
            s *= a
        _combine(acc, a, c, row)
    return s


def _gauss_jordan(rows) -> dict:
    """Fraction-free sparse RREF of rational rows; the one elimination kernel.

    ``rows`` are ``{column: int or Fraction}`` dicts holding nonzero entries
    only.  Returns ``{pivot column: primitive integer row}``; each row
    includes its positive lead at the pivot column, and divided by that
    lead it is the RREF row.
    """
    pivot_rows: dict = {}
    for row in rows:
        acc = _integer_row(row)[0]
        _eliminate(acc, pivot_rows)
        if not acc:
            continue
        # pivoting on the leftmost entry keeps every pivot row zero left of
        # its pivot, so the pivots found are those of the RREF
        lead = min(acc)
        _make_primitive(acc, lead)
        a = acc[lead]
        for q, prow in pivot_rows.items():
            f = prow.get(lead)
            if f is not None:
                g = gcd(a, f)
                _combine(prow, a // g, f // g, acc)
                _make_primitive(prow, q)
        pivot_rows[lead] = acc
    return pivot_rows


def rref(rows: list[list]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and pivot column indices.

    ``rows`` are dense, of equal length, with int or Fraction entries; the
    nonzero RREF rows come back dense, in pivot order, as Fractions.
    """
    ncols = len(rows[0]) if rows else 0
    pivot_rows = _gauss_jordan({j: v for j, v in enumerate(row) if v} for row in rows)
    pivots = sorted(pivot_rows)
    out = []
    for p in pivots:
        row = pivot_rows[p]
        a = row[p]
        dense = [_ZERO] * ncols
        for j, v in row.items():
            dense[j] = _ratio(v, a)
        out.append(dense)
    return out, pivots


def solve_columns(columns, targets) -> list:
    """Per target b, the sparse x with sum_j x[j] * columns[j] == b, or None.

    ``columns`` and ``targets`` are sparse ``{row: coefficient}`` vectors;
    each x comes back as ``{j: Fraction}``, with free coefficients 0.
    One elimination of ``[columns | targets]`` serves every target: the
    pivot rows whose pivot is a target column have a zero column part and
    span the obstructions, so a target they touch lies outside the column
    span, and on any other target the RREF restricted to ``[columns | b]``
    is the RREF of ``[columns | b]``.
    """
    k = len(columns)
    rows: dict = {}
    for j, vec in enumerate([*columns, *targets]):
        for i, v in vec.items():
            if v:
                rows.setdefault(i, {})[j] = v
    pivot_rows = _gauss_jordan(rows.values())
    outside = set()
    for p, row in pivot_rows.items():
        if p >= k:
            outside.update(row)
    solved = {p: row for p, row in pivot_rows.items() if p < k}
    out = []
    for t in range(k, k + len(targets)):
        if t in outside:
            out.append(None)
        else:
            out.append({p: _ratio(row[t], row[p]) for p, row in solved.items() if t in row})
    return out


class LinearMap:
    """Exact linear map, stored as primitive integer sparse columns over one denominator.

    ``int_columns[j]`` maps target positions to the nonzero integer
    coefficients of ``den`` times the image of source label j.  The form is
    canonical: ``den >= 1`` and the gcd of ``den`` and every entry is 1, so
    ``==`` and ``hash`` are exact.  Products, sums and comparisons run on
    integers in O(nonzeros); ``columns`` and ``matrix`` are rational views
    built on each read.  Maps are immutable by convention.
    """

    __slots__ = ("source_basis", "target_basis", "int_columns", "den")

    def __init__(self, source_basis, target_basis, columns, den=1):
        """Build from ``{target position: int or Fraction}`` columns divided by ``den``.

        Zeros are dropped, denominators cleared into ``den`` and the result
        divided by its content.
        """
        self.source_basis = tuple(source_basis)
        self.target_basis = tuple(target_basis)
        cols = [{i: a for i, a in col.items() if a} for col in columns]
        if len(cols) != len(self.source_basis):
            raise InternalInvariantError("column count must match source basis")
        if any(type(a) is not int for col in cols for a in col.values()):
            cols, q = common_denominator(map(_integer_row, cols))
            den *= q
        if den != 1:
            g = den
            for col in cols:
                if col:
                    g = gcd(g, *col.values())
                    if g == 1:
                        break
            if g != 1:
                cols = [{i: a // g for i, a in col.items()} for col in cols]
                den //= g
        self.int_columns = tuple(cols)
        self.den = den

    @classmethod
    def zero(cls, source_basis, target_basis) -> LinearMap:
        return cls(source_basis, target_basis, [{}] * len(source_basis))

    @classmethod
    def identity(cls, basis) -> LinearMap:
        return cls(basis, basis, ({j: 1} for j in range(len(basis))))

    @property
    def shape(self):
        return len(self.target_basis), len(self.source_basis)

    @property
    def columns(self) -> tuple:
        """Rational view, built on each read: ``{target position: Fraction}`` per column."""
        den = self.den
        return tuple({i: _ratio(a, den) for i, a in col.items()} for col in self.int_columns)

    @property
    def matrix(self) -> tuple:
        """Dense rational view, built on each read: matrix[i][j] is entry i of column j."""
        rows = [[_ZERO] * len(self.source_basis) for _ in self.target_basis]
        for j, col in enumerate(self.columns):
            for i, a in col.items():
                rows[i][j] = a
        return tuple(map(tuple, rows))

    def __eq__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        return (
            self.den == other.den
            and self.int_columns == other.int_columns
            and self.source_basis == other.source_basis
            and self.target_basis == other.target_basis
        )

    def __hash__(self):
        cols = tuple(frozenset(col.items()) for col in self.int_columns)
        return hash((self.source_basis, self.target_basis, self.den, cols))

    def __repr__(self):
        return (
            f"LinearMap({self.source_basis!r}, {self.target_basis!r}, "
            f"columns={self.columns!r})"
        )

    def apply(self, vec: dict) -> dict:
        """Image of a sparse ``{source position: coefficient}`` vector, zeros dropped."""
        out: dict = {}
        cols = self.int_columns
        for j, x in vec.items():
            for i, a in cols[j].items():
                out[i] = out.get(i, 0) + a * x
        den = self.den
        if den == 1:
            return {i: v for i, v in out.items() if v}
        return {i: Fraction(v, den) for i, v in out.items() if v}

    def compose(self, first: LinearMap) -> LinearMap:
        """self ∘ first."""
        if first.target_basis != self.source_basis:
            raise InternalInvariantError("composition basis mismatch")
        outer = self.int_columns
        cols = []
        for fcol in first.int_columns:
            acc: dict = {}
            for k, b in fcol.items():
                for i, a in outer[k].items():
                    acc[i] = acc.get(i, 0) + a * b
            cols.append(acc)
        return LinearMap(first.source_basis, self.target_basis, cols, self.den * first.den)

    def add(self, other: LinearMap) -> LinearMap:
        bases = (self.source_basis, self.target_basis)
        if (other.source_basis, other.target_basis) != bases:
            raise InternalInvariantError("sum of maps between different bases")
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        cols = []
        for ca, cb in zip(self.int_columns, other.int_columns):
            acc = {i: sa * a for i, a in ca.items()}
            for i, b in cb.items():
                acc[i] = acc.get(i, 0) + sb * b
            cols.append(acc)
        return LinearMap(self.source_basis, self.target_basis, cols, den)

    def scale(self, c) -> LinearMap:
        """c times the map, for an int or Fraction c."""
        p = c.numerator
        cols = ({i: p * a for i, a in col.items()} for col in self.int_columns)
        return LinearMap(self.source_basis, self.target_basis, cols, self.den * c.denominator)

    def is_zero(self) -> bool:
        return not any(self.int_columns)

    def is_identity(self) -> bool:
        if self.den != 1 or self.source_basis != self.target_basis:
            return False
        return all(col == {j: 1} for j, col in enumerate(self.int_columns))

    def inverse(self) -> LinearMap:
        """Column j of the inverse solves self(x) = e_j; all in one elimination.

        The integer columns are ``den`` times the map, so their solutions
        are the inverse's columns divided by ``den``.
        """
        n = len(self.source_basis)
        if len(self.target_basis) != n:
            raise InternalInvariantError("inverse of a non-square map")
        cols = solve_columns(self.int_columns, [{j: 1} for j in range(n)])
        if None in cols:
            raise InternalInvariantError("map is singular")
        den = self.den
        cols = [{i: den * v for i, v in col.items()} for col in cols]
        return LinearMap(self.target_basis, self.source_basis, cols)


def rank_kernel_image(m: LinearMap):
    """Rank and canonical sparse kernel basis (source coordinates) of a map.

    The kernel has one vector per free column f of the RREF: 1 at f, 0 at
    the other free columns and minus the RREF entry of column f at each
    pivot column.  An RREF row is zero left of its pivot, so each vector's
    positions come out in ascending order.

    The map's dense integer rows go through ``rref``, whose span the
    benchmark tracer reads; they are ``den`` times the matrix, and an RREF
    does not change under scaling, so rank and kernel are the map's own.
    """
    ncols = len(m.source_basis)
    rows = [[0] * ncols for _ in m.target_basis]
    for j, col in enumerate(m.int_columns):
        for i, a in col.items():
            rows[i][j] = a
    rr, pivots = rref(rows)
    pivot_set = set(pivots)
    kernel = []
    for f in range(ncols):
        if f not in pivot_set:
            vec = {c: -row[f] for row, c in zip(rr, pivots) if row[f]}
            vec[f] = _ONE
            kernel.append(vec)
    return len(pivots), kernel


class GradedPiece:
    """One graded component: ambient labels modulo a relation span.

    ``basis`` is the non-pivot subset of ``ambient``; ``sparse_coords`` is
    the normal form modulo the relation row space, in ``basis`` positions.
    The relations go into the elimination kernel as sparse rows and the
    piece keeps the kernel's primitive integer pivot rows; relation
    matrices in this package rarely have more than a few entries per row.
    """

    def __init__(self, ambient, relations):
        self.ambient = tuple(ambient)
        self._index = {lbl: i for i, lbl in enumerate(self.ambient)}
        self._sparse_rows = _gauss_jordan(  # pivot col -> {col: int}
            row for row in map(self._indexed, relations) if row
        )
        self._pivots = sorted(self._sparse_rows)
        self._basis_pos = {}  # ambient index -> basis position
        for i in range(len(self.ambient)):
            if i not in self._sparse_rows:
                self._basis_pos[i] = len(self._basis_pos)
        self.basis = tuple(self.ambient[i] for i in self._basis_pos)

    def _indexed(self, vec: dict) -> dict:
        """An ambient vector as ``{ambient index: coefficient}``, zeros dropped."""
        out: dict = {}
        for lbl, c in vec.items():
            if not c:
                continue
            try:
                out[self._index[lbl]] = c
            except KeyError:
                raise InternalInvariantError(f"label {lbl!r} outside ambient basis")
        return out

    @property
    def dim(self) -> int:
        return len(self.basis)

    def int_coords(self, row: dict, den: int = 1) -> tuple:
        """Normal form of the integer row ``row / den`` as ``(coords, den)``.

        ``row`` is ``{ambient label: int}``, an already cleared vector;
        ``coords`` is ``{basis position: int}`` over the returned ``den``.
        """
        acc = self._indexed(row)
        den *= _eliminate(acc, self._sparse_rows)
        pos = self._basis_pos
        return {pos[j]: v for j, v in acc.items()}, den

    def sparse_coords(self, vec: dict) -> dict:
        """Normal form of a rational vector as ``{basis position: Fraction}``, zeros dropped."""
        coords, den = self.int_coords(*_integer_row(vec))
        return {j: _ratio(v, den) for j, v in coords.items()}

    def is_relation(self, vec: dict) -> bool:
        return not self.int_coords(_integer_row(vec)[0])[0]

    def relation_rows(self):
        """Primitive integer rows, as ambient vectors, that span the relations.

        Each is an RREF relation row times its positive lead; callers that
        only need the span (well-definedness checks, re-presenting the
        piece) use them as they are.
        """
        amb = self.ambient
        for p in self._pivots:
            yield {amb[j]: v for j, v in self._sparse_rows[p].items()}
