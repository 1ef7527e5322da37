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
on the order of the rows.  ``LinearMap.inverse`` eliminates
``[columns | identity]`` once and reads its integer columns off the pivot
rows over the lcm of their leads.

``Fraction`` appears only at the exit: ``rref`` divides each entry it
hands out by its row's lead, so every result is the same exact rational
as an elimination over ``Fraction`` would give.  Every vector handed in
or out is sparse, ``{position: coefficient}`` with zeros dropped.

:class:`LinearMap` stores primitive integer sparse columns over one
denominator, in a canonical form, so composition, sums, comparisons and
the ``d∘d = 0`` and chain-map checks cost O(nonzeros) integer operations
and build no ``Fraction``, nor does ``inverse``; the ``columns`` view is
where rationals leave it.  Its constructor takes any exact columns;
``compose`` and ``induced_map`` hand it columns that are already integer
and zero-free, so they skip the scan and the clearing.
``rank_kernel_image`` splits the map into connected blocks, columns linked
by shared rows (the differentials here are close to signed partial
permutations, so blocks are small).  A block of one row has rank 1 and a
closed-form kernel, the singleton pivot of structured Gaussian
elimination; every other block's dense integer rows go through ``rref``,
the dense-in/dense-out adapter of the kernel, because the benchmark tracer
reads the ``rref`` span.  The kernel comes back sparse.

:class:`GradedPiece` is the quotient-space workhorse used by every graded
construction: an ambient labeled basis, a relation span kept as the
kernel's primitive integer pivot rows, and one normal form onto the
non-pivot labels.  The normal form runs on integers with one common
denominator: ``int_coords`` takes an already cleared integer row and hands
the normal form out by basis position as integers over that denominator;
``is_relation`` takes a rational vector, clears it once and builds no
``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import InternalInvariantError, SingularMapError

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


class LinearMap:
    """Exact linear map, stored as primitive integer sparse columns over one denominator.

    ``int_columns[j]`` maps target positions to the nonzero integer
    coefficients of ``den`` times the image of source label j.  The form is
    canonical: ``den >= 1`` and the gcd of ``den`` and every entry is 1, so
    ``==`` and ``hash`` are exact.  Products, sums and comparisons run on
    integers in O(nonzeros); ``columns`` is a rational view built on each
    read.  Maps are immutable by convention.
    """

    __slots__ = ("source_basis", "target_basis", "int_columns", "den")

    def __init__(self, source_basis, target_basis, columns, den=1):
        """Build from ``{target position: int or Fraction}`` columns divided by ``den``.

        Zeros are dropped, denominators cleared into ``den`` and the result
        divided by its content.
        """
        cols = [{i: a for i, a in col.items() if a} for col in columns]
        if any(type(a) is not int for col in cols for a in col.values()):
            cols, q = common_denominator(map(_integer_row, cols))
            den *= q
        self._store(source_basis, target_basis, cols, den)

    @classmethod
    def _from_int_columns(cls, source_basis, target_basis, cols, den=1) -> LinearMap:
        """The map of integer columns that hold no zero, divided by ``den``.

        The caller vouches for both; only the content is divided out.
        """
        m = cls.__new__(cls)
        m._store(source_basis, target_basis, cols, den)
        return m

    def _store(self, source_basis, target_basis, cols, den) -> None:
        """Set the slots from integer columns that hold no zero, dividing out the content."""
        self.source_basis = tuple(source_basis)
        self.target_basis = tuple(target_basis)
        if len(cols) != len(self.source_basis):
            raise InternalInvariantError("column count must match source basis")
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
            if 0 in acc.values():
                acc = {i: v for i, v in acc.items() if v}
            cols.append(acc)
        return LinearMap._from_int_columns(
            first.source_basis, self.target_basis, cols, self.den * first.den
        )

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

        The RREF of ``[int_columns | identity]`` has a pivot right of the
        columns exactly when the map is singular; otherwise the pivot row of
        column p holds, in identity column t, entry p of the solution for
        e_t times its lead.  The integer columns are ``den`` times the map,
        so their solutions are the inverse's columns divided by ``den``:
        integers over the lcm of the leads.
        """
        n = len(self.source_basis)
        if len(self.target_basis) != n:
            raise InternalInvariantError("inverse of a non-square map")
        rows = [{n + i: 1} for i in range(n)]
        for j, col in enumerate(self.int_columns):
            for i, a in col.items():
                rows[i][j] = a
        solved = _gauss_jordan(rows)
        if any(p >= n for p in solved):
            raise SingularMapError("map is singular")
        lead = lcm(*(row[p] for p, row in solved.items()))
        cols = [
            {p: self.den * (lead // row[p]) * row[t] for p, row in solved.items() if t in row}
            for t in range(n, 2 * n)
        ]
        return LinearMap(self.target_basis, self.source_basis, cols, lead)


def _column_blocks(columns) -> list:
    """The connected blocks of sparse columns, as lists of column positions.

    Two columns are in one block when a chain of shared rows links them;
    a zero column is a block of its own.  Each block lists its columns in
    ascending order, and the blocks come in order of their first column.
    """
    parent = list(range(len(columns)))

    def root(j):
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        return j

    owner: dict = {}  # row -> the first column seen holding it
    for j, col in enumerate(columns):
        for i in col:
            k = owner.setdefault(i, j)
            if k != j:
                a, b = root(j), root(k)
                if a != b:
                    parent[max(a, b)] = min(a, b)
    blocks: dict = {}
    for j in range(len(columns)):
        blocks.setdefault(root(j), []).append(j)
    return list(blocks.values())


def rank_kernel_image(m: LinearMap):
    """Rank and canonical sparse kernel basis (source coordinates) of a map.

    The kernel has one vector per free column f of the RREF: 1 at f, 0 at
    the other free columns and minus the RREF entry of column f at each
    pivot column.  An RREF row is zero left of its pivot, so each vector's
    positions come out in ascending order, and the vectors are listed by
    ascending free column.

    The map is ranked block by block (:func:`_column_blocks`).  Blocks
    share no row, so after a permutation the matrix is block diagonal, and
    its RREF rows are those of the blocks' RREFs: each has its support in
    one block.  Pivots, free columns and kernel vectors are therefore the
    whole matrix's, the same Fractions in the same order.  A zero column is
    free with the unit kernel vector; a block of one nonzero column is its
    own pivot.  A block of one row ``(a, b_1, ..., b_k)`` has the RREF row
    ``(1, b_1/a, ..., b_k/a)``, so it adds 1 to the rank with its first
    column as pivot, and each later column f the kernel vector
    ``{first: -b_f/a, f: 1}``.  Every other block's dense integer rows,
    rows and columns in ascending order, go through ``rref``, whose span
    the benchmark tracer reads; they are ``den`` times the matrix, and an
    RREF does not change under scaling, so rank and kernel are the map's
    own.
    """
    cols = m.int_columns
    rank = 0
    kernel = []  # (free column, vector)
    for block in _column_blocks(cols):
        if len(block) == 1:
            (j,) = block
            if cols[j]:
                rank += 1
            else:
                kernel.append((j, {j: _ONE}))
            continue
        if all(len(cols[j]) == 1 for j in block):
            # connected, so every column holds the one row: rank 1, pivot block[0]
            j0 = block[0]
            ((i, a),) = cols[j0].items()
            rank += 1
            for f in block[1:]:
                kernel.append((f, {j0: Fraction(-cols[f][i], a), f: _ONE}))
            continue
        row_pos = {i: k for k, i in enumerate(sorted({i for j in block for i in cols[j]}))}
        rows = [[0] * len(block) for _ in row_pos]
        for k, j in enumerate(block):
            for i, a in cols[j].items():
                rows[row_pos[i]][k] = a
        rr, pivots = rref(rows)
        rank += len(pivots)
        pivot_set = set(pivots)
        for f in range(len(block)):
            if f not in pivot_set:
                vec = {block[c]: -row[f] for row, c in zip(rr, pivots) if row[f]}
                vec[block[f]] = _ONE
                kernel.append((block[f], vec))
    kernel.sort(key=lambda fv: fv[0])
    return rank, [vec for _f, vec in kernel]


class GradedPiece:
    """One graded component: ambient labels modulo a relation span.

    ``basis`` is the non-pivot subset of ``ambient``; ``int_coords`` is
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
        if not self._sparse_rows:  # its own normal form; positions are ambient indices
            return acc, den
        den *= _eliminate(acc, self._sparse_rows)
        pos = self._basis_pos
        return {pos[j]: v for j, v in acc.items()}, den

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
