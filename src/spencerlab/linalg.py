"""Exact rational linear algebra on labeled bases.

The one elimination kernel, ``_gauss_jordan``, is an incremental sparse
Gauss–Jordan over exact rationals.  Rows are held as ``{column: Fraction}``
dicts, so no work is spent on zero entries; each incoming row is reduced
against the pivot rows found so far, scaled to a leading 1, and its pivot
column is cleared from the earlier pivot rows.  A row space has exactly one
RREF, so the result does not depend on the order of the rows.
``solve_columns`` solves many sparse targets against one set of sparse
columns in a single elimination; ``LinearMap.inverse`` is built on it.

Every vector handed in or out is sparse, ``{position: Fraction}`` with
zeros dropped.  :class:`LinearMap` stores sparse columns, so composition,
sums, comparisons and ``apply`` cost O(nonzeros).

``rank_kernel_image`` is the last dense route: it eliminates the dense
``matrix`` view of a map through ``rref``, the dense-in/dense-out adapter
of the kernel, because the benchmark tracer reads the ``rref`` span.  It
stays so until the benchmark changes; its kernel comes back sparse.

:class:`GradedPiece` is the quotient-space workhorse used by every graded
construction: an ambient labeled basis, a relation span in RREF (the
relations go into the kernel as sparse rows), and a normal form
``reduce`` onto the non-pivot labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InternalInvariantError

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _sub_scaled(acc: dict, f, row: dict) -> None:
    """acc -= f * row on sparse vectors, dropping entries that cancel."""
    for j, b in row.items():
        v = acc.get(j, _ZERO) - f * b
        if v:
            acc[j] = v
        else:
            del acc[j]


def _eliminate(acc: dict, pivot_rows: dict) -> dict:
    """Normal form of a sparse vector modulo RREF rows, in place.

    ``pivot_rows`` maps each pivot column to its row without the leading 1.
    Such a row has no entry in any other pivot column, so one pass in
    ascending pivot order clears them all.
    """
    for p in sorted(c for c in acc if c in pivot_rows):
        _sub_scaled(acc, acc.pop(p), pivot_rows[p])
    return acc


def _gauss_jordan(rows) -> dict:
    """Sparse RREF of ``{column: Fraction}`` rows; the one elimination kernel.

    The rows must hold nonzero entries only and are consumed.  Returns
    ``{pivot column: RREF row without its leading 1}``.
    """
    pivot_rows: dict = {}
    for acc in rows:
        _eliminate(acc, pivot_rows)
        if not acc:
            continue
        # pivoting on the leftmost entry keeps every pivot row zero left of
        # its pivot, so the pivots found are those of the RREF
        lead = min(acc)
        inv = _ONE / acc.pop(lead)
        new = {j: v * inv for j, v in acc.items()}
        for prow in pivot_rows.values():
            f = prow.pop(lead, None)
            if f is not None:
                _sub_scaled(prow, f, new)
        pivot_rows[lead] = new
    return pivot_rows


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and pivot column indices.

    ``rows`` are dense and of equal length; the nonzero RREF rows come back
    dense, in pivot order.
    """
    ncols = len(rows[0]) if rows else 0
    pivot_rows = _gauss_jordan({j: v for j, v in enumerate(row) if v} for row in rows)
    pivots = sorted(pivot_rows)
    out = []
    for p in pivots:
        dense = [_ZERO] * ncols
        dense[p] = _ONE
        for j, v in pivot_rows[p].items():
            dense[j] = v
        out.append(dense)
    return out, pivots


def solve_columns(columns, targets) -> list:
    """Per target b, the sparse x with sum_j x[j] * columns[j] == b, or None.

    ``columns`` and ``targets`` are sparse ``{row: coefficient}`` vectors;
    each x comes back as ``{j: coefficient}``, with free coefficients 0.
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
            outside.add(p)
            outside.update(row)
    solved = {p: row for p, row in pivot_rows.items() if p < k}
    out = []
    for t in range(k, k + len(targets)):
        if t in outside:
            out.append(None)
        else:
            out.append({p: row[t] for p, row in solved.items() if t in row})
    return out


class LinearMap:
    """Exact linear map, stored as sparse columns.

    ``columns[j]`` maps target positions to the nonzero coefficients of the
    image of source label j, so products, sums and comparisons cost
    O(nonzeros).  ``matrix`` is a dense view built on each read.  Maps are
    immutable by convention: nothing writes to ``columns`` once built.
    """

    __slots__ = ("source_basis", "target_basis", "columns")

    def __init__(self, source_basis, target_basis, rows):
        """Build from dense rows; rows[i][j] is target i's coefficient in the image of j."""
        self.source_basis = tuple(source_basis)
        self.target_basis = tuple(target_basis)
        if len(rows) != len(self.target_basis):
            raise InternalInvariantError("row count must match target basis")
        cols: list = [{} for _ in self.source_basis]
        for i, row in enumerate(rows):
            if len(row) != len(self.source_basis):
                raise InternalInvariantError("column count must match source basis")
            for col, a in zip(cols, row):
                if a:
                    col[i] = a
        self.columns = tuple(cols)

    @classmethod
    def from_sparse_columns(cls, source_basis, target_basis, columns) -> LinearMap:
        """Build from ``{target position: coefficient}`` columns, dropping zeros."""
        m = cls.__new__(cls)
        m.source_basis = tuple(source_basis)
        m.target_basis = tuple(target_basis)
        m.columns = tuple({i: a for i, a in col.items() if a} for col in columns)
        if len(m.columns) != len(m.source_basis):
            raise InternalInvariantError("column count must match source basis")
        return m

    @classmethod
    def zero(cls, source_basis, target_basis) -> LinearMap:
        return cls.from_sparse_columns(source_basis, target_basis, [{}] * len(source_basis))

    @classmethod
    def identity(cls, basis) -> LinearMap:
        return cls.from_sparse_columns(basis, basis, ({j: _ONE} for j in range(len(basis))))

    @property
    def shape(self):
        return len(self.target_basis), len(self.source_basis)

    @property
    def matrix(self) -> tuple:
        """Dense view, built on each read: matrix[i][j] as in the dense constructor."""
        rows = [[_ZERO] * len(self.source_basis) for _ in self.target_basis]
        for j, col in enumerate(self.columns):
            for i, a in col.items():
                rows[i][j] = a
        return tuple(map(tuple, rows))

    def __eq__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        return (
            self.columns == other.columns
            and self.source_basis == other.source_basis
            and self.target_basis == other.target_basis
        )

    def __hash__(self):
        cols = tuple(frozenset(col.items()) for col in self.columns)
        return hash((self.source_basis, self.target_basis, cols))

    def __repr__(self):
        return (
            f"LinearMap({self.source_basis!r}, {self.target_basis!r}, "
            f"columns={self.columns!r})"
        )

    def apply(self, vec: dict) -> dict:
        """Image of a sparse ``{source position: coefficient}`` vector, zeros dropped."""
        out: dict = {}
        for j, x in vec.items():
            for i, a in self.columns[j].items():
                out[i] = out.get(i, _ZERO) + a * x
        return {i: v for i, v in out.items() if v}

    def compose(self, first: LinearMap) -> LinearMap:
        """self ∘ first."""
        if first.target_basis != self.source_basis:
            raise InternalInvariantError("composition basis mismatch")
        outer = self.columns
        cols = []
        for fcol in first.columns:
            acc: dict = {}
            for k, b in fcol.items():
                for i, a in outer[k].items():
                    acc[i] = acc.get(i, _ZERO) + a * b
            cols.append(acc)
        return LinearMap.from_sparse_columns(
            first.source_basis, self.target_basis, cols
        )

    def add(self, other: LinearMap) -> LinearMap:
        bases = (self.source_basis, self.target_basis)
        if (other.source_basis, other.target_basis) != bases:
            raise InternalInvariantError("sum of maps between different bases")
        cols = []
        for ca, cb in zip(self.columns, other.columns):
            acc = dict(ca)
            for i, b in cb.items():
                acc[i] = acc.get(i, _ZERO) + b
            cols.append(acc)
        return LinearMap.from_sparse_columns(self.source_basis, self.target_basis, cols)

    def scale(self, c) -> LinearMap:
        c = Fraction(c)
        cols = ({i: c * a for i, a in col.items()} for col in self.columns)
        return LinearMap.from_sparse_columns(self.source_basis, self.target_basis, cols)

    def is_zero(self) -> bool:
        return not any(self.columns)

    def is_identity(self) -> bool:
        if self.source_basis != self.target_basis:
            return False
        return all(col == {j: 1} for j, col in enumerate(self.columns))

    def inverse(self) -> LinearMap:
        """Column j of the inverse solves self(x) = e_j; all in one elimination."""
        n = len(self.source_basis)
        if len(self.target_basis) != n:
            raise InternalInvariantError("inverse of a non-square map")
        cols = solve_columns(self.columns, [{j: _ONE} for j in range(n)])
        if None in cols:
            raise InternalInvariantError("map is singular")
        return LinearMap.from_sparse_columns(self.target_basis, self.source_basis, cols)


def rank_kernel_image(m: LinearMap):
    """Rank and canonical sparse kernel basis (source coordinates) of a map.

    The kernel has one vector per free column f of the RREF: 1 at f, 0 at
    the other free columns and minus the RREF entry of column f at each
    pivot column.  An RREF row is zero left of its pivot, so each vector's
    positions come out in ascending order.

    This is the last dense route in the package: it eliminates the dense
    ``matrix`` view through ``rref``, whose span the benchmark tracer
    reads, and stays so until the benchmark moves that span.
    """
    ncols = len(m.source_basis)
    rr, pivots = rref(list(m.matrix))
    pivot_set = set(pivots)
    kernel = []
    for f in range(ncols):
        if f not in pivot_set:
            vec = {c: -row[f] for row, c in zip(rr, pivots) if row[f]}
            vec[f] = _ONE
            kernel.append(vec)
    if len(pivots) + len(kernel) != ncols:
        raise InternalInvariantError("rank-nullity violated")
    return len(pivots), kernel


@dataclass
class GradedPiece:
    """One graded component: ambient labels modulo a relation span.

    ``basis`` is the non-pivot subset of ``ambient``; ``reduce`` is the
    normal form modulo the relation row space, supported on ``basis``.
    The relations go into the elimination kernel as sparse rows and the
    reduced relation rows stay sparse; relation matrices in this package
    rarely have more than a few entries per row.
    """

    ambient: tuple
    basis: tuple = field(init=False)
    _index: dict = field(init=False, repr=False)
    _basis_pos: dict = field(init=False, repr=False)  # ambient index -> basis position
    _sparse_rows: dict = field(init=False, repr=False)  # pivot col -> {col: coeff}
    _pivots: list = field(init=False, repr=False)

    def __init__(self, ambient, relations):
        self.ambient = tuple(ambient)
        self._index = {lbl: i for i, lbl in enumerate(self.ambient)}
        self._sparse_rows = _gauss_jordan(
            row for row in map(self._indexed, relations) if row
        )
        self._pivots = sorted(self._sparse_rows)
        self._basis_pos = {}
        for i in range(len(self.ambient)):
            if i not in self._sparse_rows:
                self._basis_pos[i] = len(self._basis_pos)
        self.basis = tuple(self.ambient[i] for i in self._basis_pos)

    def _indexed(self, vec: dict) -> dict:
        """An ambient vector as ``{ambient index: Fraction}``, zeros dropped."""
        out: dict = {}
        for lbl, c in vec.items():
            if c == 0:
                continue
            try:
                out[self._index[lbl]] = Fraction(c)
            except KeyError:
                raise InternalInvariantError(f"label {lbl!r} outside ambient basis")
        return out

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, vec: dict) -> dict:
        """Normal form of an ambient vector modulo the relation span."""
        acc = _eliminate(self._indexed(vec), self._sparse_rows)
        return {self.ambient[j]: v for j, v in acc.items()}

    def sparse_coords(self, vec: dict) -> dict:
        """Normal form as ``{basis position: coefficient}``, zeros dropped."""
        acc = _eliminate(self._indexed(vec), self._sparse_rows)
        pos = self._basis_pos
        return {pos[j]: v for j, v in acc.items()}

    def is_relation(self, vec: dict) -> bool:
        return not _eliminate(self._indexed(vec), self._sparse_rows)

    def relation_rows(self):
        """The RREF relation rows as ambient vectors; they span the relations."""
        amb = self.ambient
        for p in self._pivots:
            row = {amb[p]: _ONE}
            row.update((amb[j], v) for j, v in self._sparse_rows[p].items())
            yield row
