"""Exact rational linear algebra on labeled bases.

The elimination core is an incremental sparse Gauss–Jordan over exact
rationals.  Rows are held as ``{column: Fraction}`` dicts, so no work is
spent on zero entries; each incoming row is reduced against the pivot
rows found so far, scaled to a leading 1, and its pivot column is cleared
from the earlier pivot rows.  A row space has exactly one RREF, so the
result does not depend on the order of the rows.

:class:`GradedPiece` is the quotient-space workhorse used by every graded
construction: an ambient labeled basis, a relation span in RREF, and a
normal form ``reduce`` onto the non-pivot labels.
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


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and pivot column indices.

    ``rows`` are dense and of equal length; the nonzero RREF rows come back
    dense, in pivot order.
    """
    ncols = len(rows[0]) if rows else 0
    pivot_rows: dict = {}
    for row in rows:
        acc = _eliminate({j: v for j, v in enumerate(row) if v}, pivot_rows)
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
    pivots = sorted(pivot_rows)
    out = []
    for p in pivots:
        dense = [_ZERO] * ncols
        dense[p] = _ONE
        for j, v in pivot_rows[p].items():
            dense[j] = v
        out.append(dense)
    return out, pivots


def solve(columns, target) -> tuple | None:
    """Coefficients x with sum_j x[j] * columns[j] == target, or None.

    ``columns`` and ``target`` are dense vectors of one length; None means
    the target lies outside the column span.  Free coefficients are 0.
    """
    k = len(columns)
    if not k:
        return None if any(target) else ()
    rows = [[col[i] for col in columns] + [target[i]] for i in range(len(target))]
    rr, pivots = rref(rows)
    if k in pivots:
        return None
    sol = [_ZERO] * k
    for row, p in zip(rr, pivots):
        sol[p] = row[k]
    return tuple(sol)


def _kernel_from_rref(rref_rows, pivots, ncols):
    """Canonical RREF null space: per free column, 1 there, 0 at the other free ones."""
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = {f: [_ZERO] * ncols for f in free}
    for f, vec in basis.items():
        vec[f] = _ONE
    for row, c in zip(rref_rows, pivots):
        for f in free:
            v = row[f]
            if v:
                basis[f][c] = -v
    return [tuple(vec) for vec in basis.values()]


@dataclass(frozen=True)
class LinearMap:
    """Matrix of an exact linear map, rows indexed by target basis."""

    source_basis: tuple
    target_basis: tuple
    matrix: tuple  # matrix[i][j]: coefficient of target i in image of source j

    def __post_init__(self):
        if len(self.matrix) != len(self.target_basis):
            raise InternalInvariantError("row count must match target basis")
        for row in self.matrix:
            if len(row) != len(self.source_basis):
                raise InternalInvariantError("column count must match source basis")

    @classmethod
    def from_columns(cls, source_basis, target_basis, columns) -> LinearMap:
        rows = tuple(
            tuple(columns[j][i] for j in range(len(source_basis)))
            for i in range(len(target_basis))
        )
        return cls(tuple(source_basis), tuple(target_basis), rows)

    @classmethod
    def zero(cls, source_basis, target_basis) -> LinearMap:
        row = (Fraction(0),) * len(source_basis)
        return cls(tuple(source_basis), tuple(target_basis), (row,) * len(target_basis))

    @classmethod
    def identity(cls, basis) -> LinearMap:
        n = len(basis)
        rows = tuple(
            tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
        )
        return cls(tuple(basis), tuple(basis), rows)

    @property
    def shape(self):
        return len(self.target_basis), len(self.source_basis)

    def apply(self, vec) -> tuple:
        support = [(j, x) for j, x in enumerate(vec) if x]
        return tuple(
            sum((row[j] * x for j, x in support), Fraction(0)) for row in self.matrix
        )

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.matrix)

    def compose(self, first: LinearMap) -> LinearMap:
        """self ∘ first."""
        if first.target_basis != self.source_basis:
            raise InternalInvariantError("composition basis mismatch")
        # sparse product: column k of self is only read where first has an
        # entry in row k, and only its nonzero entries are multiplied
        self_cols: list = [[] for _ in self.source_basis]
        for i, row in enumerate(self.matrix):
            for k, a in enumerate(row):
                if a:
                    self_cols[k].append((i, a))
        out = [[_ZERO] * len(first.source_basis) for _ in self.target_basis]
        for k, row in enumerate(first.matrix):
            col = self_cols[k]
            if not col:
                continue
            for j, b in enumerate(row):
                if b:
                    for i, a in col:
                        out[i][j] += a * b
        return LinearMap(first.source_basis, self.target_basis, tuple(map(tuple, out)))

    def add(self, other: LinearMap) -> LinearMap:
        rows = tuple(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.matrix, other.matrix)
        )
        return LinearMap(self.source_basis, self.target_basis, rows)

    def scale(self, c) -> LinearMap:
        c = Fraction(c)
        rows = tuple(tuple(c * a for a in row) for row in self.matrix)
        return LinearMap(self.source_basis, self.target_basis, rows)

    def is_zero(self) -> bool:
        return all(all(a == 0 for a in row) for row in self.matrix)

    def is_identity(self) -> bool:
        if self.source_basis != self.target_basis:
            return False
        return all(
            a == (1 if i == j else 0)
            for i, row in enumerate(self.matrix)
            for j, a in enumerate(row)
        )

    def inverse(self) -> LinearMap:
        n = len(self.source_basis)
        if len(self.target_basis) != n:
            raise InternalInvariantError("inverse of a non-square map")
        aug = [list(self.matrix[i]) + [Fraction(1 if j == i else 0) for j in range(n)]
               for i in range(n)]
        rows, pivots = rref(aug)
        if pivots != list(range(n)):
            raise InternalInvariantError("map is singular")
        inv = tuple(tuple(rows[i][n:]) for i in range(n))
        return LinearMap(self.target_basis, self.source_basis, inv)


def rank_kernel_image(m: LinearMap):
    """Rank, kernel basis (source coordinates), image basis (target coordinates)."""
    nrows, ncols = m.shape
    rr, pivots = rref(list(m.matrix))
    rank = len(pivots)
    kernel = _kernel_from_rref(rr, pivots, ncols) if ncols else []
    image = [m.column(j) for j in pivots]
    if rank + len(kernel) != ncols:
        raise InternalInvariantError("rank-nullity violated")
    return rank, kernel, image


@dataclass
class GradedPiece:
    """One graded component: ambient labels modulo a relation span.

    ``basis`` is the non-pivot subset of ``ambient``; ``reduce`` is the
    normal form modulo the relation row space, supported on ``basis``.
    The reduced relation rows are held sparsely; relation matrices in
    this package rarely have more than a few entries per row.
    """

    ambient: tuple
    basis: tuple = field(init=False)
    _index: dict = field(init=False, repr=False)
    _sparse_rows: dict = field(init=False, repr=False)  # pivot col -> {col: coeff}
    _pivots: list = field(init=False, repr=False)

    def __init__(self, ambient, relations):
        self.ambient = tuple(ambient)
        self._index = {lbl: i for i, lbl in enumerate(self.ambient)}
        rows = []
        for rel in relations:
            row = [Fraction(0)] * len(self.ambient)
            nonzero = False
            for lbl, c in rel.items():
                if c == 0:
                    continue
                try:
                    row[self._index[lbl]] = Fraction(c)
                except KeyError:
                    raise InternalInvariantError(
                        f"label {lbl!r} outside ambient basis"
                    )
                nonzero = True
            if nonzero:
                rows.append(row)
        rr, self._pivots = rref(rows) if rows else ([], [])
        self._sparse_rows = {}
        for row, p in zip(rr, self._pivots):
            self._sparse_rows[p] = {
                j: v for j, v in enumerate(row) if v and j != p
            }
        pivot_set = set(self._pivots)
        self.basis = tuple(
            lbl for i, lbl in enumerate(self.ambient) if i not in pivot_set
        )

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, vec: dict) -> dict:
        """Normal form of an ambient vector modulo the relation span."""
        acc: dict = {}
        for lbl, c in vec.items():
            if c == 0:
                continue
            try:
                j = self._index[lbl]
            except KeyError:
                raise InternalInvariantError(f"label {lbl!r} outside ambient basis")
            acc[j] = acc.get(j, _ZERO) + Fraction(c)
        _eliminate(acc, self._sparse_rows)
        return {self.ambient[j]: v for j, v in acc.items() if v}

    def coords(self, vec: dict) -> tuple:
        red = self.reduce(vec)
        return tuple(red.get(lbl, _ZERO) for lbl in self.basis)

    def is_relation(self, vec: dict) -> bool:
        return not self.reduce(vec)
