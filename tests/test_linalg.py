from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spencerlab.errors import InternalInvariantError
from spencerlab.linalg import (
    GradedPiece,
    LinearMap,
    rank_kernel_image,
    rref,
    solve_columns,
)

F = Fraction


def test_identity_map():
    m = LinearMap.identity(("a", "b", "c"))
    rank, kernel = rank_kernel_image(m)
    assert rank == 3 and kernel == []


def test_zero_map():
    m = LinearMap.zero(("a", "b"), ("u", "v"))
    rank, kernel = rank_kernel_image(m)
    assert rank == 0 and kernel == [{0: F(1)}, {1: F(1)}]


def test_proportional_rows():
    m = _dense_map(("a", "b"), ("u", "v"), ((F(1), F(2)), (F(2), F(4))))
    rank, kernel = rank_kernel_image(m)
    assert rank == 1
    assert len(kernel) == 1
    v = kernel[0]
    # kernel spanned by (2, -1) up to scale
    assert v[0] * F(-1) == v[1] * F(2)


entries = st.fractions(min_value=-5, max_value=5, max_denominator=3)


@given(
    st.integers(1, 5).flatmap(
        lambda rows: st.integers(1, 5).flatmap(
            lambda cols: st.lists(
                st.lists(entries, min_size=cols, max_size=cols),
                min_size=rows,
                max_size=rows,
            )
        )
    )
)
def test_rank_nullity_random(matrix):
    nrows, ncols = len(matrix), len(matrix[0])
    m = _dense_map(
        tuple(range(ncols)), tuple(range(nrows)), tuple(tuple(r) for r in matrix)
    )
    rank, kernel = rank_kernel_image(m)
    assert rank + len(kernel) == ncols
    for v in kernel:
        assert m.apply(v) == {}


def _plain_rref(rows):
    rows = [list(map(F, r)) for r in rows if any(r)]
    piv = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        piv.append(c)
        r += 1
    return [rows[i] for i in range(len(piv))], piv


@given(
    st.integers(1, 5).flatmap(
        lambda rows: st.integers(1, 6).flatmap(
            lambda cols: st.lists(
                st.lists(entries, min_size=cols, max_size=cols),
                min_size=rows,
                max_size=rows,
            )
        )
    )
)
def test_bareiss_rref_matches_plain_gauss(matrix):
    got_rows, got_piv = rref([list(r) for r in matrix])
    want_rows, want_piv = _plain_rref(matrix)
    assert got_piv == want_piv
    assert [list(r) for r in got_rows] == [list(r) for r in want_rows]


def _dense_map(source_basis, target_basis, rows):
    """A map from dense rows: rows[i][j] is target i's coefficient in the image of j.

    Kept as a dense oracle for the sparse-column :class:`LinearMap`.
    """
    assert len(rows) == len(target_basis)
    assert all(len(row) == len(source_basis) for row in rows)
    columns = [
        {i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(len(source_basis))
    ]
    return LinearMap(source_basis, target_basis, columns)


def _bareiss_rref(rows):
    """Fraction-free (Bareiss) elimination on integer rows, then a rational RREF.

    Kept as an independent oracle for :func:`rref`.
    """
    work = []
    for row in rows:
        if not any(row):
            continue
        den = 1
        for c in row:
            den = den * c.denominator // gcd(den, c.denominator)
        work.append([int(c * den) for c in row])
    if not work:
        return [], []
    ncols = len(work[0])
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        piv = work[r][c]
        # one Bareiss step on every lower row; the division is exact
        for i in range(r + 1, len(work)):
            fic = work[i][c]
            work[i] = [(a * piv - fic * b) // prev for a, b in zip(work[i], work[r])]
        pivots.append(c)
        prev = piv
        r += 1
        if r == len(work):
            break
    out = [[F(v, work[i][c]) for v in work[i]] for i, c in enumerate(pivots)]
    for i in reversed(range(len(out))):
        c = pivots[i]
        for k in range(i):
            f = out[k][c]
            if f:
                out[k] = [a - f * b for a, b in zip(out[k], out[i])]
    return out, pivots


def _sparse_matrices(max_rows, max_cols, fill):
    """Matrices with about ``fill`` of their cells set, drawn as (row, col, value)."""

    def build(shape):
        rows, cols = shape
        cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1), entries)

        def dense(triples):
            matrix = [[F(0)] * cols for _ in range(rows)]
            for i, j, v in triples:
                matrix[i][j] = v
            return matrix

        return st.lists(cells, max_size=int(rows * cols * fill) + 1).map(dense)

    return st.tuples(st.integers(1, max_rows), st.integers(1, max_cols)).flatmap(build)


def _matrices(max_rows, max_cols, entry):
    return st.integers(1, max_rows).flatmap(
        lambda rows: st.integers(1, max_cols).flatmap(
            lambda cols: st.lists(
                st.lists(entry, min_size=cols, max_size=cols),
                min_size=rows,
                max_size=rows,
            )
        )
    )


big_entries = st.fractions(
    min_value=-(10**30), max_value=10**30, max_denominator=10**20
)


def _with_zero_and_duplicate_rows(matrix, picks):
    """Append an all-zero row and copies of some existing rows."""
    ncols = len(matrix[0])
    out = [list(r) for r in matrix] + [[F(0)] * ncols]
    out += [list(matrix[k % len(matrix)]) for k in picks]
    return out


# -- oracles for the fraction-free kernel ---------------------------------------
# The kernel clears denominators and keeps primitive integer rows, so it must
# agree with the rational Bareiss RREF on entries that are not small integers:
# rationals with large denominators, integers beyond 64 bits, negative leads.

kernel_entries = st.one_of(
    st.just(F(0)),
    st.integers(-3, 3).map(F),
    st.builds(F, st.integers(-(10**6), 10**6), st.integers(1, 10**6)),
    st.integers(-(2**100), 2**100).map(F),
    st.builds(F, st.integers(-(2**80), 2**80), st.integers(1, 10**6)),
)


@st.composite
def _kernel_matrices(draw, max_rows=6, max_cols=7):
    """Rows of mixed entries, some negated, plus zero rows and scaled duplicates.

    Negating a row flips the sign of its lead; a duplicate scaled by a drawn
    rational (possibly negative) adds a dependent row with other contents.
    """
    matrix = draw(_matrices(max_rows, max_cols, kernel_entries))
    ncols = len(matrix[0])
    out = [[-v for v in row] if draw(st.booleans()) else list(row) for row in matrix]
    for _ in range(draw(st.integers(0, 2))):
        out.insert(draw(st.integers(0, len(out))), [F(0)] * ncols)
    for k in draw(st.lists(st.integers(0, len(matrix) - 1), max_size=3)):
        c = draw(st.sampled_from([F(1), F(-1), F(-7, 3), F(2**70, 9)]))
        out.insert(draw(st.integers(0, len(out))), [c * v for v in matrix[k]])
    return out


@given(
    st.one_of(
        _matrices(6, 6, entries),
        _sparse_matrices(12, 30, 0.1),
        _matrices(5, 5, big_entries),
        _kernel_matrices(),
    ),
    st.lists(st.integers(0, 50), max_size=3),
    st.booleans(),
)
def test_sparse_rref_matches_bareiss_and_plain_gauss(matrix, picks, extra_rows):
    if extra_rows:
        matrix = _with_zero_and_duplicate_rows(matrix, picks)
    got_rows, got_piv = rref([list(r) for r in matrix])
    for want_rows, want_piv in (_bareiss_rref(matrix), _plain_rref(matrix)):
        assert got_piv == want_piv
        assert [list(r) for r in got_rows] == [list(r) for r in want_rows]
    assert all(isinstance(v, Fraction) for row in got_rows for v in row)


def _bareiss_normal_form(rr, piv, vec):
    """``vec`` modulo the row span of the RREF rows ``rr`` (pivots ``piv``)."""
    out = list(vec)
    for row, p in zip(rr, piv):
        f = out[p]
        if f:
            out = [a - f * b for a, b in zip(out, row)]
    return out


@given(
    _kernel_matrices(),
    st.lists(st.lists(kernel_entries, min_size=7, max_size=7), min_size=1, max_size=3),
    st.lists(kernel_entries, min_size=12, max_size=12),
)
def test_graded_piece_matches_bareiss_normal_form(matrix, drawn, coeffs):
    ncols = len(matrix[0])
    ambient = tuple(f"e{j}" for j in range(ncols))
    piece = GradedPiece(ambient, [dict(zip(ambient, row)) for row in matrix])
    rr, piv = _bareiss_rref(matrix)
    assert piece.basis == tuple(a for j, a in enumerate(ambient) if j not in piv)
    # drawn vectors, and a combination of the relations that must reduce to 0
    combo = [sum((c * row[j] for c, row in zip(coeffs, matrix)), F(0)) for j in range(ncols)]
    vectors = [vec[:ncols] for vec in drawn] + [combo]
    basis_pos = {ambient.index(lbl): k for k, lbl in enumerate(piece.basis)}
    for vec in vectors:
        nf = _bareiss_normal_form(rr, piv, vec)
        ambient_vec = dict(zip(ambient, vec))
        coords = piece.sparse_coords(ambient_vec)
        assert coords == {basis_pos[j]: v for j, v in enumerate(nf) if v}
        assert all(type(v) is Fraction for v in coords.values())
        assert piece.is_relation(ambient_vec) == (not any(nf))
    assert piece.is_relation(dict(zip(ambient, combo)))
    # the relation rows are the RREF rows times their leads: primitive
    # integer rows with a positive lead at the pivot
    rows = list(piece.relation_rows())
    assert len(rows) == len(rr)
    for row, want, p in zip(rows, rr, piv):
        assert all(type(v) is int for v in row.values())
        assert gcd(*row.values()) == 1
        lead = row[ambient[p]]
        assert lead > 0 and min(ambient.index(lbl) for lbl in row) == p
        assert [F(row.get(lbl, 0), lead) for lbl in ambient] == want


@given(_sparse_matrices(8, 12, 0.3))
def test_kernel_is_canonical_rref_null_space(matrix):
    nrows, ncols = len(matrix), len(matrix[0])
    m = _dense_map(
        tuple(range(ncols)), tuple(range(nrows)), tuple(tuple(r) for r in matrix)
    )
    rank, kernel = rank_kernel_image(m)
    rr, piv = _bareiss_rref(matrix)
    free = [c for c in range(ncols) if c not in piv]
    assert rank == len(piv) and len(kernel) == len(free)
    # one vector per free column: 1 there, 0 at the other free columns, and
    # minus the RREF entries of that column at the pivot columns
    for f, vec in zip(free, kernel):
        assert [vec.get(g, 0) for g in free] == [F(int(g == f)) for g in free]
        assert [vec.get(c, 0) for c in piv] == [-row[f] for row in rr]
        # sparse: zeros dropped, positions in ascending order
        assert all(vec.values()) and list(vec) == sorted(vec)


def _sparse(vec):
    return {i: v for i, v in enumerate(vec) if v}


def _bareiss_solve(columns, target):
    """Dense x with sum_j x[j] * columns[j] == target, or None; free coefficients 0.

    An oracle for :func:`solve_columns` that shares no code with it: the
    Bareiss RREF of ``[columns | target]`` has a pivot in the target column
    exactly when the target lies outside the column span, and otherwise the
    target column holds x at the pivot rows.
    """
    k = len(columns)
    rows = [[col[i] for col in columns] + [target[i]] for i in range(len(target))]
    rr, piv = _bareiss_rref(rows)
    if k in piv:
        return None
    x = [F(0)] * k
    for row, p in zip(rr, piv):
        x[p] = row[k]
    return tuple(x)


@given(_sparse_matrices(6, 4, 0.6), st.lists(entries, min_size=6, max_size=6))
def test_solve_recovers_combinations(matrix, coeffs):
    columns = [list(r) for r in matrix]  # each drawn row is one column

    def combine(xs):
        return [sum((xs.get(j, F(0)) * col[i] for j, col in enumerate(columns)), F(0))
                for i in range(len(columns[0]))]

    target = combine(dict(enumerate(coeffs)))
    (sol,) = solve_columns([_sparse(c) for c in columns], [_sparse(target)])
    assert sol is not None and set(sol) <= set(range(len(columns)))
    assert combine(sol) == target


def test_solve_outside_span_and_empty():
    assert solve_columns([{0: F(1)}], [{1: F(1)}]) == [None]
    assert solve_columns([], [{}]) == [{}]
    assert solve_columns([], [{1: F(3)}]) == [None]
    assert solve_columns([{0: F(2), 1: F(4)}], [{0: F(1), 1: F(2)}]) == [{0: F(1, 2)}]
    assert solve_columns([{0: F(1)}], []) == []


def test_compose_skips_zeros_exactly():
    a = _dense_map(("p", "q"), ("u", "v", "w"),
                   ((F(1), F(0)), (F(0), F(0)), (F(-2), F(3, 5))))
    b = _dense_map(("s", "t"), ("p", "q"), ((F(0), F(7)), (F(1, 3), F(0))))
    got = a.compose(b)
    assert got.source_basis == ("s", "t") and got.target_basis == ("u", "v", "w")
    assert got.matrix == ((F(0), F(7)), (F(0), F(0)), (F(1, 5), F(-14)))
    assert all(isinstance(x, Fraction) for row in got.matrix for x in row)


def test_graded_piece_reduce():
    piece = GradedPiece(("a", "b", "c"), [{"a": F(1), "b": F(-1)}])
    assert piece.dim == 2
    assert piece.basis == ("b", "c")
    # a == b modulo the relation, so 3a reduces onto b, basis position 0
    assert piece.sparse_coords({"a": F(3)}) == {0: F(3)}
    assert piece.is_relation({"a": F(2), "b": F(-2)})
    assert not piece.is_relation({"c": F(1)})


@given(_sparse_matrices(6, 8, 0.4))
def test_relation_rows_rebuild_the_same_piece(matrix):
    ambient = tuple(f"e{j}" for j in range(len(matrix[0])))
    relations = [{ambient[j]: v for j, v in enumerate(row)} for row in matrix]
    piece = GradedPiece(ambient, relations)
    rows = list(piece.relation_rows())
    assert len(rows) == len(ambient) - piece.dim
    rebuilt = GradedPiece(ambient, rows)
    assert rebuilt.basis == piece.basis
    # the normal form is linear, so agreeing on every unit vector is agreeing everywhere
    for lbl in ambient:
        assert rebuilt.sparse_coords({lbl: F(1)}) == piece.sparse_coords({lbl: F(1)})
    for rel in relations:
        assert rebuilt.is_relation(rel)


def test_constructor_drops_zeros_and_checks_the_column_count():
    m = LinearMap(("a", "b"), ("u",), [{0: F(0)}, {0: F(2)}])
    assert m.columns == ({}, {0: F(2)})
    with pytest.raises(InternalInvariantError, match="column count"):
        LinearMap(("a", "b"), ("u",), [{0: F(1)}])


def test_inverse_roundtrip():
    m = _dense_map(("a", "b"), ("a", "b"), ((F(2), F(1)), (F(1), F(1))))
    inv = m.inverse()
    assert m.compose(inv).is_identity()
    assert inv.compose(m).is_identity()
    assert inv.source_basis == m.target_basis and inv.target_basis == m.source_basis


def test_inverse_of_singular_or_nonsquare_map_raises():
    singular = _dense_map(("a", "b"), ("u", "v"), ((F(1), F(2)), (F(2), F(4))))
    with pytest.raises(InternalInvariantError, match="singular"):
        singular.inverse()
    with pytest.raises(InternalInvariantError, match="non-square"):
        LinearMap.zero(("a", "b"), ("u",)).inverse()
    assert LinearMap.identity(()).inverse() == LinearMap.identity(())


# -- dense oracle for the sparse maps ------------------------------------------
# The dense row-major LinearMap operations, kept as an independent oracle for
# the sparse-column storage.


def _dense_apply(rows, vec):
    support = [(j, x) for j, x in enumerate(vec) if x]
    return tuple(sum((row[j] * x for j, x in support), F(0)) for row in rows)


def _dense_compose(outer, first, ncols):
    """outer ∘ first as dense rows; ``ncols`` is first's source dimension."""
    out = [[F(0)] * ncols for _ in outer]
    for i, row in enumerate(outer):
        for k, a in enumerate(row):
            for j in range(ncols):
                out[i][j] += a * first[k][j]
    return tuple(map(tuple, out))


def _dense_add(ra, rb):
    return tuple(tuple(a + b for a, b in zip(x, y)) for x, y in zip(ra, rb))


def _dense_scale(rows, c):
    return tuple(tuple(F(c) * a for a in row) for row in rows)


def _dense_is_zero(rows):
    return all(all(a == 0 for a in row) for row in rows)


def _dense_is_identity(rows, ncols):
    return len(rows) == ncols and all(
        a == (1 if i == j else 0) for i, row in enumerate(rows) for j, a in enumerate(row)
    )


def _sparse_dense(rows, cols, fill, unit=False):
    """Dense rows of shape rows x cols (either may be 0), about ``fill`` set.

    With ``unit`` the drawn cells overwrite an identity matrix instead of a
    zero one, so square draws are sometimes exactly the identity.
    """
    if not rows or not cols:
        return st.just([[F(0)] * cols for _ in range(rows)])
    cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1), entries)

    def dense(triples):
        matrix = [[F(int(unit and i == j)) for j in range(cols)] for i in range(rows)]
        for i, j, v in triples:
            matrix[i][j] = v
        return matrix

    return st.lists(cells, max_size=int(rows * cols * fill) + 1).map(dense)


@st.composite
def _map_family(draw):
    """A: k -> m, B: n -> k, C: k -> m, S: k -> k, a vector and a scalar."""
    m, k, n = (draw(st.integers(0, 5)) for _ in range(3))
    fill = draw(st.sampled_from([0.0, 0.2, 0.6]))
    a = draw(_sparse_dense(m, k, fill))
    b = draw(_sparse_dense(k, n, fill))
    c = draw(st.one_of(st.just(a), _sparse_dense(m, k, fill)))
    sq = draw(_sparse_dense(k, k, fill, unit=draw(st.booleans())))
    vec = draw(st.lists(entries, min_size=k, max_size=k))
    scalar = draw(st.one_of(st.just(F(0)), entries))
    return (m, k, n), a, b, c, sq, vec, scalar


@given(_map_family())
def test_sparse_maps_match_dense_oracle(family):
    (m, k, n), a, b, c, sq, vec, scalar = family
    src = tuple(f"s{j}" for j in range(n))
    mid = tuple(range(k))
    tgt = tuple(f"t{i}" for i in range(m))
    A, B, C = _dense_map(mid, tgt, a), _dense_map(src, mid, b), _dense_map(mid, tgt, c)
    S = _dense_map(mid, mid, sq)
    dense_a = tuple(map(tuple, a))
    assert A.matrix == dense_a and A.shape == (m, k)
    assert A.compose(B).matrix == _dense_compose(a, b, n)
    assert A.add(C).matrix == _dense_add(a, c)
    assert A.scale(scalar).matrix == _dense_scale(a, scalar)
    assert A.apply(_sparse(vec)) == _sparse(_dense_apply(a, vec))
    cols = [tuple(row[j] for row in a) for j in range(k)]
    assert list(A.columns) == [_sparse(col) for col in cols]
    assert A.is_zero() == _dense_is_zero(a)
    assert A.add(A.scale(-1)).is_zero()
    assert S.is_identity() == _dense_is_identity(sq, k)
    assert (A == C) == (A.matrix == C.matrix)
    assert (A.add(C) == C.add(A)) and hash(A.add(C)) == hash(C.add(A))
    # the sparse-column constructor, handed zeros too, agrees with the dense oracle
    sparse = [{i: row[j] for i, row in enumerate(a)} for j in range(k)]
    assert LinearMap(mid, tgt, sparse) == A
    assert all(0 not in col.values() for col in A.compose(B).columns)


@st.composite
def _solve_family(draw):
    """Columns with dependent copies, and targets of which the first is outside the span."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(0, 4))
    base = draw(_sparse_dense(k, n, 0.5))
    # dependent columns: multiples and sums of drawn ones
    extra = []
    picks = st.lists(st.integers(0, 10), min_size=1, max_size=2)
    for pick in draw(st.lists(picks, max_size=3)) if base else ():
        extra.append([2 * sum((base[p % k][i] for p in pick), F(0)) for i in range(n)])
    # a last row that no column reaches
    columns = [list(col) + [F(0)] for col in base + extra]
    targets = [[F(0)] * n + [F(1)]]
    width = len(columns)
    for coeffs in draw(st.lists(st.lists(entries, min_size=width, max_size=width), max_size=3)):
        targets.append(
            [sum((x * col[i] for x, col in zip(coeffs, columns)), F(0)) for i in range(n + 1)]
        )
    targets += draw(st.lists(st.lists(entries, min_size=n + 1, max_size=n + 1), max_size=2))
    return columns, targets


@given(_solve_family())
def test_batched_solve_equals_per_target_solve(family):
    columns, targets = family
    k = len(columns)

    batched = solve_columns([_sparse(c) for c in columns], [_sparse(t) for t in targets])
    assert len(batched) == len(targets)
    assert batched[0] is None  # its last entry lies in a row no column reaches
    for target, got in zip(targets, batched):
        want = _bareiss_solve(columns, target)
        if want is None:
            assert got is None
        else:
            assert got is not None and tuple(got.get(j, F(0)) for j in range(k)) == want
            assert all(got.values())
