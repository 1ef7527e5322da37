from fractions import Fraction
from math import gcd

from hypothesis import given
from hypothesis import strategies as st

from spencerlab.linalg import GradedPiece, LinearMap, rank_kernel_image, rref, solve

F = Fraction


def test_identity_map():
    m = LinearMap.identity(("a", "b", "c"))
    rank, kernel, image = rank_kernel_image(m)
    assert rank == 3 and kernel == [] and len(image) == 3


def test_zero_map():
    m = LinearMap.zero(("a", "b"), ("u", "v"))
    rank, kernel, image = rank_kernel_image(m)
    assert rank == 0 and len(kernel) == 2 and image == []


def test_proportional_rows():
    m = LinearMap(("a", "b"), ("u", "v"), ((F(1), F(2)), (F(2), F(4))))
    rank, kernel, image = rank_kernel_image(m)
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
    m = LinearMap(
        tuple(range(ncols)), tuple(range(nrows)), tuple(tuple(r) for r in matrix)
    )
    rank, kernel, image = rank_kernel_image(m)
    assert rank + len(kernel) == ncols
    assert len(image) == rank
    for v in kernel:
        assert all(x == 0 for x in m.apply(v))


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


@given(
    st.one_of(
        _matrices(6, 6, entries),
        _sparse_matrices(12, 30, 0.1),
        _matrices(5, 5, big_entries),
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


@given(_sparse_matrices(8, 12, 0.3))
def test_kernel_is_canonical_rref_null_space(matrix):
    nrows, ncols = len(matrix), len(matrix[0])
    m = LinearMap(
        tuple(range(ncols)), tuple(range(nrows)), tuple(tuple(r) for r in matrix)
    )
    rank, kernel, _ = rank_kernel_image(m)
    rr, piv = _bareiss_rref(matrix)
    free = [c for c in range(ncols) if c not in piv]
    assert rank == len(piv) and len(kernel) == len(free)
    # one vector per free column: 1 there, 0 at the other free columns, and
    # minus the RREF entries of that column at the pivot columns
    for f, vec in zip(free, kernel):
        assert [vec[g] for g in free] == [F(int(g == f)) for g in free]
        assert [vec[c] for c in piv] == [-row[f] for row in rr]


@given(_sparse_matrices(6, 4, 0.6), st.lists(entries, min_size=6, max_size=6))
def test_solve_recovers_combinations(matrix, coeffs):
    columns = [list(r) for r in matrix]  # each drawn row is one column

    def combine(xs):
        return [sum((x * col[i] for x, col in zip(xs, columns)), F(0))
                for i in range(len(columns[0]))]

    target = combine(coeffs)
    sol = solve(columns, target)
    assert sol is not None and len(sol) == len(columns)
    assert combine(sol) == target


def test_solve_outside_span_and_empty():
    assert solve([[F(1), F(0)]], [F(0), F(1)]) is None
    assert solve([], [F(0), F(0)]) == ()
    assert solve([], [F(0), F(3)]) is None
    assert solve([[F(2), F(4)]], [F(1), F(2)]) == (F(1, 2),)


def test_compose_skips_zeros_exactly():
    a = LinearMap(("p", "q"), ("u", "v", "w"),
                  ((F(1), F(0)), (F(0), F(0)), (F(-2), F(3, 5))))
    b = LinearMap(("s", "t"), ("p", "q"), ((F(0), F(7)), (F(1, 3), F(0))))
    got = a.compose(b)
    assert got.source_basis == ("s", "t") and got.target_basis == ("u", "v", "w")
    assert got.matrix == ((F(0), F(7)), (F(0), F(0)), (F(1, 5), F(-14)))
    assert all(isinstance(x, Fraction) for row in got.matrix for x in row)


def test_graded_piece_reduce():
    piece = GradedPiece(("a", "b", "c"), [{"a": F(1), "b": F(-1)}])
    assert piece.dim == 2
    red = piece.reduce({"a": F(3)})
    # a == b modulo the relation, so 3a reduces onto b
    assert red == {"b": F(3)}
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
    # reduce is linear, so agreeing on every unit vector is agreeing everywhere
    for lbl in ambient:
        assert rebuilt.reduce({lbl: F(1)}) == piece.reduce({lbl: F(1)})
    for rel in relations:
        assert rebuilt.is_relation(rel)


def test_inverse_roundtrip():
    m = LinearMap(("a", "b"), ("a", "b"), ((F(2), F(1)), (F(1), F(1))))
    inv = m.inverse()
    assert m.compose(inv).is_identity()
    assert inv.compose(m).is_identity()
