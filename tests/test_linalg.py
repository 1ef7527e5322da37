from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spencerlab import linalg
from spencerlab.completion import completed_complex, tower_limit
from spencerlab.complexes import build_de_rham, build_jet_complex, build_koszul, homology_table
from spencerlab.diffops import filtered_spencer
from spencerlab.errors import InternalInvariantError
from spencerlab.homotopy import acyclicity_certificate, euler_derivation
from spencerlab.invariants import spencer_h0
from spencerlab.linalg import (
    GradedPiece,
    LinearMap,
    rank_kernel_image,
    rref,
)
from spencerlab.rings import WeightedRing, parse_polynomial, scene

F = Fraction


def test_identity_map():
    m = LinearMap.identity(("a", "b", "c"))
    rank, kernel = rank_kernel_image(m)
    assert rank == 3 and kernel == []


def test_zero_map():
    m = LinearMap.zero(("a", "b"), ("u", "v"))
    rank, kernel = rank_kernel_image(m)
    assert rank == 0 and kernel == [{0: 1}, {1: 1}]


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
        assert not any(_dense_apply(matrix, [v.get(j, 0) for j in range(ncols)]))


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

    Kept as a dense oracle for the sparse-column :class:`LinearMap`.  The
    entries may be rationals: :func:`_rational_map` clears them, since the
    constructor takes integer columns over one denominator.
    """
    assert len(rows) == len(target_basis)
    assert all(len(row) == len(source_basis) for row in rows)
    columns = [
        {i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(len(source_basis))
    ]
    return _rational_map(source_basis, target_basis, columns)


def _rational_map(source_basis, target_basis, columns):
    """The map of sparse rational columns holding no zero, cleared to one denominator."""
    den = lcm(*(F(v).denominator for col in columns for v in col.values()))
    cols = [{i: int(v * den) for i, v in col.items()} for col in columns]
    return LinearMap(source_basis, target_basis, cols, den)


def _dense(m):
    """Dense rational rows of a map: ``_dense(m)[i][j]`` is entry i of column j.

    The inverse of :func:`_dense_map`, read off the map's ``columns`` view.
    """
    rows = [[F(0)] * len(m.source_basis) for _ in m.target_basis]
    for j, col in enumerate(m.columns):
        for i, a in col.items():
            rows[i][j] = a
    return tuple(map(tuple, rows))


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
        coords, den = piece.coords(ambient_vec)
        assert all(type(v) is int for v in coords.values())
        assert {j: F(v, den) for j, v in coords.items()} == \
            {basis_pos[j]: v for j, v in enumerate(nf) if v}
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
    # one vector per free column: the primitive integer multiple, positive at
    # the free column, of the vector that is 1 there, 0 at the other free
    # columns and minus the RREF entries of that column at the pivot columns
    for f, vec in zip(free, kernel):
        _assert_primitive_at(vec, f)
        s = vec[f]
        assert [vec.get(g, 0) for g in free] == [s * int(g == f) for g in free]
        assert [vec.get(c, 0) for c in piv] == [-s * row[f] for row in rr]
        # sparse: zeros dropped, positions in ascending order
        assert all(vec.values()) and list(vec) == sorted(vec)


def _assert_primitive_at(vec, f):
    """``vec`` is an integer vector with gcd 1 and a positive entry at ``f``."""
    assert all(type(x) is int for x in vec.values())
    assert vec[f] > 0 and gcd(*vec.values()) == 1


def _primitive(vec):
    """The rational vector ``vec`` times the positive scalar that makes it a
    primitive integer vector, keys in the same order."""
    den = lcm(*(v.denominator for v in vec.values()))
    ints = {j: int(v * den) for j, v in vec.items()}
    g = gcd(*ints.values())
    return {j: v // g for j, v in ints.items()}


def _whole_matrix_rank_kernel(m):
    """Rank and kernel of a map from one ``rref`` of its whole dense matrix.

    The whole-matrix route that :func:`rank_kernel_image` replaced with
    connected blocks, kept as its oracle; its kernel vectors are the RREF's
    rational ones, 1 at their free column.
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
            vec[f] = F(1)
            kernel.append(vec)
    return len(pivots), kernel


@st.composite
def _block_maps(draw):
    """A map whose rows and columns, once sorted, are blocks along the diagonal.

    Blocks are dense draws (so they may split further); some have one column
    or no rows, some are one row with every entry set, and zero rows and
    columns are added.  Rows and columns are then shuffled, so blocks
    interleave.
    """
    cells, nrows, ncols = [], 0, 0
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            # one row, every entry set: leads may be negative or non-unit
            rows, cols = 1, draw(st.integers(2, 4))
            nonzero = st.integers(-12, 12).filter(bool).map(F)
            block = [draw(st.lists(nonzero, min_size=cols, max_size=cols))]
        else:
            rows, cols = draw(st.integers(0, 3)), draw(st.integers(1, 3))
            block = draw(_sparse_dense(rows, cols, draw(st.sampled_from([0.3, 1.0]))))
        cells += [(nrows + i, ncols + j, v)
                  for i, row in enumerate(block) for j, v in enumerate(row) if v]
        nrows, ncols = nrows + rows, ncols + cols
    nrows += draw(st.integers(0, 2))
    ncols += draw(st.integers(0, 2))
    row_perm = draw(st.permutations(range(nrows)))
    col_perm = draw(st.permutations(range(ncols)))
    columns = [{} for _ in range(ncols)]
    for i, j, v in cells:
        columns[col_perm[j]][row_perm[i]] = v
    return _rational_map(range(ncols), range(nrows), columns)


@given(st.one_of(_block_maps(), _sparse_matrices(8, 12, 0.15).map(
    lambda matrix: _dense_map(range(len(matrix[0])), range(len(matrix)), matrix))))
def test_block_route_matches_whole_matrix_oracle(m):
    rank, kernel = rank_kernel_image(m)
    want_rank, want_kernel = _whole_matrix_rank_kernel(m)
    assert rank == want_rank
    # the oracle's vectors in primitive integer form, with keys in the same order
    want = [_primitive(v) for v in want_kernel]
    assert [list(v.items()) for v in kernel] == [list(v.items()) for v in want]
    for v, w in zip(kernel, want_kernel):
        _assert_primitive_at(v, max(w))  # the free column comes last


def test_rref_sees_only_connected_blocks(monkeypatch):
    # the filtered Spencer differentials of affine 3-space send each label to
    # a signed sum over distinct labels: every block is one row or one column
    inputs = []
    whole = linalg.rref

    def spy(rows):
        inputs.append(rows)
        return whole(rows)

    monkeypatch.setattr(linalg, "rref", spy)
    table = homology_table(filtered_spencer(WeightedRing(("x", "y", "z"), (1, 1, 1)), 2), 3)
    assert table.nonzero() == {}
    assert inputs == []
    # the Koszul differentials of three quadrics share rows across columns
    a3 = scene(["x", "y", "z"], [1, 1, 1])
    elements = [parse_polynomial(e, a3.ring) for e in ("x^2 + 2*y^2", "y^2 + 3*z^2", "z^2 + 5*x^2")]
    homology_table(build_koszul(a3, elements), 10)
    assert inputs
    for rows in inputs:
        columns = [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(len(rows[0]))]
        assert len(rows) >= 2 and len(linalg._column_blocks(columns)) == 1


def _sparse(vec):
    return {i: v for i, v in enumerate(vec) if v}


def test_compose_skips_zeros_exactly():
    a = _dense_map(("p", "q"), ("u", "v", "w"),
                   ((F(1), F(0)), (F(0), F(0)), (F(-2), F(3, 5))))
    b = _dense_map(("s", "t"), ("p", "q"), ((F(0), F(7)), (F(1, 3), F(0))))
    got = a.compose(b)
    assert got.source_basis == ("s", "t") and got.target_basis == ("u", "v", "w")
    assert _dense(got) == ((F(0), F(7)), (F(0), F(0)), (F(1, 5), F(-14)))
    assert all(isinstance(x, Fraction) for col in got.columns for x in col.values())


def test_graded_piece_reduce():
    piece = GradedPiece(("a", "b", "c"), [{"a": F(1), "b": F(-1)}])
    assert piece.dim == 2
    assert piece.basis == ("b", "c")
    # a == b modulo the relation, so 3a reduces onto b, basis position 0
    assert piece.coords({"a": F(3)}) == ({0: 3}, 1)
    assert piece.is_relation({"a": F(2), "b": F(-2)})
    assert not piece.is_relation({"c": F(1)})


def test_relation_free_coords_skip_elimination(monkeypatch):
    ambient = ("a", "b", "c", "d", "e")
    free = GradedPiece(ambient, [])
    # the same quotient with one more label, killed by a relation: its coords
    # eliminates, and its basis is ``ambient`` in the same positions
    killed = GradedPiece(ambient + ("z",), [{"z": F(1)}])
    assert killed.basis == free.basis == ambient
    cases = [
        {},
        {"a": 3, "b": 0},
        {"b": F(-1, 2), "e": F(7, 4), "c": F(0)},
        {"a": F(1, 6), "c": F(5, 6), "d": -1},
        {"d": F(4)},
    ]
    want = [killed.coords(vec) for vec in cases]
    assert want[2] == ({1: -2, 4: 7}, 4) and want[4] == ({3: 4}, 1)
    calls = []
    for name in ("_eliminate", "_integer_row"):
        spied = getattr(linalg, name)
        monkeypatch.setattr(
            linalg, name, lambda *args, n=name, f=spied: calls.append(n) or f(*args)
        )
    assert [free.coords(vec) for vec in cases] == want
    # only the vectors holding a Fraction are cleared, and nothing eliminates
    assert calls == ["_integer_row"] * 3
    with pytest.raises(InternalInvariantError, match="outside ambient"):
        free.coords({"z": 1})


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
        unit = {lbl: F(1)}
        assert rebuilt.coords(unit) == piece.coords(unit)
    for rel in relations:
        assert rebuilt.is_relation(rel)


def test_constructor_divides_out_the_content_and_checks_the_column_count():
    m = LinearMap(("a", "b"), ("u",), [{}, {0: 4}], 6)
    assert m.int_columns == ({}, {0: 2}) and m.den == 3
    assert m.columns == ({}, {0: F(2, 3)})
    with pytest.raises(InternalInvariantError, match="column count"):
        LinearMap(("a", "b"), ("u",), [{0: 1}])


def test_every_library_map_is_built_from_integer_columns(monkeypatch):
    # the constructor does not scan its columns, so every caller must hand it
    # nonzero int entries at int positions over a positive int denominator
    built = []
    init = LinearMap.__init__

    def spy(self, source_basis, target_basis, cols, den=1):
        cols = list(cols)
        built.append((cols, den))
        init(self, source_basis, target_basis, cols, den)

    monkeypatch.setattr(LinearMap, "__init__", spy)
    whitney = scene(["x", "y", "z"], [1, 2, 2], ["x^2*y - z^2"])
    cusp = scene(["x", "y"], [2, 3], ["x^3 - y^2"])
    a3 = scene(["x", "y", "z"], [1, 1, 1])
    half = [parse_polynomial(t, a3.ring) for t in ("1/2*x^2", "y^2 - z^2", "x*y")]
    for cx in (build_de_rham(whitney), build_jet_complex(whitney, 2), build_koszul(a3, half)):
        homology_table(cx, 5)
    ambient = scene(["x", "y"], [2, 3])
    tower = completed_complex(build_de_rham(ambient), cusp.ideal, 3)
    assert tower_limit(tower, 6).entries
    assert acyclicity_certificate(euler_derivation(cusp), build_jet_complex(cusp, 1), 6).valid
    spencer_h0(whitney, 4)
    assert built
    for cols, den in built:
        assert type(den) is int and den > 0
        for col in cols:
            assert all(type(i) is int and type(a) is int and a for i, a in col.items())


def test_one_row_and_one_column_blocks_build_no_fraction(count_fractions):
    # every filtered Spencer differential on affine 3-space is ranked without
    # ``rref``: each of its blocks is one row or one column
    fs = filtered_spencer(WeightedRing(("x", "y", "z"), (1, 1, 1)), 2)
    maps = [fs.differential(i, d) for i in fs.indices for d in range(4)]
    built = count_fractions()
    kernels = [rank_kernel_image(m)[1] for m in maps]
    assert built == [0]
    assert any(len(v) > 1 for kernel in kernels for v in kernel)


def test_compose_and_add_check_the_bases():
    m = LinearMap.identity(("a", "b"))
    with pytest.raises(InternalInvariantError, match="composition basis mismatch"):
        m.compose(LinearMap.zero(("a",), ("u", "v")))
    with pytest.raises(InternalInvariantError, match="sum of maps between different bases"):
        m.add(LinearMap.identity(("a", "c")))


def test_inverse_roundtrip():
    m = _dense_map(("a", "b"), ("a", "b"), ((F(2), F(1)), (F(1), F(1))))
    inv = m.inverse()
    assert m.compose(inv).is_identity()
    assert inv.compose(m).is_identity()
    assert inv.source_basis == m.target_basis and inv.target_basis == m.source_basis
    # with a denominator: the stored columns are den times the map
    half = _dense_map(("a", "b"), ("a", "b"), ((F(1, 2), F(0)), (F(1, 3), F(2))))
    assert half.den == 6 and half.int_columns == ({0: 3, 1: 2}, {1: 12})
    assert _dense(half.inverse()) == ((F(2), F(0)), (F(-1, 3), F(1, 2)))
    assert half.inverse().inverse() == half


def test_inverse_of_an_integer_map_builds_no_fraction(count_fractions):
    # determinants -2, 6 and 1: the inverses have denominators 2, 6 and 1
    maps = [
        _dense_map(("a", "b"), ("u", "v"), ((1, 3), (1, 1))),
        _dense_map(("a", "b", "c"), ("u", "v", "w"), ((2, 1, 0), (0, 3, 1), (0, 0, 1))),
        _dense_map(("a", "b"), ("u", "v"), ((2, 1), (1, 1))),
    ]
    built = count_fractions()
    inverses = [m.inverse() for m in maps]
    assert built == [0]
    assert [inv.den for inv in inverses] == [2, 6, 1]
    for m, inv in zip(maps, inverses):
        assert m.compose(inv).is_identity() and inv.compose(m).is_identity()


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
    """A: k -> m, B: n -> k, C: k -> m, S: k -> k and a scalar."""
    m, k, n = (draw(st.integers(0, 5)) for _ in range(3))
    fill = draw(st.sampled_from([0.0, 0.2, 0.6]))
    a = draw(_sparse_dense(m, k, fill))
    b = draw(_sparse_dense(k, n, fill))
    c = draw(st.one_of(st.just(a), _sparse_dense(m, k, fill)))
    sq = draw(_sparse_dense(k, k, fill, unit=draw(st.booleans())))
    scalar = draw(st.one_of(st.just(F(0)), entries))
    return (m, k, n), a, b, c, sq, scalar


@given(_map_family())
def test_sparse_maps_match_dense_oracle(family):
    (m, k, n), a, b, c, sq, scalar = family
    src = tuple(f"s{j}" for j in range(n))
    mid = tuple(range(k))
    tgt = tuple(f"t{i}" for i in range(m))
    A, B, C = _dense_map(mid, tgt, a), _dense_map(src, mid, b), _dense_map(mid, tgt, c)
    S = _dense_map(mid, mid, sq)
    dense_a = tuple(map(tuple, a))
    assert _dense(A) == dense_a and A.shape == (m, k)
    assert _dense(A.compose(B)) == _dense_compose(a, b, n)
    assert _dense(A.add(C)) == _dense_add(a, c)
    assert _dense(A.scale(scalar)) == _dense_scale(a, scalar)
    cols = [tuple(row[j] for row in a) for j in range(k)]
    assert list(A.columns) == [_sparse(col) for col in cols]
    assert A.is_zero() == _dense_is_zero(a)
    assert A.add(A.scale(-1)).is_zero()
    assert S.is_identity() == _dense_is_identity(sq, k)
    assert (A == C) == (_dense(A) == _dense(C))
    assert (A.add(C) == C.add(A)) and hash(A.add(C)) == hash(C.add(A))
    for M in (A.compose(B), A.add(C), A.add(A.scale(-1)), A.scale(scalar)):
        assert all(0 not in col.values() for col in M.int_columns)
    # the stored form: primitive integer columns over one positive denominator
    for M in (A, A.compose(B), A.add(C), A.scale(scalar), S):
        entries = [v for col in M.int_columns for v in col.values()]
        assert all(type(v) is int for v in entries) and type(M.den) is int
        assert M.den >= 1 and gcd(M.den, *entries) == 1
    round_trip = A.scale(F(3, 7)).scale(F(7, 3))
    assert round_trip == A and hash(round_trip) == hash(A)
    for T in (S, S.scale(F(2, 7))):
        try:
            inv = T.inverse()
        except InternalInvariantError:
            assert len(_bareiss_rref(_dense(T))[1]) < k
            continue
        assert T.compose(inv).is_identity() and inv.compose(T).is_identity()
        assert inv.inverse() == T
