"""The sparse ``RationalMatrix`` against the dense one it replaced.

``dense_oracle`` holds the former dense implementation unchanged.  Every
operation here runs on the same random matrices in both and must give the
same result: small integer and fraction entries, mostly zeros, empty
shapes included.  Entries reach numerators of 10**6 and denominators of
97, pivots are often negative, and rows are often multiples of earlier
ones, so the eliminations meet rank deficits and the integer rows they
work in must reach the same results as ``Fraction`` rows.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dense_oracle as dense
from wallforge import linalg as sparse

ENTRY = st.one_of(
    st.just(0),
    st.just(0),
    st.just(0),
    st.integers(-2, 2),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
    st.integers(-10**6, 10**6),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 97)),
)
DIM = st.integers(0, 8)
# multipliers for rows copied from earlier ones: duplicates, negated copies
# and proper multiples
FACTOR = st.sampled_from([1, 1, -1, 2, -3, Fraction(5, 7), Fraction(-97, 2)])


@st.composite
def with_multiples(draw, rows):
    """``rows`` with some of them replaced by multiples of earlier ones."""
    rows = [list(r) for r in rows]
    for i in range(1, len(rows)):
        if draw(st.integers(0, 2)) == 0:
            k, c = draw(st.integers(0, i - 1)), draw(FACTOR)
            rows[i] = [c * x for x in rows[k]]
    return rows


def grids(nrows, ncols):
    cells = st.lists(st.lists(ENTRY, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows)
    return cells.flatmap(with_multiples)


@st.composite
def grid(draw, nrows=None, ncols=None):
    m = draw(DIM) if nrows is None else nrows
    n = draw(DIM) if ncols is None else ncols
    return m, n, draw(grids(m, n))


def is_canonical(x):
    """An ``int`` exactly when integral, a ``Fraction`` otherwise; never anything else."""
    return type(x) in (int, Fraction) and type(x) is (int if x.denominator == 1 else Fraction)


def both(m, n, rows):
    return sparse.RationalMatrix(rows, ncols=n), dense.RationalMatrix(rows, ncols=n)


def same(s, d):
    """A sparse and a dense matrix hold the same entries."""
    assert s.shape == d.shape
    assert s.rows == d.rows
    assert s.to_json() == d.to_json()


def same_or_none(s, d):
    assert (s is None) == (d is None)
    if s is not None:
        same(s, d)


@given(grid())
def test_construction_and_queries(g):
    m, n, rows = g
    S, D = both(m, n, rows)
    same(S, D)
    assert S.columns() == D.columns()
    assert [S.row(i) for i in range(m)] == [D.row(i) for i in range(m)]
    assert [S.entry(i, j) for i in range(m) for j in range(n)] == [
        D.entry(i, j) for i in range(m) for j in range(n)
    ]
    assert S.is_zero() == D.is_zero()
    assert all(is_canonical(x) for r in S.rows for x in r)
    same(S.transpose(), D.transpose())
    same(-S, -D)
    same(S.scale(Fraction(-3, 2)), D.scale(Fraction(-3, 2)))
    same(S.scale(0), D.scale(0))
    cols = [tuple(r[j] for r in rows) for j in range(n)]
    if cols:
        same(sparse.RationalMatrix.from_columns(cols), dense.RationalMatrix.from_columns(cols))
    assert sparse.vec(S) == dense.vec(D)
    same(sparse.unvec(dense.vec(D), (m, n)), dense.unvec(dense.vec(D), (m, n)))


@given(grid(), st.data())
def test_elimination(g, data):
    m, n, rows = g
    S, D = both(m, n, rows)
    s_rows, s_piv = S._rref()
    d_rows, d_piv = D._rref()
    assert s_piv == d_piv
    assert [tuple(r.get(j, 0) for j in range(n)) for r in s_rows] == list(d_rows[: len(d_piv)])
    assert all(not any(r) for r in d_rows[len(d_piv):])
    assert sparse.rank_kernel_image(S) == dense.rank_kernel_image(D)
    assert S.rank() == D.rank()
    if m == n:
        assert S.det() == D.det()
    k = data.draw(st.integers(0, 3))
    _, _, rhs = data.draw(grid(nrows=m, ncols=k))
    Sb, Db = both(m, k, rhs)
    same_or_none(sparse.solve_matrix(S, Sb), dense.solve_matrix(D, Db))
    b = [r[0] for r in rhs] if k else data.draw(st.lists(ENTRY, min_size=m, max_size=m))
    assert sparse.solve_vector(S, b) == dense.solve_vector(D, b)


@given(st.data())
def test_products_and_assembly(data):
    m, k, a = data.draw(grid())
    _, n, b = data.draw(grid(nrows=k))
    SA, DA = both(m, k, a)
    SB, DB = both(k, n, b)
    same(SA @ SB, DA @ DB)
    v = data.draw(st.lists(ENTRY, min_size=k, max_size=k))
    assert SA.apply(v) == DA.apply(v)
    same(SA.kron(SB), DA.kron(DB))
    same(sparse.RationalMatrix.block_diag([SA, SB]), dense.RationalMatrix.block_diag([DA, DB]))
    same(sparse.RationalMatrix.block_diag([]), dense.RationalMatrix.block_diag([]))
    _, _, c = data.draw(grid(nrows=m))
    SC, DC = both(m, len(c[0]) if c else 0, c)
    if SC.ncols or not m:
        same(sparse.RationalMatrix.hstack([SA, SC]), dense.RationalMatrix.hstack([DA, DC]))
    _, _, e = data.draw(grid(ncols=k))
    SE, DE = both(len(e), k, e)
    same(sparse.RationalMatrix.vstack([SA, SE]), dense.RationalMatrix.vstack([DA, DE]))
    _, _, f = data.draw(grid(nrows=m, ncols=k))
    SF, DF = both(m, k, f)
    same(SA + SF, DA + DF)
    same(SA - SF, DA - DF)
    same(SA - SA, DA - DA)
    ri = data.draw(st.lists(st.integers(0, m - 1), max_size=4)) if m else []
    ci = data.draw(st.lists(st.integers(0, k - 1), max_size=4)) if k else []
    same(SA.submatrix(ri, ci), DA.submatrix(ri, ci))
    if m == k:
        p = data.draw(st.integers(0, 3))
        same(SA ** p, DA ** p)


@given(grid(), grid())
def test_serialization_equality_and_hash(g1, g2):
    S1, D1 = both(*g1)
    S2, D2 = both(*g2)
    doc = S1.to_json()
    assert json.dumps(doc) == json.dumps(D1.to_json())
    back = sparse.RationalMatrix.from_json(doc)
    assert back == S1 and hash(back) == hash(S1)
    same(back, dense.RationalMatrix.from_json(doc))
    assert (S1 == S2) == (D1 == D2)
    if S1 == S2:
        assert hash(S1) == hash(S2)
    rebuilt = (S1 + S1) - S1
    assert rebuilt == S1 and hash(rebuilt) == hash(S1)


@pytest.mark.parametrize("index", [(1.0, 0), (0, 1.0), (True, 0), (0, "1")])
def test_from_json_refuses_non_integer_index(index):
    doc = {"rows": 2, "cols": 2, "entries": [[*index, "3"]]}
    with pytest.raises(ValueError, match="not a pair of integers"):
        sparse.RationalMatrix.from_json(doc)


@pytest.mark.parametrize("bad", [True, -1, 1.9, "2", None])
@pytest.mark.parametrize("key", ["rows", "cols"])
def test_from_json_refuses_a_shape_that_is_not_a_non_negative_int(key, bad):
    doc = {"rows": 2, "cols": 2, "entries": []}
    doc[key] = bad
    with pytest.raises(ValueError, match="not a pair of non-negative integers"):
        sparse.RationalMatrix.from_json(doc)


@pytest.mark.parametrize(
    "text",
    ["7", "-7", "007", "-0", "0", "+3", " 3", "3 ", "1_000", "\u0663", "-", "", "--1", "4/2", "-6/4", "1.5", "x"],
)
def test_from_json_parses_an_entry_as_fraction_does(text):
    """Only ``-?[0-9]+`` takes the ``int`` path; the value is the same either way."""
    doc = {"rows": 1, "cols": 1, "entries": [[0, 0, text]]}
    try:
        want = Fraction(text)
    except ValueError:
        with pytest.raises(ValueError):
            sparse.RationalMatrix.from_json(doc)
        return
    x = sparse.RationalMatrix.from_json(doc).entry(0, 0)
    assert x == want and is_canonical(x)


@given(st.data())
def test_solve_in_subspace(data):
    p, q, r = data.draw(DIM), data.draw(DIM), data.draw(DIM)
    count = data.draw(st.integers(0, 3))
    basis_grids = [data.draw(grids(p, q)) for _ in range(count)]
    # A (r x p) @ X (p x q) = B (r x q)
    a_grid = data.draw(grids(r, p))
    SA, DA = both(r, p, a_grid)
    if basis_grids and data.draw(st.booleans()):
        coeffs = data.draw(st.lists(ENTRY, min_size=count, max_size=count))
        X = sparse.RationalMatrix.zeros(p, q)
        for c, g in zip(coeffs, basis_grids):
            X = X + sparse.RationalMatrix(g, ncols=q).scale(c)
        b_grid = [list(row) for row in (SA @ X).rows]
    else:
        b_grid = data.draw(grids(r, q))
    SB, DB = both(r, q, b_grid)
    # the particular solution depends on the order of the basis: pass it
    # both ways round
    for ordered in (basis_grids, basis_grids[::-1]):
        same_or_none(
            sparse.solve_in_subspace(SA, SB, [sparse.RationalMatrix(g, ncols=q) for g in ordered]),
            dense.solve_in_subspace(DA, DB, [dense.RationalMatrix(g, ncols=q) for g in ordered]),
        )


@given(st.data())
def test_span_tracker(data):
    dim = data.draw(DIM)
    vectors = data.draw(st.integers(0, 10).flatmap(lambda k: grids(k, dim)))
    base = vectors[: len(vectors) // 2]
    rest = vectors[len(vectors) // 2 :]
    assert sparse.extend_to_basis(base, rest, dim) == dense.extend_to_basis(base, rest, dim)
    s, d = sparse.SpanTracker(dim), dense.SpanTracker(dim)
    for v in vectors:
        assert s.contains(v) == d.contains(v)
        assert s.add(v) == d.add(v)
        assert s.rank == d.rank


def dense_from_blocks(nrows, ncols, blocks):
    """The zero grid with each dense block written in at its offset."""
    cells = [[0] * ncols for _ in range(nrows)]
    for r0, c0, block in blocks:
        for a, row in enumerate(block.rows):
            for b, x in enumerate(row):
                cells[r0 + a][c0 + b] = x
    return dense.RationalMatrix(cells, ncols=ncols)


def dense_nonzeros(d):
    return [(i, j, x) for i, row in enumerate(d.rows) for j, x in enumerate(row) if x]


def overlaps(a, b):
    (r0, c0, h, w), (s0, d0, k, v) = a, b
    return r0 < s0 + k and s0 < r0 + h and c0 < d0 + v and d0 < c0 + w


@st.composite
def placed_blocks(draw):
    """An outer shape and non-overlapping blocks at arbitrary offsets in it.

    Blocks may be empty (no rows or no columns) or all zeros, and the outer
    shape may have no rows or no columns.
    """
    m, n = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    placed = []
    for _ in range(draw(st.integers(0, 5))):
        r0, c0 = draw(st.integers(0, m)), draw(st.integers(0, n))
        h, w = draw(st.integers(0, m - r0)), draw(st.integers(0, n - c0))
        if any(overlaps((r0, c0, h, w), (s0, d0, k, v)) for s0, d0, k, v, _ in placed):
            continue
        cells = [[0] * w for _ in range(h)] if draw(st.booleans()) else draw(grids(h, w))
        placed.append((r0, c0, h, w, cells))
    return m, n, placed


@given(placed_blocks())
def test_from_blocks(case):
    m, n, placed = case
    s_blocks = [(r0, c0, sparse.RationalMatrix(cells, ncols=w)) for r0, c0, _, w, cells in placed]
    d_blocks = [(r0, c0, dense.RationalMatrix(cells, ncols=w)) for r0, c0, _, w, cells in placed]
    S = sparse.RationalMatrix.from_blocks(m, n, s_blocks)
    D = dense_from_blocks(m, n, d_blocks)
    same(S, D)
    assert list(S.nonzero_entries()) == dense_nonzeros(D)


@pytest.mark.parametrize("r0, c0", [(-1, 0), (0, -1), (2, 0), (0, 3), (1, 2)])
def test_from_blocks_refuses_a_block_outside_the_shape(r0, c0):
    block = sparse.RationalMatrix([[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="leaves"):
        sparse.RationalMatrix.from_blocks(3, 3, [(r0, c0, block)])


@given(grid(), st.data())
def test_nonzero_entries(g, data):
    m, n, rows = g
    S, D = both(m, n, rows)
    _, _, f = data.draw(grid(nrows=m, ncols=n))
    SF, DF = both(m, n, f)
    # sums and differences whose entries cancel, as well as plain matrices
    pairs = [(S, D), (S - S, D - D), ((S + SF) - SF, (D + DF) - DF), (S.transpose(), D.transpose())]
    for s, d in pairs:
        entries = list(s.nonzero_entries())
        assert entries == dense_nonzeros(d)
        assert all(is_canonical(x) for _, _, x in entries)
