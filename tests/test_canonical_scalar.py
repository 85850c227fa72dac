"""Canonical scalars: an ``int`` exactly when integral, a ``Fraction`` otherwise.

Every operation here runs on matrices that mix ``int`` entries with
``Fraction`` ones, integral ``Fraction``s included, and whose pivots are
mostly not units, so eliminations divide and their results land back on
integers.  Results must equal those of the dense oracle, and every scalar
handed out or stored must be canonical: never an integral ``Fraction``,
never a float.  Entries reach numerators of 10**6 and denominators of 97,
and rows are often multiples of earlier ones, for rank deficits.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dense_oracle as dense
from wallforge import linalg as sparse
from wallforge.groupalg import AlgebraPresentation, FiniteGroupTable, crossed_product
from wallforge.lie import LieAlgebra, LieModule, ce_complex

ENTRY = st.one_of(
    st.just(0),
    st.just(0),
    st.integers(-6, 6),
    # integral Fractions too, such as Fraction(4, 2)
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
    st.integers(-10**6, 10**6),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 97)),
)
DIM = st.integers(0, 8)
# duplicates, negated copies and proper multiples of earlier rows
FACTOR = st.sampled_from([1, -1, -2, Fraction(3, 4), Fraction(-1, 97)])


def canonical(x):
    return type(x) in (int, Fraction) and type(x) is (int if x.denominator == 1 else Fraction)


def all_canonical(values):
    return all(canonical(x) for x in values)


def stored_canonical(M):
    """Every stored entry is a nonzero canonical scalar, and so is every dense one."""
    stored = [x for row in M._rows for x in row.values()]
    return all(x != 0 for x in stored) and all_canonical(stored) and all(
        all_canonical(r) for r in M.rows
    )


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


def primitive(row):
    """Integer entries, nonzero, whose gcd is 1."""
    return all(type(x) is int and x for x in row.values()) and gcd(*row.values()) == 1


@st.composite
def grid(draw, nrows=None, ncols=None):
    m = draw(DIM) if nrows is None else nrows
    n = draw(DIM) if ncols is None else ncols
    return m, n, draw(grids(m, n))


def both(m, n, rows):
    return sparse.RationalMatrix(rows, ncols=n), dense.RationalMatrix(rows, ncols=n)


def same(s, d):
    assert s.shape == d.shape
    assert s.rows == d.rows
    assert stored_canonical(s)


@pytest.mark.parametrize(
    "value, expected",
    [
        (0, 0),
        (-3, -3),
        (Fraction(6, 3), 2),
        (Fraction(-1, 2), Fraction(-1, 2)),
        ("4/2", 2),
        ("-5/3", Fraction(-5, 3)),
        (0.5, Fraction(1, 2)),
        (2.0, 2),
        (True, 1),
    ],
)
def test_canonical_form_of_a_value(value, expected):
    x = sparse.canonical(value)
    assert x == expected and canonical(x)


@pytest.mark.parametrize("value", ["x", "1/0", float("nan")])
def test_canonical_keeps_the_fraction_errors(value):
    with pytest.raises((ValueError, ZeroDivisionError)) as want:
        Fraction(value)
    with pytest.raises(want.type):
        sparse.canonical(value)


@given(st.data())
def test_one_elimination_step(data):
    """``_cancel`` clears the column and leaves a primitive integer row that
    is a positive multiple of the ``Fraction`` row textbook elimination
    would hold."""
    n = data.draw(st.integers(1, 8))
    top, row = (sparse._sparse_row(data.draw(grids(1, n))[0]) for _ in "ab")
    c = data.draw(st.integers(0, n - 1))
    top.setdefault(c, data.draw(st.sampled_from([1, -1, 2, -97, 10**6])))
    row[c] = data.draw(st.integers(-10**6, 10**6).filter(bool))
    top, row = sparse._primitive(top), sparse._primitive(row)
    expected = {j: row.get(j, 0) - Fraction(row[c], top[c]) * top.get(j, 0) for j in {*row, *top}}
    new = dict(row)
    a, g = sparse._cancel(new, top, c)
    assert c not in new and a > 0 and (primitive(new) if new else g == 0)
    assert new == {j: x * a / g for j, x in expected.items() if x}


@given(grid(), st.data())
def test_elimination_against_the_oracle(g, data):
    m, n, rows = g
    S, D = both(m, n, rows)
    s_rows, s_piv = S._rref()
    d_rows, d_piv = D._rref()
    assert s_piv == d_piv
    assert [tuple(r.get(j, 0) for j in range(n)) for r in s_rows] == list(d_rows[: len(d_piv)])
    assert all(x != 0 and canonical(x) for r in s_rows for x in r.values())
    rank, kernel, image = sparse.rank_kernel_image(S)
    assert (rank, kernel, image) == dense.rank_kernel_image(D)
    assert all(all_canonical(v) for v in kernel + image)
    if m == n:
        det = S.det()
        assert det == D.det() and canonical(det)
    k = data.draw(st.integers(0, 3))
    _, _, rhs = data.draw(grid(nrows=m, ncols=k))
    Sb, Db = both(m, k, rhs)
    X, Y = sparse.solve_matrix(S, Sb), dense.solve_matrix(D, Db)
    assert (X is None) == (Y is None)
    if X is not None:
        same(X, Y)
        assert S @ X == Sb


@given(st.data())
def test_products_against_the_oracle(data):
    m, k, a = data.draw(grid())
    _, n, b = data.draw(grid(nrows=k))
    SA, DA = both(m, k, a)
    SB, DB = both(k, n, b)
    same(SA @ SB, DA @ DB)
    v = data.draw(st.lists(ENTRY, min_size=k, max_size=k))
    out = SA.apply(v)
    assert out == DA.apply(v) and all_canonical(out)
    same(SA.kron(SB), DA.kron(DB))
    _, _, f = data.draw(grid(nrows=m, ncols=k))
    SF, DF = both(m, k, f)
    same(SA + SF, DA + DF)
    same(SA - SF, DA - DF)
    c = data.draw(ENTRY)
    same(SA.scale(c), DA.scale(c))
    same(sparse.RationalMatrix.diagonal(v), dense.RationalMatrix.diagonal(v))
    same(sparse.RationalMatrix.from_json(DA.to_json()), DA)


@given(st.data())
def test_span_tracker_against_the_oracle(data):
    dim = data.draw(DIM)
    vectors = data.draw(st.integers(0, 10).flatmap(lambda k: grids(k, dim)))
    s, d = sparse.SpanTracker(dim), dense.SpanTracker(dim)
    for v in vectors:
        assert s.contains(v) == d.contains(v)
        assert s.add(v) == d.add(v)
        assert s.rank == d.rank
        # each stored row is a primitive integer row keyed by its leading column
        for pc, row in s._rows.items():
            assert min(row) == pc and primitive(row)


@given(grid(), st.data())
def test_solve_in_subspace_is_canonical(g, data):
    p, q, basis_grid = g
    basis = [sparse.RationalMatrix(basis_grid, ncols=q)]
    r = data.draw(DIM)
    A = sparse.RationalMatrix(data.draw(grids(r, p)), ncols=p)
    c = data.draw(ENTRY)
    B = A @ basis[0].scale(c)
    X = sparse.solve_in_subspace(A, B, basis)
    assert X is not None and A @ X == B and stored_canonical(X)


def test_an_integral_elimination_through_non_unit_pivots_stays_integral():
    # pivots 2 and 3 make Fractions on the way; the kernel and solution are integral
    M = sparse.RationalMatrix([[2, 4, 6], [3, 9, 12]])
    rows, pivots = M._rref()
    assert pivots == (0, 1)
    assert [dict(r) for r in rows] == [{0: 1, 2: 1}, {1: 1, 2: 1}]
    assert all(type(x) is int for r in rows for x in r.values())
    _, kernel, _ = sparse.rank_kernel_image(M)
    assert kernel == [(-1, -1, 1)] and all(type(x) is int for x in kernel[0])
    X = sparse.solve_matrix(M, sparse.RationalMatrix([[2], [3]]))
    assert X.rows == ((1,), (0,), (0,)) and all(type(x) is int for r in X.rows for x in r)
    det = sparse.RationalMatrix([[2, 1], [4, 5]]).det()
    assert det == 6 and type(det) is int
    half = sparse.RationalMatrix([[Fraction(1, 2)]]).det()
    assert half == Fraction(1, 2) and type(half) is Fraction
    # a product of non-integral pivots that lands on an integer
    one = sparse.RationalMatrix([[Fraction(1, 2), 0], [0, 2]]).det()
    assert one == 1 and type(one) is int


def test_span_tracker_fill_in_is_canonical():
    # reducing (1/2, 1, 0) by the row (1, 0, 2) fills in -1 at a column the
    # vector did not touch, and the new row's pivot is already 1
    tracker = sparse.SpanTracker(3)
    assert tracker.add([1, 0, 2])
    assert tracker.add([Fraction(1, 2), 1, 0])
    assert tracker._rows[1] == {1: 1, 2: -1}
    assert all(type(x) is int for x in tracker._rows[1].values())


def test_builders_store_canonical_scalars():
    Q = FiniteGroupTable.cyclic(3)
    A = AlgebraPresentation.group_algebra(Q)
    assert all(type(x) is int for row in A.products for e in row for x in e)
    assert all(type(x) is int for x in A.unit)
    # structure constants given as integral Fractions are stored as ints
    B = AlgebraPresentation(
        [[[Fraction(x) for x in e] for e in row] for row in A.products],
        [Fraction(x) for x in A.unit],
    )
    assert all(type(x) is int for row in B.products for e in row for x in e)
    prod = B.multiply([Fraction(1, 2), 0, 0], [2, Fraction(4, 2), 0])
    assert prod == (1, 1, 0) and all(type(x) is int for x in prod)
    # the crossed product's structure constants come out canonical too
    cp = crossed_product(B, Q, [sparse.RationalMatrix.identity(3)] * 3)
    assert all(type(x) is int for row in cp.algebra.products for e in row for x in e)
    assert all(type(x) is int for x in cp.algebra.unit)
    # sl2 with h halved: [h, e] = e and [e, f] = 2h, entered as Fractions
    g = LieAlgebra(
        3,
        {(1, 0): [Fraction(1), 0, 0], (1, 2): [0, 0, Fraction(-1)], (0, 2): [0, Fraction(2), 0]},
    )
    # x0 acting on x1, x2 by 1/2: two halves meet in the one entry of d_3
    h = LieAlgebra(3, {(0, 1): [0, Fraction(1, 2), 0], (0, 2): [0, 0, Fraction(1, 2)]})
    assert ce_complex(h, LieModule.trivial(h)).diff(3).entry(2, 0) == 1
    for alg in (g, h):
        for M in (LieModule.trivial(alg), LieModule.adjoint(alg)):
            C = ce_complex(alg, M)
            for n in range(1, 4):
                assert stored_canonical(C.diff(n))
