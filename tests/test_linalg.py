from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from wallforge.linalg import (
    RationalMatrix,
    SpanTracker,
    extend_to_basis,
    rank_kernel_image,
    solve_in_subspace,
    solve_matrix,
    solve_vector,
    unvec,
    vec,
)

from oracles import rank_by_elimination


def _random_matrix(rng, nrows, ncols, den_max=4):
    rows = [
        [Fraction(rng.randint(-6, 6), rng.randint(1, den_max)) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    return RationalMatrix(rows, ncols=ncols)


class TestRationalMatrix:
    def test_constructors(self):
        assert RationalMatrix.identity(3).entry(1, 1) == 1
        assert RationalMatrix.zeros(2, 3).shape == (2, 3)
        assert RationalMatrix.diagonal([1, 2]).entry(1, 1) == 2
        M = RationalMatrix.from_columns([(1, 2), (3, 4)])
        assert M.col(1) == (Fraction(3), Fraction(4))
        # empty column list needs an explicit row count
        E = RationalMatrix.from_columns([], nrows=2)
        assert E.shape == (2, 0)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            RationalMatrix([[1, 2], [3]])

    def test_zero_column_matrix_needs_ncols(self):
        M = RationalMatrix([], ncols=3)
        assert M.shape == (0, 3)

    def test_immutability(self):
        M = RationalMatrix.identity(2)
        with pytest.raises(AttributeError):
            M.nrows = 5  # type: ignore[misc]

    def test_arithmetic(self):
        A = RationalMatrix([[1, 2], [3, 4]])
        B = RationalMatrix([[0, 1], [1, 0]])
        assert (A + B) - B == A
        assert (-A) + A == RationalMatrix.zeros(2, 2)
        assert A @ B == RationalMatrix([[2, 1], [4, 3]])
        assert Fraction(1, 2) * A == A.scale(Fraction(1, 2))
        assert A**0 == RationalMatrix.identity(2)
        assert A**3 == A @ A @ A
        assert A.apply((1, 0)) == (Fraction(1), Fraction(3))

    def test_shape_mismatch_raises(self):
        A = RationalMatrix([[1, 2]])
        with pytest.raises(ValueError):
            A @ A

    def test_stacking_and_blocks(self):
        A = RationalMatrix([[1]])
        B = RationalMatrix([[2]])
        assert RationalMatrix.hstack([A, B]) == RationalMatrix([[1, 2]])
        assert RationalMatrix.vstack([A, B]) == RationalMatrix([[1], [2]])
        assert RationalMatrix.block_diag([A, B]) == RationalMatrix([[1, 0], [0, 2]])

    def test_kron(self):
        A = RationalMatrix([[1, 2]])
        B = RationalMatrix([[3], [4]])
        K = A.kron(B)
        assert K == RationalMatrix([[3, 6], [4, 8]])

    def test_det(self):
        assert RationalMatrix([[1, 2], [3, 4]]).det() == -2
        assert RationalMatrix([], ncols=0).det() == 1  # empty product
        with pytest.raises(ValueError):
            RationalMatrix([[1, 2]]).det()

    def test_json_round_trip(self):
        M = RationalMatrix([[Fraction(1, 3), 0], [2, Fraction(-5, 7)]])
        again = RationalMatrix.from_json(M.to_json())
        assert again == M
        # entries serialize as strings so the dump is valid JSON
        text = json.dumps(M.to_json(), sort_keys=True)
        assert json.loads(text) == M.to_json()

    def test_vec_unvec(self):
        M = RationalMatrix([[1, 2], [3, 4]])
        assert unvec(vec(M), (2, 2)) == M


def test_rank_matches_elimination_oracle():
    rng = random.Random(11)
    for _ in range(40):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        M = _random_matrix(rng, nrows, ncols)
        assert M.rank() == rank_by_elimination([list(r) for r in M.rows])


def test_rank_kernel_image_structure():
    rng = random.Random(13)
    for _ in range(40):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 5)
        M = _random_matrix(rng, nrows, ncols)
        rank, kernel, image = rank_kernel_image(M)
        assert rank + len(kernel) == ncols
        assert len(image) == rank
        for v in kernel:
            assert all(x == 0 for x in M.apply(v))
        if image:
            assert RationalMatrix.from_columns(image, nrows=nrows).rank() == rank
        if kernel:
            K = RationalMatrix.from_columns(kernel, nrows=ncols)
            assert K.rank() == len(kernel)


def test_solve_matrix_and_vector():
    A = RationalMatrix([[2, 0], [0, 3]])
    B = RationalMatrix([[1], [1]])
    X = solve_matrix(A, B)
    assert X is not None and A @ X == B
    assert solve_vector(A, (1, 1)) == (Fraction(1, 2), Fraction(1, 3))
    # inconsistent system
    bad = solve_matrix(RationalMatrix([[1], [1]]), RationalMatrix([[0], [1]]))
    assert bad is None
    # underdetermined: particular solution still satisfies the equation
    U = RationalMatrix([[1, 1]])
    X2 = solve_matrix(U, RationalMatrix([[5]]))
    assert X2 is not None and U @ X2 == RationalMatrix([[5]])


def test_solve_in_subspace():
    A = RationalMatrix([[1, 0], [0, 0]])
    basis = [
        RationalMatrix([[1, 0], [0, 1]]),
        RationalMatrix([[0, 0], [1, 0]]),
        RationalMatrix([[0, 1], [0, 0]]),
    ]
    # A kills the second row of A @ X, so this target is unreachable
    assert solve_in_subspace(A, RationalMatrix([[0, 0], [1, 0]]), basis) is None
    # basis[1] is free (A kills it) and set to zero: the answer is basis[2]
    C = RationalMatrix([[0, 1], [0, 0]])
    Y = solve_in_subspace(A, C, basis)
    assert Y == basis[2] and A @ Y == C
    with pytest.raises(ValueError):
        solve_in_subspace(A, C, [basis[0], RationalMatrix.zeros(3, 3)])
    # empty basis solves only the zero equation
    assert solve_in_subspace(A, RationalMatrix.zeros(2, 2), []) == RationalMatrix.zeros(2, 2)
    assert solve_in_subspace(A, C, []) is None
    # two basis elements with the same image E11: whichever comes first is
    # the particular solution
    E11 = RationalMatrix([[1, 0], [0, 0]])
    E11_E21 = RationalMatrix([[1, 0], [1, 0]])
    assert solve_in_subspace(A, E11, [E11, E11_E21]) == E11
    assert solve_in_subspace(A, E11, [E11_E21, E11]) == E11_E21


def test_span_tracker():
    t = SpanTracker(3)
    assert t.add((1, 0, 0))
    assert not t.add((2, 0, 0))
    assert t.add((0, Fraction(1, 2), 0))
    assert t.contains((5, 7, 0))
    assert not t.contains((0, 0, 1))
    assert t.rank == 2
    with pytest.raises(ValueError):
        t.add((1, 0))


def test_extend_to_basis_returns_chosen_indices():
    base = [(1, 1, 0)]
    candidates = [(2, 2, 0), (1, 0, 0), (3, 3, 0), (0, 0, 7)]
    chosen = extend_to_basis(base, candidates, 3)
    assert chosen == [1, 3]
    vectors = list(base) + [candidates[i] for i in chosen]
    M = RationalMatrix.from_columns(vectors, nrows=3)
    assert M.rank() == 3
