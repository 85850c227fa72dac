from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from wallforge.lie import (
    LieAlgebra,
    LieModule,
    ce_complex,
    graded_koszul_check,
    insert_into_wedge,
    lie_homology,
    sym_basis,
    validate_lie,
    wedge_basis,
)
from wallforge.linalg import RationalMatrix, solve_matrix


def _random_invertible(rng, d):
    while True:
        M = RationalMatrix(
            [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)], ncols=d
        )
        if M.det() != 0:
            return M


def _conjugate_algebra(g, P):
    """The same Lie algebra written in the basis given by the columns of P."""
    Pinv = solve_matrix(P, RationalMatrix.identity(g.dim))
    assert Pinv is not None
    brackets = {}
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            w = g.bracket_vectors(P.col(i), P.col(j))
            brackets[(i, j)] = Pinv.apply(w)
    return LieAlgebra(g.dim, brackets)


def _conjugate_module(g_new, M, P):
    """Module actions for the new basis; the underlying space is unchanged."""
    actions = []
    for i in range(g_new.dim):
        acc = RationalMatrix.zeros(M.dim, M.dim)
        for k, c in enumerate(P.col(i)):
            if c:
                acc = acc + M.actions[k].scale(c)
        actions.append(acc)
    return LieModule(g_new, actions)


def _aff1():
    """The 2-dimensional nonabelian algebra, [x, y] = y."""
    return LieAlgebra(2, {(0, 1): [0, 1]})


def _solvable3(lam):
    """[e0, e1] = e1 and [e0, e2] = lam * e2."""
    return LieAlgebra(3, {(0, 1): [0, 1, 0], (0, 2): [0, 0, lam]})


def _filiform4():
    """[e0, e1] = e2, [e0, e2] = e3, four-dimensional nilpotent."""
    return LieAlgebra(4, {(0, 1): [0, 0, 1, 0], (0, 2): [0, 0, 0, 1]})


def test_wedge_and_sym_bases():
    assert wedge_basis(4, 2) == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    ]
    assert wedge_basis(3, 0) == [()]
    assert len(sym_basis(3, 4)) == math.comb(3 + 4 - 1, 4)
    assert sym_basis(2, 0) == [(0, 0)]


def test_insert_into_wedge_signs():
    # inserting 1 into (0, 2) passes one element: odd position, total (0, 1, 2)
    assert insert_into_wedge(1, (0, 2)) == (-1, (0, 1, 2))
    assert insert_into_wedge(3, (0, 2)) == (1, (0, 2, 3))
    assert insert_into_wedge(0, (0, 2)) is None


class TestValidation:
    def test_stock_algebras_are_valid(self):
        for g in (LieAlgebra.abelian(4), LieAlgebra.sl2(), LieAlgebra.heisenberg()):
            assert validate_lie(g).ok

    def test_antisymmetry_violation(self):
        g = LieAlgebra(2, {(0, 1): [0, 1], (1, 0): [0, 1]})
        v = validate_lie(g)
        assert (0, 1) in v.antisymmetry and not v.ok

    def test_jacobi_violation(self):
        g = LieAlgebra(3, {(0, 1): [0, 0, 1], (0, 2): [1, 0, 0]})
        v = validate_lie(g)
        assert v.jacobi == ((0, 1, 2),)

    def test_module_violation(self):
        g = LieAlgebra.heisenberg()
        bad = LieModule(
            g,
            [
                RationalMatrix([[0, 1], [0, 0]]),
                RationalMatrix([[0, 0], [1, 0]]),
                RationalMatrix.zeros(2, 2),
            ],
        )
        v = validate_lie(g, bad)
        assert (0, 1) in v.module

    def test_adjoint_satisfies_module_axiom(self):
        g = LieAlgebra.sl2()
        assert validate_lie(g, LieModule.adjoint(g)).ok


class TestCeComplex:
    def test_dimensions_are_binomials_times_fiber(self):
        g = LieAlgebra.sl2()
        M = LieModule.trivial(g, 2)
        C = ce_complex(g, M)
        assert [C.dim(k) for k in range(4)] == [2 * math.comb(3, k) for k in range(4)]

    def test_differential_squares_to_zero(self):
        g = LieAlgebra.sl2()
        C = ce_complex(g, LieModule.adjoint(g))
        assert C.violations() == []

    def test_invalid_input_rejected(self):
        g = LieAlgebra(3, {(0, 1): [0, 0, 1], (0, 2): [1, 0, 0]})
        with pytest.raises(ValueError):
            ce_complex(g, LieModule.trivial(g))


class TestKnownHomology:
    def test_sl2_trivial(self):
        g = LieAlgebra.sl2()
        assert lie_homology(g, LieModule.trivial(g)) == [1, 0, 0, 1]

    def test_sl2_adjoint_vanishes(self):
        g = LieAlgebra.sl2()
        assert lie_homology(g, LieModule.adjoint(g)) == [0, 0, 0, 0]

    def test_heisenberg_trivial(self):
        g = LieAlgebra.heisenberg()
        assert lie_homology(g, LieModule.trivial(g)) == [1, 2, 2, 1]

    def test_abelian_is_binomial(self):
        for d in range(1, 5):
            g = LieAlgebra.abelian(d)
            expected = [math.comb(d, k) for k in range(d + 1)]
            assert lie_homology(g, LieModule.trivial(g)) == expected

    def test_aff1_trivial(self):
        g = _aff1()
        assert lie_homology(g, LieModule.trivial(g)) == [1, 1, 0]

    def test_solvable3_generic_weight(self):
        g = _solvable3(Fraction(1, 2))
        assert lie_homology(g, LieModule.trivial(g)) == [1, 1, 0, 0]

    def test_filiform4_trivial(self):
        g = _filiform4()
        assert lie_homology(g, LieModule.trivial(g)) == [1, 2, 2, 2, 1]

    def test_aff1_nontrivial_module(self):
        g = _aff1()
        M = LieModule(
            g,
            [RationalMatrix([[1, 0], [0, 0]]), RationalMatrix([[0, 1], [0, 0]])],
        )
        assert validate_lie(g, M).ok
        C = ce_complex(g, M)
        assert C.violations() == []


def test_homology_is_basis_independent():
    """Conjugating the algebra and module never changes the Betti numbers."""
    rng = random.Random(20260816)
    cases = []
    h = LieAlgebra.heisenberg()
    s = LieAlgebra.sl2()
    cases.append((h, LieModule.trivial(h), [1, 2, 2, 1]))
    cases.append((s, LieModule.trivial(s), [1, 0, 0, 1]))
    cases.append((s, LieModule.adjoint(s), [0, 0, 0, 0]))
    f = _filiform4()
    cases.append((f, LieModule.trivial(f), [1, 2, 2, 2, 1]))
    a = _aff1()
    cases.append(
        (
            a,
            LieModule(
                a,
                [RationalMatrix([[1, 0], [0, 0]]), RationalMatrix([[0, 1], [0, 0]])],
            ),
            lie_homology(
                a,
                LieModule(
                    a,
                    [RationalMatrix([[1, 0], [0, 0]]), RationalMatrix([[0, 1], [0, 0]])],
                ),
            ),
        )
    )
    for g, M, betti in cases:
        for _ in range(3):
            P = _random_invertible(rng, g.dim)
            g2 = _conjugate_algebra(g, P)
            M2 = _conjugate_module(g2, M, P)
            assert validate_lie(g2, M2).ok
            C = ce_complex(g2, M2)
            assert C.violations() == []
            assert lie_homology(g2, M2) == betti, (betti, P)


def test_graded_koszul_exactness_small():
    for g in (LieAlgebra.abelian(2), LieAlgebra.heisenberg(), LieAlgebra.sl2()):
        report = graded_koszul_check(g, 4)
        assert report.all_exact
        assert report.max_internal_degree == 4
        # degree-n tables cover wedge degrees 0..min(dim, n)
        assert set(report.homology_by_degree) == {1, 2, 3, 4}


def test_graded_koszul_json_shape():
    report = graded_koszul_check(LieAlgebra.abelian(2), 2)
    data = report.to_json()
    assert data["all_exact"] is True
    assert set(data["homology"]) == {"1", "2"}


def _dense_ce_differentials(g, M):
    """The CE differentials filled into dense grids, term by term: the reference."""
    d, m = g.dim, M.dim
    diffs = {}
    for j in range(1, d + 1):
        src, tgt = wedge_basis(d, j), wedge_basis(d, j - 1)
        tgt_index = {S: idx for idx, S in enumerate(tgt)}
        grid = [[Fraction(0)] * (m * len(src)) for _ in range(m * len(tgt))]
        for s_idx, S in enumerate(src):
            for t in range(j):
                base_row = tgt_index[S[:t] + S[t + 1 :]] * m
                for a in range(m):
                    for b in range(m):
                        grid[base_row + b][s_idx * m + a] += (-1) ** t * M.actions[S[t]].entry(b, a)
            for s in range(j):
                for t in range(s + 1, j):
                    rest = tuple(x for idx, x in enumerate(S) if idx not in (s, t))
                    for k, c in enumerate(g.bracket(S[s], S[t])):
                        ins = insert_into_wedge(k, rest) if c else None
                        if ins is None:
                            continue
                        w_sign, merged = ins
                        for a in range(m):
                            row = tgt_index[merged] * m + a
                            grid[row][s_idx * m + a] += (-1) ** (s + t + 1) * w_sign * c
        diffs[j] = RationalMatrix(grid, ncols=m * len(src))
    return diffs


def test_ce_complex_matches_the_dense_builder():
    rng = random.Random(20261018)
    h, s, f, a = LieAlgebra.heisenberg(), LieAlgebra.sl2(), _filiform4(), _aff1()
    aff_module = LieModule(
        a, [RationalMatrix([[1, 0], [0, 0]]), RationalMatrix([[0, 1], [0, 0]])]
    )
    cases = [
        (h, LieModule.trivial(h, 2)),
        (h, LieModule.adjoint(h)),
        (s, LieModule.adjoint(s)),
        (f, LieModule.adjoint(f)),
        (a, aff_module),
    ]
    for g, M in list(cases):
        P = _random_invertible(rng, g.dim)
        g2 = _conjugate_algebra(g, P)
        cases.append((g2, _conjugate_module(g2, M, P)))
    for g, M in cases:
        C = ce_complex(g, M)
        for j, expected in _dense_ce_differentials(g, M).items():
            assert C.diff(j) == expected
