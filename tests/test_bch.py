from __future__ import annotations

import random
from fractions import Fraction

import pytest

from wallforge.arith import PExponent, bch_constants, p_valuation
from wallforge.bch import (
    DrExpansionReport,
    GaussPolynomial,
    NCPolynomial,
    bch_evaluate_nilpotent,
    bch_series,
    dr_norm_and_expansion,
    gauss_norm,
    group_law_polynomials,
)
from wallforge.complexes import CertificateError
from wallforge.lie import LieAlgebra
from wallforge.linalg import RationalMatrix

from oracles import bch_matrix_component, bch_word_coefficients


def _upper(size, entries, scale=1):
    """Strictly upper triangular matrix with the given (i, j) -> value map."""
    grid = [[Fraction(0)] * size for _ in range(size)]
    for (i, j), v in entries.items():
        assert i < j
        grid[i][j] = Fraction(scale) * v
    return RationalMatrix(grid, ncols=size)


def _min_valuation(m, p):
    vals = [
        p_valuation(m.entry(i, j), p)
        for i in range(m.nrows)
        for j in range(m.ncols)
        if m.entry(i, j)
    ]
    return min(vals) if vals else None


class TestNCPolynomial:
    def test_multiplication_concatenates_words(self):
        x = NCPolynomial.letter(0, 3)
        y = NCPolynomial.letter(1, 3)
        assert (x * y).coefficient((0, 1)) == 1
        assert (x * y).coefficient((1, 0)) == 0
        cube = x * x * x
        assert cube.coefficient((0, 0, 0)) == 1
        # degree cap swallows longer words
        assert (cube * x).is_zero()

    def test_arithmetic(self):
        x = NCPolynomial.letter(0, 2)
        y = NCPolynomial.letter(1, 2)
        f = (x + y).scale(Fraction(1, 2)) - x
        assert f.coefficient((0,)) == Fraction(-1, 2)
        assert f.coefficient((1,)) == Fraction(1, 2)
        assert f.component(1) == f
        assert f.component(2).is_zero()
        assert (f - f).is_zero()

    def test_validation(self):
        with pytest.raises(ValueError):
            NCPolynomial(1, {(0, 1): Fraction(1)})
        with pytest.raises(ValueError):
            NCPolynomial(2, {(0, 2): Fraction(1)})

    def test_json_round_trip(self):
        f = bch_series(3)
        assert NCPolynomial.from_json(f.to_json()) == f


class TestBchSeries:
    def test_frozen_low_degree_coefficients(self):
        f = bch_series(3)
        assert f.constant_term() == 0
        assert f.coefficient((0,)) == 1
        assert f.coefficient((1,)) == 1
        assert f.coefficient((0, 1)) == Fraction(1, 2)
        assert f.coefficient((1, 0)) == Fraction(-1, 2)
        assert f.coefficient((0, 0, 1)) == Fraction(1, 12)
        assert f.coefficient((0, 1, 0)) == Fraction(-1, 6)
        assert f.coefficient((1, 0, 0)) == Fraction(1, 12)
        assert f.coefficient((1, 1, 0)) == Fraction(1, 12)
        assert f.coefficient((1, 0, 1)) == Fraction(-1, 6)
        assert f.coefficient((0, 1, 1)) == Fraction(1, 12)
        assert f.coefficient((0, 0, 0)) == 0
        assert f.coefficient((1, 1, 1)) == 0

    def test_matches_word_oracle_through_degree_five(self):
        f = bch_series(5)
        oracle = bch_word_coefficients(5)
        assert {w: f.coefficient(w) for w in f.words()} == oracle

    def test_single_letter_words_vanish_past_degree_one(self):
        f = bch_series(5)
        for n in range(2, 6):
            assert f.coefficient((0,) * n) == 0
            assert f.coefficient((1,) * n) == 0

    def test_bad_truncation(self):
        with pytest.raises(ValueError):
            bch_series(0)


class TestNilpotentEvaluation:
    def test_matches_word_substitution_oracle(self):
        coeffs = bch_word_coefficients(4)
        x = _upper(4, {(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 2): -1})
        y = _upper(4, {(0, 1): -1, (1, 2): 1, (1, 3): 3})
        components = bch_evaluate_nilpotent(x, y, 4)
        xr = [[x.entry(i, j) for j in range(4)] for i in range(4)]
        yr = [[y.entry(i, j) for j in range(4)] for i in range(4)]
        for n in range(1, 5):
            expected = bch_matrix_component(coeffs, xr, yr, n)
            assert components[n - 1] == RationalMatrix(expected, ncols=4), n

    def test_degree_one_is_the_sum(self):
        x = _upper(3, {(0, 1): 5})
        y = _upper(3, {(1, 2): 7})
        components = bch_evaluate_nilpotent(x, y, 3)
        assert components[0] == x + y
        assert components[1] == _upper(3, {(0, 2): Fraction(35, 2)})

    def test_commuting_inputs_stop_at_degree_one(self):
        x = _upper(3, {(0, 2): 1})
        y = _upper(3, {(0, 2): -4})
        components = bch_evaluate_nilpotent(x, y, 3)
        assert components[0] == x + y
        assert components[1].is_zero() and components[2].is_zero()

    def test_input_validation(self):
        nil = _upper(2, {(0, 1): 1})
        with pytest.raises(ValueError):
            bch_evaluate_nilpotent(RationalMatrix.identity(2), nil, 2)
        with pytest.raises(ValueError):
            bch_evaluate_nilpotent(nil, _upper(3, {(0, 1): 1}), 2)
        with pytest.raises(ValueError):
            bch_evaluate_nilpotent(nil, nil, 0)


def test_valuation_bounds_on_powerful_pairs():
    """Scaled superdiagonal pairs obey the kappa*(n-1) - h_n floor."""
    for p in (2, 3):
        kappa = bch_constants(1, p).kappa
        scale = p**kappa
        x = _upper(4, {(0, 1): 1, (1, 2): 1, (2, 3): 1}, scale)
        y = _upper(4, {(0, 1): 1, (1, 2): -1, (2, 3): 1, (0, 2): 1}, scale)
        components = bch_evaluate_nilpotent(x, y, 4)
        for n in range(1, 5):
            mv = _min_valuation(components[n - 1], p)
            if mv is None:
                continue
            assert Fraction(mv) >= bch_constants(n, p).bound_exponent, (p, n)


def test_word_coefficients_have_universal_denominators():
    """p^{h_n} clears every degree-n coefficient, h_n = floor((n-1)/(p-1))."""
    coeffs = bch_word_coefficients(6)
    for p in (2, 3):
        for word, c in coeffs.items():
            h = bch_constants(len(word), p).h_n
            assert p_valuation(c, p) >= -h, (p, word, c)


class TestGaussPolynomial:
    def test_arithmetic_and_inspection(self):
        x = GaussPolynomial.variable(0, 2)
        y = GaussPolynomial.variable(1, 2)
        f = (x + y) ** 2
        assert f.coefficient((2, 0)) == 1
        assert f.coefficient((1, 1)) == 2
        assert f.total_degree() == 2
        assert f.truncate(1).is_zero()
        assert f.monomials() == [(0, 2), (1, 1), (2, 0)]

    def test_substitute_composes(self):
        x = GaussPolynomial.variable(0, 1)
        f = x * x + x.scale(3)
        g = f.substitute([x + GaussPolynomial.constant(1, 1)])
        for t in range(-3, 4):
            assert g.evaluate([t]) == f.evaluate([t + 1])

    def test_substitute_truncates(self):
        x = GaussPolynomial.variable(0, 1)
        f = x * x * x
        assert f.substitute([x + GaussPolynomial.constant(1, 1)], max_degree=2).total_degree() <= 2

    def test_variable_count_mismatch(self):
        with pytest.raises(ValueError):
            GaussPolynomial.variable(0, 1) + GaussPolynomial.variable(0, 2)
        with pytest.raises(ValueError):
            GaussPolynomial.variable(0, 2).evaluate([1])

    def test_json_round_trip(self):
        f = (GaussPolynomial.variable(0, 3) + GaussPolynomial.variable(2, 3)) ** 3
        assert GaussPolynomial.from_json(f.to_json()) == f


class TestGaussNorm:
    def test_spot_values(self):
        p = 2
        rho = PExponent.of(p, Fraction(-1, 2))
        x = GaussPolynomial.variable(0, 1)
        one = GaussPolynomial.constant(1, 1)
        f = x.scale(4) * x + x.scale(2) + one
        assert gauss_norm(f, rho, p) == PExponent.of(p, 0)
        assert gauss_norm(x.scale(Fraction(1, 2)), rho, p) == PExponent.of(p, Fraction(1, 2))
        assert gauss_norm(GaussPolynomial.zero(1), rho, p).is_zero

    def test_multiplicative_on_random_pairs(self):
        rng = random.Random(20260816)
        for p in (2, 3):
            rho = PExponent.of(p, Fraction(-1, 3))
            for _ in range(10):
                f = _random_poly(rng, 2, 3, p)
                g = _random_poly(rng, 2, 3, p)
                lhs = gauss_norm(f * g, rho, p)
                assert lhs == gauss_norm(f, rho, p) * gauss_norm(g, rho, p)

    def test_prime_mismatch(self):
        with pytest.raises(ValueError):
            gauss_norm(GaussPolynomial.constant(1, 1), PExponent.of(3, -1), 2)


def _random_poly(rng, nvars, degree, p):
    coeffs = {}
    for _ in range(rng.randint(1, 5)):
        mono = tuple(rng.randint(0, degree) for _ in range(nvars))
        num = rng.randint(-20, 20)
        den = rng.choice([1, p, p * p, p + 2])
        coeffs[mono] = Fraction(num, den)
    f = GaussPolynomial(nvars, coeffs)
    return f if not f.is_zero() else GaussPolynomial.constant(1, nvars)


def _powerful_heisenberg(p):
    kappa = bch_constants(1, p).kappa
    return LieAlgebra(3, {(0, 1): [0, 0, Fraction(p**kappa)]})


class TestGroupLaw:
    def test_abelian_law_is_addition(self):
        report = group_law_polynomials(LieAlgebra.abelian(2), 2, 3)
        a = [GaussPolynomial.variable(i, 4) for i in range(2)]
        b = [GaussPolynomial.variable(2 + i, 4) for i in range(2)]
        assert list(report.polynomials) == [a[0] + b[0], a[1] + b[1]]
        assert report.valuation_ok and report.associativity_ok

    def test_powerful_heisenberg_law(self):
        for p in (2, 3):
            g = _powerful_heisenberg(p)
            report = group_law_polynomials(g, p, 4)
            assert report.valuation_ok
            assert report.associativity_ok
            assert report.kappa == bch_constants(1, p).kappa
            f = report.polynomials[2]
            half = Fraction(p ** report.kappa, 2)
            a0b1 = (1, 0, 0, 0, 1, 0)
            a1b0 = (0, 1, 0, 0, 1, 0)[:3] + (1, 0, 0)[3:]
            assert f.coefficient(a0b1) == half
            assert f.coefficient((0, 1, 0, 1, 0, 0)) == -half
            # two-step nilpotent, so the law stops at degree 2
            for poly in report.polynomials:
                assert poly.total_degree() <= 2

    def test_law_matches_matrix_logarithm(self):
        # realize the scaled Heisenberg bracket with 3x3 strictly upper
        # triangular matrices and compare coordinates
        p = 2
        g = _powerful_heisenberg(p)
        report = group_law_polynomials(g, p, 4)
        scale = p ** report.kappa

        def realize(v):
            # [scale*E01, E12] = scale*E02, so this sends brackets to brackets
            return _upper(3, {(0, 1): v[0]}, scale) + _upper(
                3, {(1, 2): v[1], (0, 2): v[2]}
            )

        a = (Fraction(1), Fraction(1, 2), Fraction(3))
        b = (Fraction(-2), Fraction(1, 3), Fraction(1))
        components = bch_evaluate_nilpotent(realize(a), realize(b), 4)
        total = components[0]
        for part in components[1:]:
            total = total + part
        law_point = [f.evaluate(a + b) for f in report.polynomials]
        assert total == realize(law_point)

    def test_rejects_non_powerful_lattice(self):
        with pytest.raises(ValueError):
            group_law_polynomials(LieAlgebra.heisenberg(), 2, 3)

    def test_rejects_non_lie_structure(self):
        bad = LieAlgebra(3, {(0, 1): [0, 0, 4], (0, 2): [4, 0, 0]})
        with pytest.raises(ValueError):
            group_law_polynomials(bad, 2, 3)

    def test_rejects_bad_truncation(self):
        with pytest.raises(ValueError):
            group_law_polynomials(LieAlgebra.abelian(1), 2, 0)


class TestDrExpansion:
    def test_integer_exponent_single_term(self):
        r = PExponent.of(2, Fraction(-1, 4))
        report = dr_norm_and_expansion([1], r, 2, 3)
        assert report.terms == (((1,), Fraction(1)),)
        assert report.norm == report.bound == r.power(report.kappa)
        assert report.within_bound

    def test_square_exponent_terms_and_norm(self):
        r = PExponent.of(2, Fraction(-1, 4))
        report = dr_norm_and_expansion([2], r, 2, 3)
        assert report.terms == (((1,), Fraction(2)), ((2,), Fraction(1)))
        assert report.norm == PExponent.of(2, -1)
        assert report.within_bound

    def test_two_variables_expand_the_product(self):
        r = PExponent.of(3, Fraction(-1, 2))
        report = dr_norm_and_expansion([1, 2], r, 3, 3)
        expected = (
            ((0, 1), Fraction(2)),
            ((1, 0), Fraction(1)),
            ((0, 2), Fraction(1)),
            ((1, 1), Fraction(2)),
            ((1, 2), Fraction(1)),
        )
        assert report.terms == expected
        assert report.within_bound

    def test_non_integral_exact_exponent_breaks_the_bound(self):
        r = PExponent.of(2, Fraction(-1, 4))
        with pytest.raises(CertificateError):
            dr_norm_and_expansion([Fraction(1, 2)], r, 2, 2)

    def test_bad_radius_rejected(self):
        with pytest.raises(ValueError):
            dr_norm_and_expansion([1], PExponent.of(2, 0), 2, 2)
        with pytest.raises(ValueError):
            dr_norm_and_expansion([1], PExponent.of(2, Fraction(1, 2)), 2, 2)
        with pytest.raises(ValueError):
            dr_norm_and_expansion([1], PExponent.zero(2), 2, 2)
        with pytest.raises(ValueError):
            dr_norm_and_expansion([1], PExponent.of(3, Fraction(-1, 2)), 2, 2)

    def test_json_shape(self):
        r = PExponent.of(2, Fraction(-1, 4))
        report = dr_norm_and_expansion([3], r, 2, 2)
        dump = report.to_json()
        assert dump["within_bound"] is True
        assert dump["terms"][0]["alpha"] == [1]
        assert dump["terms"][0]["coefficient"] == {"exact": "3"}
        assert isinstance(report, DrExpansionReport)
