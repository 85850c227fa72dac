from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from wallforge.arith import (
    PExponent,
    bch_constants,
    p_valuation,
    radius_params,
)

from oracles import fraction_valuation, radius_ladder


def test_p_valuation_basics():
    assert p_valuation(12, 2) == 2
    assert p_valuation(Fraction(9, 2), 3) == 2
    assert p_valuation(Fraction(1, 8), 2) == -3
    assert p_valuation(0, 5) == float("inf")


def test_p_valuation_matches_oracle_on_random_rationals():
    rng = random.Random(20260816)
    for _ in range(200):
        num = rng.randint(-500, 500)
        den = rng.randint(1, 500)
        x = Fraction(num, den)
        for p in (2, 3, 5, 7):
            expected = fraction_valuation(x, p)
            got = p_valuation(x, p)
            if expected is None:
                assert got == float("inf")
            else:
                assert got == expected


class TestPExponent:
    def test_ordering_and_arithmetic(self):
        a = PExponent.of(3, Fraction(-1, 2))
        b = PExponent.of(3, Fraction(-1, 3))
        assert a < b  # more negative exponent means smaller size
        assert (a * b).exponent == Fraction(-5, 6)
        assert (b / a).exponent == Fraction(1, 6)
        assert a.power(2).exponent == Fraction(-1)

    def test_zero_absorbs(self):
        z = PExponent.zero(5)
        a = PExponent.of(5, Fraction(1, 4))
        assert (z * a).is_zero
        assert z < a
        assert not a < z

    def test_size_of(self):
        # p-adic absolute value: |9|_3 = 3**-2, |1/9|_3 = 3**2
        assert PExponent.size_of(Fraction(9), 3).exponent == -2
        assert PExponent.size_of(Fraction(1, 9), 3).exponent == 2
        assert PExponent.size_of(0, 3).is_zero

    def test_mixed_primes_rejected(self):
        with pytest.raises(ValueError):
            PExponent.of(2, Fraction(1)) * PExponent.of(3, Fraction(1))

    def test_exponent_is_one_fraction_however_given(self):
        for exponent in (2, Fraction(2), Fraction(4, 2), "2"):
            a = PExponent.of(3, exponent)
            assert type(a.exponent) is Fraction
            assert a == PExponent(3, 2) == PExponent(3, Fraction(2))
            assert hash(a) == hash(PExponent(3, 2))
        # a Fraction exponent is kept as given, not wrapped again
        e = Fraction(-1, 4)
        assert PExponent.of(3, e).exponent is e

    def test_json_round_trip(self):
        a = PExponent.of(7, Fraction(-3, 4))
        assert PExponent.from_json(a.to_json()) == a
        z = PExponent.zero(7)
        assert PExponent.from_json(z.to_json()).is_zero
        # serialized form is stable text
        assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(
            PExponent.from_json(a.to_json()).to_json(), sort_keys=True
        )


def test_bch_constants_table():
    # kappa: 2 only at the even prime
    assert bch_constants(1, 2).kappa == 2
    assert bch_constants(1, 3).kappa == 1
    assert bch_constants(1, 5).kappa == 1
    # h_n = floor((n-1)/(p-1))
    assert [bch_constants(n, 2).h_n for n in range(1, 7)] == [0, 1, 2, 3, 4, 5]
    assert [bch_constants(n, 3).h_n for n in range(1, 7)] == [0, 0, 1, 1, 2, 2]
    assert [bch_constants(n, 5).h_n for n in range(1, 7)] == [0, 0, 0, 0, 1, 1]
    for p in (2, 3, 5):
        for n in range(1, 7):
            c = bch_constants(n, p)
            assert c.bound_exponent == c.kappa * (n - 1) - c.h_n
            assert c.bound_exponent >= Fraction(n - 1) * (c.kappa - Fraction(1, p - 1))


def test_radius_params_example():
    params = radius_params(PExponent.of(3, Fraction(-1, 4)), 3, 1, 3)
    assert (params.h, params.ell, params.in_sR, params.m_witness) == (1, 1, True, 1)


def test_radius_params_against_ladder_oracle_grid():
    """Fifty grid points, three ramifications, compared field by field."""
    exponents = []
    for den in range(2, 14):
        for num in range(1, den):
            exponents.append(Fraction(-num, den))
    exponents = sorted(set(exponents))[:50]
    assert len(exponents) == 50
    for p in (2, 3):
        for e in (1, 2):
            q = p**e
            for x in exponents:
                h, ell, in_sr, m = radius_ladder(p, e, q, x)
                params = radius_params(PExponent.of(p, x), p, e, q)
                got = (params.h, params.ell, params.in_sR, params.m_witness)
                assert got == (h, ell, in_sr, m), (p, e, x, got, (h, ell, in_sr, m))


def test_radius_params_validation():
    with pytest.raises(ValueError):
        radius_params(PExponent.of(3, Fraction(-2)), 3, 1, 3)  # r <= 1/p
    with pytest.raises(ValueError):
        radius_params(PExponent.of(3, Fraction(1, 2)), 3, 1, 3)  # r >= 1
    with pytest.raises(ValueError):
        radius_params(PExponent.of(3, Fraction(-1, 4)), 3, 1, 5)  # q not a p power
    with pytest.raises(ValueError):
        radius_params(PExponent.of(2, Fraction(-1, 4)), 3, 1, 3)  # mixed primes
