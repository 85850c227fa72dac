"""Exact scalars for p-adic size bookkeeping.

``PExponent`` records the *size* of a p-adic number as an exact rational
exponent: the value ``p**exponent``, plus a distinguished absorbing zero.
Multiplying sizes adds exponents, comparing sizes compares exponents, and no
floating point is ever involved.

On top of it sit the small closed-form computations used by the nilpotent
group-law machinery: the constants ``kappa`` and ``h_n`` with their
denominator bound, and the radius ladder ``(h, ell)`` attached to a
convergence radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]

#: Search ceiling for the integer minimization in ``radius_params``.  The
#: minima exist for every valid input, but a typo in ``r`` can push them far
#: out; failing loudly beats spinning.
SEARCH_BOUND = 64


def _require_prime(p: int) -> None:
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"p must be a prime integer, got {p!r}")
    if p in (2, 3):
        return
    if p % 2 == 0:
        raise ValueError(f"p must be prime, got {p}")
    d = 3
    while d * d <= p:
        if p % d == 0:
            raise ValueError(f"p must be prime, got {p}")
        d += 2


def p_valuation(x: RationalLike, p: int) -> Union[int, float]:
    """p-adic valuation of a rational number; ``math.inf`` for zero.

    >>> p_valuation(8, 2)
    3
    >>> p_valuation(Fraction(1, 9), 3)
    -2
    >>> p_valuation(0, 5)
    inf
    """
    _require_prime(p)
    x = Fraction(x)
    if x == 0:
        return math.inf
    v = 0
    num = abs(x.numerator)
    while num % p == 0:
        num //= p
        v += 1
    den = x.denominator
    while den % p == 0:
        den //= p
        v -= 1
    return v


@dataclass(frozen=True)
class PExponent:
    """The size ``p**exponent``, or the absorbing zero size.

    Ordering and equality compare the represented sizes, so they require a
    common prime (except that zero compares below everything and two zeros
    are equal regardless of base).

    >>> a = PExponent.of(3, Fraction(-1, 4))
    >>> b = PExponent.of(3, Fraction(-1, 2))
    >>> b < a
    True
    >>> (a * a) == b
    True
    """

    p: int
    exponent: Fraction = Fraction(0)
    is_zero: bool = False

    def __post_init__(self) -> None:
        _require_prime(self.p)
        if type(self.exponent) is not Fraction:
            object.__setattr__(self, "exponent", Fraction(self.exponent))
        if self.is_zero and self.exponent != 0:
            raise ValueError("the zero size carries no exponent")

    @classmethod
    def of(cls, p: int, exponent: RationalLike) -> "PExponent":
        return cls(p=p, exponent=exponent)

    @classmethod
    def zero(cls, p: int) -> "PExponent":
        return cls(p=p, exponent=Fraction(0), is_zero=True)

    @classmethod
    def size_of(cls, x: RationalLike, p: int) -> "PExponent":
        """The p-adic absolute value of a rational number, as a size."""
        v = p_valuation(x, p)
        if v == math.inf:
            return cls.zero(p)
        return cls.of(p, -v)

    def _check_same_p(self, other: "PExponent") -> None:
        if self.p != other.p:
            raise ValueError(f"mixed primes {self.p} and {other.p}")

    def __mul__(self, other: "PExponent") -> "PExponent":
        self._check_same_p(other)
        if self.is_zero or other.is_zero:
            return PExponent.zero(self.p)
        return PExponent.of(self.p, self.exponent + other.exponent)

    def __truediv__(self, other: "PExponent") -> "PExponent":
        self._check_same_p(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero size")
        if self.is_zero:
            return PExponent.zero(self.p)
        return PExponent.of(self.p, self.exponent - other.exponent)

    def power(self, k: RationalLike) -> "PExponent":
        k = Fraction(k)
        if self.is_zero:
            if k <= 0:
                raise ZeroDivisionError("nonpositive power of the zero size")
            return self
        return PExponent.of(self.p, self.exponent * k)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PExponent):
            return NotImplemented
        if self.is_zero and other.is_zero:
            return True
        if self.is_zero != other.is_zero:
            return False
        self._check_same_p(other)
        return self.exponent == other.exponent

    def __hash__(self) -> int:
        if self.is_zero:
            return hash(("PExponent", "zero"))
        return hash(("PExponent", self.p, self.exponent))

    def __lt__(self, other: "PExponent") -> bool:
        if not isinstance(other, PExponent):
            return NotImplemented
        if self.is_zero:
            return not other.is_zero
        if other.is_zero:
            return False
        self._check_same_p(other)
        return self.exponent < other.exponent

    def __le__(self, other: "PExponent") -> bool:
        return self == other or self < other

    def __gt__(self, other: "PExponent") -> bool:
        if not isinstance(other, PExponent):
            return NotImplemented
        return other < self

    def __ge__(self, other: "PExponent") -> bool:
        return self == other or other < self

    def to_json(self) -> dict:
        if self.is_zero:
            return {"p": self.p, "zero": True}
        return {
            "p": self.p,
            "exp_num": self.exponent.numerator,
            "exp_den": self.exponent.denominator,
        }

    @classmethod
    def from_json(cls, data: dict) -> "PExponent":
        if data.get("zero"):
            return cls.zero(int(data["p"]))
        return cls.of(int(data["p"]), Fraction(int(data["exp_num"]), int(data["exp_den"])))

    def __repr__(self) -> str:
        if self.is_zero:
            return f"PExponent.zero({self.p})"
        return f"PExponent.of({self.p}, Fraction({self.exponent.numerator}, {self.exponent.denominator}))"


@dataclass(frozen=True)
class BchConstants:
    """Denominator bookkeeping for degree-n group-law coefficients."""

    p: int
    n: int
    kappa: int
    h_n: int
    bound_exponent: Fraction


def bch_constants(n: int, p: int) -> BchConstants:
    """``kappa``, the denominator bound ``h_n``, and the exponent margin.

    ``kappa`` is 1 for odd primes and 2 for p = 2; ``h_n`` is the largest
    power of p dividing the denominators of degree-n group-law coefficients,
    ``floor((n-1)/(p-1))``; and the margin ``kappa*(n-1) - h_n`` is bounded
    below by ``(n-1)*(kappa - 1/(p-1))``, which is what makes the power
    series converge on the right polydisc.
    """
    _require_prime(p)
    if n < 1:
        raise ValueError("degree n must be at least 1")
    kappa = 1 if p > 2 else 2
    h_n = (n - 1) // (p - 1)
    bound = Fraction(kappa * (n - 1) - h_n)
    return BchConstants(p=p, n=n, kappa=kappa, h_n=h_n, bound_exponent=bound)


@dataclass(frozen=True)
class RadiusParams:
    """The integer ladder attached to a convergence radius.

    ``h`` is the first k with ``r**kappa < p**(-1/((p-1) p**k))``; ``ell`` is
    the first m with ``|pi|**m * p**h * r**(kappa p**h) < p**(-1/(p-1))``
    where ``|pi| = p**(-1/e)``.  ``in_sR`` reports whether some m >= 0 puts
    ``r**(kappa p**m)`` strictly inside the two-sided window
    ``(p**(-1/(p-1) - 1/(e q**m)), p**(-1/(p-1)))``; the spotting witness,
    when it exists, is unique and recorded as ``m_witness``.
    """

    r: PExponent
    p: int
    e: int
    q_res: int
    h: int
    ell: int
    in_sR: bool
    m_witness: Union[int, None]

    def to_json(self) -> dict:
        return {
            "r": self.r.to_json(),
            "p": self.p,
            "e": self.e,
            "q_res": self.q_res,
            "h": self.h,
            "ell": self.ell,
            "in_sR": self.in_sR,
            "m_witness": self.m_witness,
        }


def radius_params(r: PExponent, p: int, e: int, q_res: int) -> RadiusParams:
    """Compute ``(h, ell, in_sR, m_witness)`` for a radius ``r`` in (1/p, 1).

    ``e`` is the ramification index of the coefficient field over Q_p and
    ``q_res`` its residue cardinality (a power of p).  All comparisons happen
    between exact rational exponents of p.
    """
    _require_prime(p)
    if r.p != p:
        raise ValueError(f"radius carries prime {r.p}, expected {p}")
    if r.is_zero or not (Fraction(-1) < r.exponent < Fraction(0)):
        raise ValueError("radius must satisfy 1/p < r < 1")
    if e < 1:
        raise ValueError("ramification index must be at least 1")
    qq = q_res
    while qq > 1 and qq % p == 0:
        qq //= p
    if qq != 1 or q_res < p:
        raise ValueError(f"residue cardinality {q_res} is not a positive power of {p}")

    x = r.exponent  # r = p**x with -1 < x < 0
    kappa = 1 if p > 2 else 2

    h = None
    for k in range(SEARCH_BOUND):
        # r**kappa < p**(-1/((p-1) p**k))
        if kappa * x < Fraction(-1, (p - 1) * p**k):
            h = k
            break
    if h is None:
        raise RuntimeError(f"no h below search bound {SEARCH_BOUND}")

    ell = None
    for m in range(SEARCH_BOUND):
        # p**(-m/e) * p**h * r**(kappa p**h) < p**(-1/(p-1))
        lhs = Fraction(-m, e) + h + kappa * p**h * x
        if lhs < Fraction(-1, p - 1):
            ell = m
            break
    if ell is None:
        raise RuntimeError(f"no ell below search bound {SEARCH_BOUND}")

    m_witness = None
    for m in range(SEARCH_BOUND):
        y = kappa * p**m * x  # exponent of r**(kappa p**m)
        lo = Fraction(-1, p - 1) - Fraction(1, e * q_res**m)
        hi = Fraction(-1, p - 1)
        if lo < y < hi:
            m_witness = m
            break
        if y <= lo:
            # y only decreases with m while lo increases; no witness left
            break

    return RadiusParams(
        r=r,
        p=p,
        e=e,
        q_res=q_res,
        h=h,
        ell=ell,
        in_sR=m_witness is not None,
        m_witness=m_witness,
    )
