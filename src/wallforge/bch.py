"""Truncated group-law calculus in exact arithmetic.

The analytic layer of the package: the Baker-Campbell-Hausdorff series as a
truncated noncommutative polynomial, its evaluation on nilpotent matrices
through a formal parameter, coordinate group laws for Lie lattices whose
bracket is divisible by p**kappa, Gauss norms of polynomials on polydiscs,
and the binomial expansion (1+b)**nu, for rational nu, with its formal
radius-r norm.

Everything is rational: series are truncated at an explicit degree, matrix
inputs must be nilpotent so exponentials terminate, and norms are tracked as
exact powers of p through :class:`wallforge.arith.PExponent`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from wallforge.arith import PExponent, bch_constants, p_valuation
from wallforge.complexes import CertificateError
from wallforge.lie import LieAlgebra, validate_lie
from wallforge.linalg import RationalMatrix

Word = Tuple[int, ...]
_LETTERS = "XY"


def _word_str(word: Word) -> str:
    return "".join(_LETTERS[c] for c in word) if word else "1"


def _word_key(word: Word) -> tuple:
    return (len(word), word)


class NCPolynomial:
    """Polynomial in two noncommuting letters, truncated by word length.

    Words are tuples over {0, 1} standing for X and Y; anything longer than
    the truncation degree is dropped by the arithmetic and rejected by the
    constructor.  Terms are kept in length-then-lex order.
    """

    __slots__ = ("degree", "_terms")

    def __init__(self, degree: int, terms: Optional[Mapping[Word, Fraction]] = None):
        if degree < 0:
            raise ValueError("truncation degree must be nonnegative")
        object.__setattr__(self, "degree", degree)
        clean: Dict[Word, Fraction] = {}
        for word, coef in (terms or {}).items():
            w = tuple(word)
            if len(w) > degree:
                raise ValueError(f"word of length {len(w)} exceeds truncation {degree}")
            if any(c not in (0, 1) for c in w):
                raise ValueError("letters must be 0 (X) or 1 (Y)")
            c = Fraction(coef)
            if c:
                clean[w] = c
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("NCPolynomial is immutable")

    # -- constructors -------------------------------------------------------------

    @classmethod
    def zero(cls, degree: int) -> "NCPolynomial":
        return cls(degree)

    @classmethod
    def one(cls, degree: int) -> "NCPolynomial":
        return cls(degree, {(): Fraction(1)})

    @classmethod
    def letter(cls, which: int, degree: int) -> "NCPolynomial":
        return cls(degree, {(which,): Fraction(1)})

    # -- inspection ---------------------------------------------------------------

    def coefficient(self, word: Word) -> Fraction:
        return self._terms.get(tuple(word), Fraction(0))

    def words(self) -> List[Word]:
        return sorted(self._terms, key=_word_key)

    def is_zero(self) -> bool:
        return not self._terms

    def component(self, n: int) -> "NCPolynomial":
        """The homogeneous part in word length n."""
        return NCPolynomial(
            self.degree, {w: c for w, c in self._terms.items() if len(w) == n}
        )

    def constant_term(self) -> Fraction:
        return self._terms.get((), Fraction(0))

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other: "NCPolynomial") -> "NCPolynomial":
        deg = min(self.degree, other.degree)
        out: Dict[Word, Fraction] = {}
        for src in (self._terms, other._terms):
            for w, c in src.items():
                if len(w) <= deg:
                    out[w] = out.get(w, Fraction(0)) + c
        return NCPolynomial(deg, out)

    def __neg__(self) -> "NCPolynomial":
        return NCPolynomial(self.degree, {w: -c for w, c in self._terms.items()})

    def __sub__(self, other: "NCPolynomial") -> "NCPolynomial":
        return self + (-other)

    def scale(self, c) -> "NCPolynomial":
        c = Fraction(c)
        return NCPolynomial(self.degree, {w: c * v for w, v in self._terms.items()})

    def __mul__(self, other: "NCPolynomial") -> "NCPolynomial":
        deg = min(self.degree, other.degree)
        out: Dict[Word, Fraction] = {}
        for w1, c1 in self._terms.items():
            if len(w1) > deg:
                continue
            for w2, c2 in other._terms.items():
                if len(w1) + len(w2) > deg:
                    continue
                w = w1 + w2
                out[w] = out.get(w, Fraction(0)) + c1 * c2
        return NCPolynomial(deg, out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        return self.degree == other.degree and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.degree, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        if not self._terms:
            return "NCPolynomial(0)"
        bits = [f"{c}*{_word_str(w)}" for w, c in sorted(self._terms.items(), key=lambda t: _word_key(t[0]))]
        return "NCPolynomial(" + " + ".join(bits) + ")"

    # -- serialization ------------------------------------------------------------

    def to_json(self) -> dict:
        terms = [
            [_word_str(w), str(c)]
            for w, c in sorted(self._terms.items(), key=lambda t: _word_key(t[0]))
        ]
        return {"degree": self.degree, "terms": terms}

    @classmethod
    def from_json(cls, data: dict) -> "NCPolynomial":
        terms: Dict[Word, Fraction] = {}
        for word_str, coef in data["terms"]:
            w = () if word_str == "1" else tuple(_LETTERS.index(ch) for ch in word_str)
            terms[w] = Fraction(coef)
        return cls(int(data["degree"]), terms)


def _exp_positive(f: NCPolynomial) -> NCPolynomial:
    """exp of a series with zero constant term, truncated at f.degree."""
    if f.constant_term():
        raise ValueError("exp needs a series without constant term")
    out = NCPolynomial.one(f.degree)
    power = NCPolynomial.one(f.degree)
    for k in range(1, f.degree + 1):
        power = power * f
        if power.is_zero():
            break
        out = out + power.scale(Fraction(1, math.factorial(k)))
    return out


def _log_one_plus(g: NCPolynomial) -> NCPolynomial:
    """log(1 + g) for a series g with zero constant term."""
    if g.constant_term():
        raise ValueError("log needs a series without constant term")
    out = NCPolynomial.zero(g.degree)
    power = NCPolynomial.one(g.degree)
    for k in range(1, g.degree + 1):
        power = power * g
        if power.is_zero():
            break
        out = out + power.scale(Fraction((-1) ** (k + 1), k))
    return out


def bch_series(N: int) -> NCPolynomial:
    """log(exp(X) exp(Y)) truncated at word length N.

    The degree-1 part is X + Y and the degree-2 part is (XY - YX)/2; higher
    parts come out of the exact series composition.
    """
    if N < 1:
        raise ValueError("truncation degree must be at least 1")
    x = NCPolynomial.letter(0, N)
    y = NCPolynomial.letter(1, N)
    prod = _exp_positive(x) * _exp_positive(y)
    return _log_one_plus(prod - NCPolynomial.one(N))


# ---------------------------------------------------------------------------
# evaluation on nilpotent matrices
# ---------------------------------------------------------------------------


def _is_nilpotent(m: RationalMatrix) -> bool:
    power = m
    for _ in range(m.nrows):
        if power.is_zero():
            return True
        power = power @ m
    return power.is_zero()


def _tseries_mul(
    a: List[RationalMatrix], b: List[RationalMatrix], N: int, size: int
) -> List[RationalMatrix]:
    out = [RationalMatrix.zeros(size, size) for _ in range(N + 1)]
    for i, ai in enumerate(a):
        if ai.is_zero():
            continue
        for j, bj in enumerate(b):
            if i + j > N:
                break
            if bj.is_zero():
                continue
            out[i + j] = out[i + j] + ai @ bj
    return out


def bch_evaluate_nilpotent(
    x: RationalMatrix, y: RationalMatrix, N: int
) -> List[RationalMatrix]:
    """The homogeneous pieces u_1(x,y), ..., u_N(x,y) of log(exp(x) exp(y)).

    Both matrices must be nilpotent so the exponentials are polynomials.
    Homogeneous pieces are read off as coefficients of t**n in
    log(exp(t x) exp(t y)), computed as an exact polynomial in t.
    """
    if N < 1:
        raise ValueError("need N >= 1")
    if x.nrows != x.ncols or x.shape != y.shape:
        raise ValueError("inputs must be square matrices of equal size")
    for name, m in (("x", x), ("y", y)):
        if not _is_nilpotent(m):
            raise ValueError(f"matrix {name} is not nilpotent")
    size = x.nrows
    zero = RationalMatrix.zeros(size, size)

    def exp_t(m: RationalMatrix) -> List[RationalMatrix]:
        out = [zero] * (N + 1)
        out[0] = RationalMatrix.identity(size)
        power = RationalMatrix.identity(size)
        for k in range(1, N + 1):
            power = power @ m
            if power.is_zero():
                break
            out[k] = Fraction(1, math.factorial(k)) * power
        return out

    prod = _tseries_mul(exp_t(x), exp_t(y), N, size)
    g = [zero] + prod[1:]  # exp(tx)exp(ty) - 1 has no t^0 term
    log_series = [zero] * (N + 1)
    power = [RationalMatrix.identity(size)] + [zero] * N
    for k in range(1, N + 1):
        power = _tseries_mul(power, g, N, size)
        if all(m.is_zero() for m in power):
            break
        c = Fraction((-1) ** (k + 1), k)
        for n in range(N + 1):
            if not power[n].is_zero():
                log_series[n] = log_series[n] + c * power[n]
    return log_series[1:]


# ---------------------------------------------------------------------------
# commutative polynomials and Gauss norms
# ---------------------------------------------------------------------------


class GaussPolynomial:
    """Multivariate polynomial over Q with a fixed variable count.

    Monomials are exponent tuples; storage drops zero coefficients.  Used
    both for norm computations on polydiscs and as the coefficient ring of
    truncated group laws.
    """

    __slots__ = ("nvars", "_coeffs")

    def __init__(
        self, nvars: int, coeffs: Optional[Mapping[Tuple[int, ...], Fraction]] = None
    ):
        if nvars < 0:
            raise ValueError("variable count must be nonnegative")
        object.__setattr__(self, "nvars", nvars)
        clean: Dict[Tuple[int, ...], Fraction] = {}
        for mono, coef in (coeffs or {}).items():
            m = tuple(int(e) for e in mono)
            if len(m) != nvars or any(e < 0 for e in m):
                raise ValueError(f"bad exponent tuple {m} for {nvars} variables")
            c = Fraction(coef)
            if c:
                clean[m] = c
        object.__setattr__(self, "_coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("GaussPolynomial is immutable")

    @classmethod
    def zero(cls, nvars: int) -> "GaussPolynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, c, nvars: int) -> "GaussPolynomial":
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def variable(cls, i: int, nvars: int) -> "GaussPolynomial":
        if not 0 <= i < nvars:
            raise ValueError("variable index out of range")
        mono = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {mono: Fraction(1)})

    def is_zero(self) -> bool:
        return not self._coeffs

    def coefficient(self, mono: Sequence[int]) -> Fraction:
        return self._coeffs.get(tuple(mono), Fraction(0))

    def monomials(self) -> List[Tuple[int, ...]]:
        return sorted(self._coeffs, key=lambda m: (sum(m), m))

    def total_degree(self) -> int:
        return max((sum(m) for m in self._coeffs), default=0)

    def __add__(self, other: "GaussPolynomial") -> "GaussPolynomial":
        self._check(other)
        out = dict(self._coeffs)
        for m, c in other._coeffs.items():
            out[m] = out.get(m, Fraction(0)) + c
        return GaussPolynomial(self.nvars, out)

    def __neg__(self) -> "GaussPolynomial":
        return GaussPolynomial(self.nvars, {m: -c for m, c in self._coeffs.items()})

    def __sub__(self, other: "GaussPolynomial") -> "GaussPolynomial":
        return self + (-other)

    def __mul__(self, other: "GaussPolynomial") -> "GaussPolynomial":
        self._check(other)
        out: Dict[Tuple[int, ...], Fraction] = {}
        for m1, c1 in self._coeffs.items():
            for m2, c2 in other._coeffs.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return GaussPolynomial(self.nvars, out)

    def scale(self, c) -> "GaussPolynomial":
        c = Fraction(c)
        return GaussPolynomial(self.nvars, {m: c * v for m, v in self._coeffs.items()})

    def __pow__(self, k: int) -> "GaussPolynomial":
        if k < 0:
            raise ValueError("negative power")
        out = GaussPolynomial.constant(1, self.nvars)
        for _ in range(k):
            out = out * self
        return out

    def truncate(self, max_degree: int) -> "GaussPolynomial":
        return GaussPolynomial(
            self.nvars, {m: c for m, c in self._coeffs.items() if sum(m) <= max_degree}
        )

    def substitute(
        self, images: Sequence["GaussPolynomial"], max_degree: Optional[int] = None
    ) -> "GaussPolynomial":
        """Plug ``images[i]`` in for variable i, truncating if asked."""
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        nv = images[0].nvars if images else 0
        for g in images:
            if g.nvars != nv:
                raise ValueError("images must share a variable count")
        out = GaussPolynomial.zero(nv)
        for mono, coef in self._coeffs.items():
            term = GaussPolynomial.constant(coef, nv)
            for i, e in enumerate(mono):
                for _ in range(e):
                    term = term * images[i]
                    if max_degree is not None:
                        term = term.truncate(max_degree)
            out = out + term
        return out

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != self.nvars:
            raise ValueError("need one value per variable")
        vals = [Fraction(x) for x in point]
        total = Fraction(0)
        for mono, coef in self._coeffs.items():
            term = coef
            for x, e in zip(vals, mono):
                term *= x**e
            total += term
        return total

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GaussPolynomial):
            return NotImplemented
        return self.nvars == other.nvars and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self._coeffs.items())))

    def __repr__(self) -> str:
        if not self._coeffs:
            return "GaussPolynomial(0)"
        bits = []
        for mono in self.monomials():
            vars_part = "*".join(
                f"v{i}^{e}" if e > 1 else f"v{i}" for i, e in enumerate(mono) if e
            )
            c = self._coeffs[mono]
            bits.append(f"{c}*{vars_part}" if vars_part else str(c))
        return "GaussPolynomial(" + " + ".join(bits) + ")"

    def _check(self, other: "GaussPolynomial") -> None:
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")

    def to_json(self) -> dict:
        return {
            "nvars": self.nvars,
            "terms": [[list(m), str(self._coeffs[m])] for m in self.monomials()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "GaussPolynomial":
        return cls(
            int(data["nvars"]),
            {tuple(m): Fraction(c) for m, c in data["terms"]},
        )


def gauss_norm(f: GaussPolynomial, rho: PExponent, p: int) -> PExponent:
    """max over monomials of |coefficient|_p * rho**(total degree)."""
    if rho.p != p:
        raise ValueError(f"radius is a power of {rho.p}, not of {p}")
    best = PExponent.zero(p)
    for mono, coef in f._coeffs.items():
        value = PExponent.size_of(coef, p) * rho.power(sum(mono))
        if value > best:
            best = value
    return best


# ---------------------------------------------------------------------------
# coordinate group laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupLawReport:
    """Truncated group law on a Lie lattice together with its certificates."""

    prime: int
    kappa: int
    truncation: int
    polynomials: tuple  # one GaussPolynomial in 2d variables per coordinate
    valuation_ok: bool
    associativity_ok: bool

    def to_json(self) -> dict:
        return {
            "p": self.prime,
            "kappa": self.kappa,
            "truncation": self.truncation,
            "polynomials": [f.to_json() for f in self.polynomials],
            "valuation_ok": self.valuation_ok,
            "associativity_ok": self.associativity_ok,
        }


def _poly_bracket(
    g: LieAlgebra, u: List[GaussPolynomial], v: List[GaussPolynomial]
) -> List[GaussPolynomial]:
    """Bracket of two polynomial-coefficient vectors, via structure constants."""
    d = g.dim
    nv = u[0].nvars
    out = [GaussPolynomial.zero(nv) for _ in range(d)]
    for i in range(d):
        if u[i].is_zero():
            continue
        for j in range(d):
            if v[j].is_zero():
                continue
            coeffs = g.bracket(i, j)
            prod = u[i] * v[j]
            for k, c in enumerate(coeffs):
                if c:
                    out[k] = out[k] + prod.scale(c)
    return out


def group_law_polynomials(g: LieAlgebra, p: int, N: int) -> GroupLawReport:
    """The truncated coordinate group law of a powerful Lie lattice.

    Requires every structure constant to have p-valuation at least kappa
    (kappa = 2 when p = 2, else 1); the offending bracket pair is reported
    otherwise.  Returns one polynomial per coordinate in the 2d variables
    a_0..a_{d-1}, b_0..b_{d-1}, with three checks folded in: the degree-1
    part is a + b, every degree-n coefficient has valuation at least
    kappa*(n-1) - h_n, and the law is associative modulo degree N + 1.

    Homogeneous pieces of the letter series are turned into bracket
    expressions by right-nested bracketing of each word divided by the word
    length, which is the identity on Lie elements.
    """
    if N < 1:
        raise ValueError("need N >= 1")
    report = validate_lie(g)
    if not report.ok:
        raise ValueError("structure constants fail antisymmetry or Jacobi")
    kappa = bch_constants(1, p).kappa
    d = g.dim
    for i in range(d):
        for j in range(i + 1, d):
            for k, c in enumerate(g.bracket(i, j)):
                if c and p_valuation(c, p) < kappa:
                    raise ValueError(
                        f"bracket ({i},{j}) lands outside p^{kappa} times the lattice"
                        f" at basis element {k}"
                    )
    nv = 2 * d
    a_vec = [GaussPolynomial.variable(i, nv) for i in range(d)]
    b_vec = [GaussPolynomial.variable(d + i, nv) for i in range(d)]
    series = bch_series(N)
    phi = [GaussPolynomial.zero(nv) for _ in range(d)]
    for word in series.words():
        coef = series.coefficient(word)
        vecs = [a_vec if letter == 0 else b_vec for letter in word]
        nested = vecs[-1]
        for step in range(len(word) - 2, -1, -1):
            nested = _poly_bracket(g, vecs[step], nested)
        scale = coef / len(word)
        for k in range(d):
            if not nested[k].is_zero():
                phi[k] = phi[k] + nested[k].scale(scale)

    valuation_ok = True
    for f in phi:
        for mono in f.monomials():
            n = sum(mono)
            margin = bch_constants(n, p).bound_exponent
            if p_valuation(f.coefficient(mono), p) < margin:
                valuation_ok = False

    # associativity lives in 3d variables a, b, c; each side substitutes the
    # 2d-variable law with one block replaced by the law itself
    lift_ab = [GaussPolynomial.variable(i, 3 * d) for i in range(2 * d)]
    phi_ab = [f.substitute(lift_ab, max_degree=N) for f in phi]
    shift_bc = [GaussPolynomial.variable(d + i, 3 * d) for i in range(2 * d)]
    phi_bc = [f.substitute(shift_bc, max_degree=N) for f in phi]
    a3 = [GaussPolynomial.variable(i, 3 * d) for i in range(d)]
    c3 = [GaussPolynomial.variable(2 * d + i, 3 * d) for i in range(d)]
    left = [f.substitute(phi_ab + c3, max_degree=N) for f in phi]
    right = [f.substitute(a3 + phi_bc, max_degree=N) for f in phi]
    associativity_ok = all(l == r for l, r in zip(left, right))
    return GroupLawReport(
        prime=p,
        kappa=kappa,
        truncation=N,
        polynomials=tuple(phi),
        valuation_ok=valuation_ok,
        associativity_ok=associativity_ok,
    )


# ---------------------------------------------------------------------------
# binomial expansions and the formal radius norm
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DrExpansionReport:
    """Truncated expansion of prod (1+b_i)**nu_i - 1 with its radius-r norm."""

    prime: int
    kappa: int
    truncation: int
    radius: PExponent
    terms: tuple  # ((alpha, coefficient), ...) in graded order
    norm: PExponent
    bound: PExponent

    @property
    def within_bound(self) -> bool:
        return self.norm <= self.bound

    def to_json(self) -> dict:
        rendered = []
        for alpha, coef in self.terms:
            rendered.append({"alpha": list(alpha), "coefficient": {"exact": str(coef)}})
        return {
            "p": self.prime,
            "kappa": self.kappa,
            "truncation": self.truncation,
            "radius": self.radius.to_json(),
            "terms": rendered,
            "norm": self.norm.to_json(),
            "bound": self.bound.to_json(),
            "within_bound": self.within_bound,
        }


def _exact_binomial(nu: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for i in range(k):
        out *= (nu - i)
    return out / math.factorial(k)


def dr_norm_and_expansion(
    nu_vector: Sequence[Union[Fraction, int]],
    r: PExponent,
    p: int,
    N: int,
) -> DrExpansionReport:
    """Expand prod_i (1+b_i)**nu_i - 1 to degree N and bound its r-norm.

    Exponents are exact rationals, so binomials are computed in Q and
    valuations are exact.  The norm is sup over monomials of
    |coefficient| * r**(kappa * |alpha|); the report certifies
    norm <= r**kappa, which holds whenever every nu_i is a p-adic integer
    and r < 1, and a violation raises.
    """
    if r.p != p:
        raise ValueError(f"radius is a power of {r.p}, not of {p}")
    if r.is_zero or r.exponent >= 0:
        raise ValueError("radius must satisfy 0 < r < 1")
    if N < 0:
        raise ValueError("truncation must be nonnegative")
    kappa = bch_constants(1, p).kappa
    nus = [Fraction(nu) for nu in nu_vector]

    terms = []
    norm = PExponent.zero(p)
    bound = r.power(kappa)
    for alpha in product(range(N + 1), repeat=len(nus)):
        weight = sum(alpha)
        if weight == 0 or weight > N:
            continue
        coef = Fraction(1)
        for nu, k in zip(nus, alpha):
            coef *= _exact_binomial(nu, k)
        if coef == 0:
            continue
        terms.append((alpha, coef))
        term_norm = PExponent.size_of(coef, p) * r.power(kappa * weight)
        if term_norm > norm:
            norm = term_norm
    terms.sort(key=lambda t: (sum(t[0]), t[0]))
    report = DrExpansionReport(
        prime=p,
        kappa=kappa,
        truncation=N,
        radius=r,
        terms=tuple(terms),
        norm=norm,
        bound=bound,
    )
    if not report.within_bound:
        raise CertificateError(
            f"formal norm {norm!r} exceeds the bound {bound!r}"
        )
    return report
