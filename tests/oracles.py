"""Independent oracles used to freeze expected values in the tests.

Nothing here imports from the package.  Every function recomputes its
answer from scratch with stdlib arithmetic, usually by a visibly different
algorithm than the implementation uses, so agreement between the two is
evidence rather than tautology.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

Word = Tuple[int, ...]


# -- linear algebra ----------------------------------------------------------


def rank_by_elimination(rows: Sequence[Sequence]) -> int:
    """Row rank by elimination, pivoting from the bottom row up."""
    work = [[Fraction(x) for x in r] for r in rows]
    ncols = len(work[0]) if work else 0
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(len(work) - 1, -1, -1):
            if work[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        prow = work.pop(pivot)
        inv = Fraction(1) / prow[col]
        prow = [x * inv for x in prow]
        work = [
            [a - r[col] * b for a, b in zip(r, prow)] if r[col] else r for r in work
        ]
        rank += 1
    return rank


# -- valuations -------------------------------------------------------------


def fraction_valuation(x, p: int) -> Optional[int]:
    """v_p of a nonzero rational; None for zero."""
    x = Fraction(x)
    if x == 0:
        return None
    v = 0
    num, den = abs(x.numerator), x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


# -- free BCH series over two letters -----------------------------------------
# words are tuples over {0, 1}; 0 is the first letter, 1 the second


def _nc_mul(a: Dict[Word, Fraction], b: Dict[Word, Fraction], N: int) -> Dict[Word, Fraction]:
    out: Dict[Word, Fraction] = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            w = wa + wb
            if len(w) <= N:
                out[w] = out.get(w, Fraction(0)) + ca * cb
    return {w: c for w, c in out.items() if c}


def _nc_exp(letter: int, N: int) -> Dict[Word, Fraction]:
    out: Dict[Word, Fraction] = {(): Fraction(1)}
    fact = 1
    for k in range(1, N + 1):
        fact *= k
        out[(letter,) * k] = Fraction(1, fact)
    return out


def bch_word_coefficients(N: int) -> Dict[Word, Fraction]:
    """Coefficients of log(exp X exp Y) on all words of length <= N.

    Straight series manipulation: multiply the two exponentials, subtract 1,
    and feed the result through the logarithm series.  No Lie theory enters,
    which is the point: the implementation under test derives the same
    numbers by a structurally different route.
    """
    prod = _nc_mul(_nc_exp(0, N), _nc_exp(1, N), N)
    u = {w: c for w, c in prod.items() if w}
    out: Dict[Word, Fraction] = {}
    power: Dict[Word, Fraction] = {(): Fraction(1)}
    for k in range(1, N + 1):
        power = _nc_mul(power, u, N)
        sign = Fraction((-1) ** (k + 1), k)
        for w, c in power.items():
            out[w] = out.get(w, Fraction(0)) + sign * c
    return {w: c for w, c in out.items() if c}


def mat_mul(a: List[List[Fraction]], b: List[List[Fraction]]) -> List[List[Fraction]]:
    return [
        [sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
        for row in a
    ]


def word_matrix(word: Word, x: List[List[Fraction]], y: List[List[Fraction]]) -> List[List[Fraction]]:
    n = len(x)
    out = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for letter in word:
        out = mat_mul(out, x if letter == 0 else y)
    return out


def bch_matrix_component(
    coeffs: Dict[Word, Fraction],
    x: List[List[Fraction]],
    y: List[List[Fraction]],
    n: int,
) -> List[List[Fraction]]:
    """Substitute matrices into the degree-n part of the word series."""
    size = len(x)
    total = [[Fraction(0)] * size for _ in range(size)]
    for w, c in coeffs.items():
        if len(w) != n:
            continue
        m = word_matrix(w, x, y)
        total = [[a + c * b for a, b in zip(ra, rb)] for ra, rb in zip(total, m)]
    return total


# -- trees --------------------------------------------------------------------


def ball_vertex_count(p: int, radius: int) -> int:
    """Closed-form count for the radius-R ball in the (p+1)-regular tree."""
    if radius == 0:
        return 1
    return 1 + (p + 1) * (p**radius - 1) // (p - 1)


def lattice_distance(p: int, level: int, shift) -> int:
    """Tree distance to the base vertex via elementary divisor exponents.

    The vertex (level, shift) corresponds to the matrix
    [[p**level, shift], [0, 1]]; the distance is v(det) minus twice the
    least entry valuation.
    """
    entries = [Fraction(p) ** level, Fraction(shift), Fraction(0), Fraction(1)]
    vals = [fraction_valuation(x, p) for x in entries if x != 0]
    det_val = fraction_valuation(Fraction(p) ** level, p)
    assert det_val is not None
    return det_val - 2 * min(vals)


# -- convergence radius ladder -------------------------------------------------


def radius_ladder(
    p: int, e: int, q: int, x, bound: int = 64
) -> Tuple[int, int, bool, Optional[int]]:
    """(h, ell, in_sR, m) recomputed with nothing but Fraction comparisons.

    ``x`` is the exponent of the radius (r = p**x, -1 < x < 0).
    """
    x = Fraction(x)
    kappa = 2 if p == 2 else 1
    crit = Fraction(-1, p - 1)
    h = next(k for k in range(bound) if kappa * x < Fraction(-1, (p - 1) * p**k))
    ell = next(
        m
        for m in range(bound)
        if Fraction(-m, e) + h + kappa * p**h * x < crit
    )
    witness = None
    for m in range(bound):
        val = kappa * p**m * x
        if crit - Fraction(1, e * q**m) < val < crit:
            witness = m
            break
    return h, ell, witness is not None, witness


# -- Koszul-Molien series ------------------------------------------------------


def _det(m: Sequence[Sequence]) -> Fraction:
    """Determinant by cofactor expansion along the first row."""
    if not m:
        return Fraction(1)
    total = Fraction(0)
    for j, x in enumerate(m[0]):
        if x:
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * Fraction(x) * _det(minor)
    return total


def matrix_group(generators: Sequence[Sequence[Sequence]]) -> List[List[List[Fraction]]]:
    """Every element of the finite matrix group the given matrices generate."""
    n = len(generators[0])
    gens = [[[Fraction(x) for x in row] for row in g] for g in generators]
    identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    seen = {tuple(map(tuple, identity))}
    out = [identity]
    frontier = [identity]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                hg = mat_mul(h, g)
                key = tuple(map(tuple, hg))
                if key not in seen:
                    seen.add(key)
                    out.append(hg)
                    nxt.append(hg)
        frontier = nxt
    return out


def molien_coefficients(
    group: Sequence[Sequence[Sequence]], character, n_max: int
) -> List[int]:
    """Coefficients of t**0..t**n_max in (1/|G|) sum_g chi(g) / det(1 - t g).

    ``group`` lists every element of a finite matrix group G acting on V and
    ``character(g)`` is the trace of g on a module W.  By Koszul duality and
    Molien's theorem these are dim Ext**n over the crossed product of the
    exterior algebra on V by G, from its augmentation module to W, when
    the exterior generators act on W by zero.  Each 1/det(1 - t g) is
    expanded by dividing power series, with det(1 - t g) from the
    principal minors of g.
    """
    total = [Fraction(0)] * (n_max + 1)
    for g in group:
        n = len(g)
        # det(1 - t g) = sum_k (-1)**k e_k t**k, e_k the sum of principal k-minors
        denom = [Fraction(0)] * (n + 1)
        for mask in range(1 << n):
            idx = [i for i in range(n) if mask >> i & 1]
            minor = [[g[a][b] for b in idx] for a in idx]
            denom[len(idx)] += (-1) ** len(idx) * _det(minor)
        series = [Fraction(0)] * (n_max + 1)
        for k in range(n_max + 1):
            acc = Fraction(int(k == 0))
            for i in range(1, min(k, n) + 1):
                acc -= denom[i] * series[k - i]
            series[k] = acc  # denom[0] is 1
        chi = Fraction(character(g))
        total = [t + chi * s for t, s in zip(total, series)]
    coeffs = [t / len(group) for t in total]
    assert all(c.denominator == 1 for c in coeffs), coeffs
    return [int(c) for c in coeffs]


def trace(m: Sequence[Sequence]) -> Fraction:
    return sum((Fraction(m[i][i]) for i in range(len(m))), Fraction(0))


def determinant(m: Sequence[Sequence]) -> Fraction:
    return _det([[Fraction(x) for x in row] for row in m])
