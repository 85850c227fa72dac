"""Exact helpers the benchmark uses on its own, without importing wallforge.

Inputs are generated and outputs are checked with these routines, so a
fault in the program's linear algebra cannot make its own results look
right.  Matrices are lists of rows of ``Fraction``; the JSON shape matches
the program's sparse matrix format.
"""

from __future__ import annotations

from fractions import Fraction


def zeros(nrows, ncols):
    return [[Fraction(0)] * ncols for _ in range(nrows)]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def scale(m, c):
    return [[c * x for x in row] for row in m]


def matmul(a, b, ncols=None):
    ncols = len(b[0]) if b else (ncols or 0)
    out = []
    for row in a:
        acc = [Fraction(0)] * ncols
        for k, x in enumerate(row):
            if x:
                acc = [s + x * y for s, y in zip(acc, b[k])]
        out.append(acc)
    return out


def add(a, b):
    return [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]


def rank(m):
    """Rank by plain Gaussian elimination."""
    rows = [list(r) for r in m if any(r)]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] / top[c]
                rows[i] = [x - f * y for x, y in zip(rows[i], top)]
        r += 1
        if r == len(rows):
            break
    return r


def block(grid_rows, row_dims, col_dims):
    """Assemble a block matrix; ``None`` blocks are zero."""
    out = []
    for bi, brow in enumerate(grid_rows):
        for i in range(row_dims[bi]):
            line = []
            for bj, blk in enumerate(brow):
                line.extend(blk[i] if blk is not None else [Fraction(0)] * col_dims[bj])
            out.append(line)
    return out


def to_json(m, ncols):
    entries = [[i, j, str(x)] for i, row in enumerate(m) for j, x in enumerate(row) if x]
    return {"rows": len(m), "cols": ncols, "entries": entries}


def from_json(doc):
    m = zeros(doc["rows"], doc["cols"])
    for i, j, v in doc["entries"]:
        m[i][j] = Fraction(v)
    return m


def valuation(x, p):
    """p-adic valuation of a nonzero rational."""
    x = Fraction(x)
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def mahonian(k):
    """Coefficients of prod_{i=1..k} (1 + q + ... + q^(i-1))."""
    coeffs = [1]
    for i in range(1, k + 1):
        nxt = [0] * (len(coeffs) + i - 1)
        for a, c in enumerate(coeffs):
            for b in range(i):
                nxt[a + b] += c
        coeffs = nxt
    return coeffs


def det_one_minus_t(m):
    """Coefficients of det(1 - t*m) by the Faddeev-LeVerrier recursion."""
    n = len(m)
    coeffs = [Fraction(1)]  # characteristic polynomial, highest power first
    acc = zeros(n, n)
    for k in range(1, n + 1):
        acc = add(matmul(m, acc, n), scale(identity(n), coeffs[-1]))
        trace = sum(matmul(m, acc, n)[i][i] for i in range(n))
        coeffs.append(-trace / k)
    # det(1 - t m) = t^n char(1/t): the same coefficients, lowest power first
    return coeffs


def series_inverse(poly, terms):
    """The first ``terms`` coefficients of 1/poly, with poly[0] == 1."""
    out = []
    for n in range(terms):
        c = Fraction(int(n == 0))
        for k in range(1, min(n, len(poly) - 1) + 1):
            c -= poly[k] * out[n - k]
        out.append(c)
    return out
