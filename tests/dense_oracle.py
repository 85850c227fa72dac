"""The dense ``RationalMatrix``, kept only as a differential oracle.

This is the row-of-``Fraction``-tuples implementation that ``wallforge.linalg``
used before it moved to sparse rows, copied without change.  Tests build the
same matrices in both and require equal results; nothing in ``src`` imports
it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

Scalar = Union[int, Fraction]
Vector = tuple  # tuple of Fraction


def _frac_rows(rows: Iterable[Iterable[Scalar]]) -> tuple:
    out = []
    width = None
    for row in rows:
        frow = tuple(Fraction(x) for x in row)
        if width is None:
            width = len(frow)
        elif len(frow) != width:
            raise ValueError("ragged rows")
        out.append(frow)
    return tuple(out)


class RationalMatrix:
    """An immutable matrix of ``Fraction`` entries."""

    __slots__ = ("_rows", "_ncols", "_rref_cache", "_hash")

    def __init__(self, rows: Iterable[Iterable[Scalar]], ncols: Optional[int] = None):
        frows = _frac_rows(rows)
        width = len(frows[0]) if frows else (0 if ncols is None else ncols)
        if frows and ncols is not None and ncols != width:
            raise ValueError(f"ncols={ncols} disagrees with row width {width}")
        object.__setattr__(self, "_rows", frows)
        object.__setattr__(self, "_ncols", width)
        object.__setattr__(self, "_rref_cache", None)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("RationalMatrix is immutable")

    # -- construction -----------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], ncols=n)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "RationalMatrix":
        zero = Fraction(0)
        return cls([[zero] * ncols for _ in range(nrows)], ncols=ncols)

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence[Scalar]], nrows: Optional[int] = None) -> "RationalMatrix":
        if not cols:
            if nrows is None:
                raise ValueError("column-free matrix needs an explicit row count")
            return cls.zeros(nrows, 0)
        height = len(cols[0])
        if any(len(c) != height for c in cols):
            raise ValueError("ragged columns")
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(height)], ncols=len(cols))

    @classmethod
    def column(cls, entries: Sequence[Scalar]) -> "RationalMatrix":
        return cls([[x] for x in entries], ncols=1)

    @classmethod
    def diagonal(cls, entries: Sequence[Scalar]) -> "RationalMatrix":
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)], ncols=n)

    # -- basic queries -----------------------------------------------------

    @property
    def rows(self) -> tuple:
        return self._rows

    @property
    def nrows(self) -> int:
        return len(self._rows)

    @property
    def ncols(self) -> int:
        return self._ncols

    @property
    def shape(self) -> tuple:
        return (len(self._rows), self._ncols)

    def row(self, i: int) -> Vector:
        return self._rows[i]

    def col(self, j: int) -> Vector:
        if not 0 <= j < self._ncols:
            raise IndexError(f"column {j} out of range")
        return tuple(r[j] for r in self._rows)

    def entry(self, i: int, j: int) -> Fraction:
        return self._rows[i][j]

    def columns(self) -> list:
        return [self.col(j) for j in range(self._ncols)]

    def is_zero(self) -> bool:
        return all(x == 0 for r in self._rows for x in r)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.shape == other.shape and self._rows == other._rows

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.shape, self._rows)))
        return self._hash

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in r) for r in self._rows)
        return f"RationalMatrix({self.nrows}x{self.ncols}: {body})"

    # -- arithmetic ---------------------------------------------------------

    def _same_shape(self, other: "RationalMatrix") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._same_shape(other)
        return RationalMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self._rows, other._rows)],
            ncols=self._ncols,
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._same_shape(other)
        return RationalMatrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self._rows, other._rows)],
            ncols=self._ncols,
        )

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix([[-x for x in r] for r in self._rows], ncols=self._ncols)

    def scale(self, c: Scalar) -> "RationalMatrix":
        c = Fraction(c)
        return RationalMatrix([[c * x for x in r] for r in self._rows], ncols=self._ncols)

    def __rmul__(self, c: Scalar) -> "RationalMatrix":
        return self.scale(c)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self._ncols != other.nrows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        zero = Fraction(0)
        orows = other._rows
        ncols = other.ncols
        out = []
        for arow in self._rows:
            acc = [zero] * ncols
            for k, a in enumerate(arow):
                if a:
                    brow = orows[k]
                    acc = [x + a * y if y else x for x, y in zip(acc, brow)]
            out.append(acc)
        return RationalMatrix(out, ncols=ncols)

    def apply(self, v: Sequence[Scalar]) -> Vector:
        """Matrix times column vector, returned as a tuple."""
        if len(v) != self._ncols:
            raise ValueError(f"vector length {len(v)} vs {self._ncols} columns")
        zero = Fraction(0)
        out = []
        for row in self._rows:
            s = zero
            for a, x in zip(row, v):
                if a and x:
                    s += a * Fraction(x)
            out.append(s)
        return tuple(out)

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            [[self._rows[i][j] for i in range(self.nrows)] for j in range(self._ncols)],
            ncols=self.nrows,
        )

    def __pow__(self, k: int) -> "RationalMatrix":
        if self.nrows != self._ncols:
            raise ValueError("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative powers unsupported")
        result = RationalMatrix.identity(self.nrows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            k >>= 1
            if k:
                base = base @ base
        return result

    # -- assembly ------------------------------------------------------------

    @staticmethod
    def hstack(mats: Sequence["RationalMatrix"]) -> "RationalMatrix":
        if not mats:
            raise ValueError("nothing to stack")
        nrows = mats[0].nrows
        if any(m.nrows != nrows for m in mats):
            raise ValueError("row counts differ")
        total = sum(m.ncols for m in mats)
        return RationalMatrix(
            [sum((list(m._rows[i]) for m in mats), []) for i in range(nrows)],
            ncols=total,
        )

    @staticmethod
    def vstack(mats: Sequence["RationalMatrix"]) -> "RationalMatrix":
        if not mats:
            raise ValueError("nothing to stack")
        ncols = mats[0].ncols
        if any(m.ncols != ncols for m in mats):
            raise ValueError("column counts differ")
        rows = []
        for m in mats:
            rows.extend(m._rows)
        return RationalMatrix(rows, ncols=ncols)

    @staticmethod
    def block_diag(mats: Sequence["RationalMatrix"]) -> "RationalMatrix":
        nrows = sum(m.nrows for m in mats)
        ncols = sum(m.ncols for m in mats)
        out = [[Fraction(0)] * ncols for _ in range(nrows)]
        r0 = c0 = 0
        for m in mats:
            for i, row in enumerate(m._rows):
                for j, x in enumerate(row):
                    if x:
                        out[r0 + i][c0 + j] = x
            r0 += m.nrows
            c0 += m.ncols
        return RationalMatrix(out, ncols=ncols)

    def kron(self, other: "RationalMatrix") -> "RationalMatrix":
        ncols = self._ncols * other.ncols
        out = []
        for arow in self._rows:
            for brow in other._rows:
                out.append([a * b for a in arow for b in brow])
        return RationalMatrix(out, ncols=ncols)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "RationalMatrix":
        return RationalMatrix(
            [[self._rows[i][j] for j in col_idx] for i in row_idx], ncols=len(col_idx)
        )

    # -- elimination ----------------------------------------------------------

    def _rref(self) -> tuple:
        """Reduced row echelon form with the fixed pivot rule; cached."""
        if self._rref_cache is not None:
            return self._rref_cache
        rows = [list(r) for r in self._rows]
        m, n = self.shape
        pivots = []
        r = 0
        for c in range(n):
            if r == m:
                break
            pr = next((i for i in range(r, m) if rows[i][c] != 0), None)
            if pr is None:
                continue
            if pr != r:
                rows[r], rows[pr] = rows[pr], rows[r]
            pv = rows[r][c]
            if pv != 1:
                inv = Fraction(1) / pv
                rows[r] = [x * inv for x in rows[r]]
            top = rows[r]
            for i in range(m):
                if i != r and rows[i][c] != 0:
                    f = rows[i][c]
                    rows[i] = [a - f * b if b else a for a, b in zip(rows[i], top)]
            pivots.append(c)
            r += 1
        cache = (tuple(tuple(row) for row in rows), tuple(pivots))
        object.__setattr__(self, "_rref_cache", cache)
        return cache

    def rank(self) -> int:
        return len(self._rref()[1])

    def det(self) -> Fraction:
        if self.nrows != self._ncols:
            raise ValueError("determinant of a non-square matrix")
        rows = [list(r) for r in self._rows]
        n = self.nrows
        sign = 1
        prod = Fraction(1)
        for c in range(n):
            pr = next((i for i in range(c, n) if rows[i][c] != 0), None)
            if pr is None:
                return Fraction(0)
            if pr != c:
                rows[c], rows[pr] = rows[pr], rows[c]
                sign = -sign
            pv = rows[c][c]
            prod *= pv
            inv = Fraction(1) / pv
            for i in range(c + 1, n):
                if rows[i][c] != 0:
                    f = rows[i][c] * inv
                    rows[i] = [a - f * b if b else a for a, b in zip(rows[i], rows[c])]
        return sign * prod

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        entries = []
        for i, row in enumerate(self._rows):
            for j, x in enumerate(row):
                if x:
                    entries.append([i, j, str(x)])
        return {"rows": self.nrows, "cols": self._ncols, "entries": entries}

    @classmethod
    def from_json(cls, data: dict) -> "RationalMatrix":
        nrows, ncols = int(data["rows"]), int(data["cols"])
        grid = [[Fraction(0)] * ncols for _ in range(nrows)]
        for i, j, val in data.get("entries", []):
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise ValueError(f"entry ({i},{j}) outside {nrows}x{ncols}")
            grid[i][j] = Fraction(val)
        return cls(grid, ncols=ncols)


def rank_kernel_image(M: RationalMatrix) -> tuple:
    """Rank, kernel basis, and image basis of a matrix, all exact.

    The kernel basis vectors are the standard free-variable vectors of the
    reduced echelon form, ordered by free column; the image basis is the
    list of original matrix columns at the pivot positions.  Both are
    deterministic functions of the matrix.
    """
    rref_rows, pivots = M._rref()
    n = M.ncols
    pivot_set = set(pivots)
    kernel = []
    for f in range(n):
        if f in pivot_set:
            continue
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for i, pc in enumerate(pivots):
            if rref_rows[i][f]:
                v[pc] = -rref_rows[i][f]
        kernel.append(tuple(v))
    image = [M.col(c) for c in pivots]
    return len(pivots), kernel, image


def solve_matrix(A: RationalMatrix, B: RationalMatrix) -> Optional[RationalMatrix]:
    """Solve ``A @ X = B`` exactly; None when inconsistent.

    Free variables are set to zero, so the particular solution is the
    deterministic one picked by the fixed pivot rule.
    """
    if A.nrows != B.nrows:
        raise ValueError(f"row mismatch {A.shape} vs {B.shape}")
    n = A.ncols
    if n == 0:
        return RationalMatrix.zeros(0, B.ncols) if B.is_zero() else None
    aug = RationalMatrix.hstack([A, B])
    rref_rows, pivots = aug._rref()
    if any(c >= n for c in pivots):
        return None
    X = [[Fraction(0)] * B.ncols for _ in range(n)]
    for i, pc in enumerate(pivots):
        for j in range(B.ncols):
            X[pc][j] = rref_rows[i][n + j]
    return RationalMatrix(X, ncols=B.ncols)


def solve_vector(A: RationalMatrix, b: Sequence[Scalar]) -> Optional[Vector]:
    X = solve_matrix(A, RationalMatrix.column(list(b)))
    if X is None:
        return None
    return X.col(0) if X.ncols else tuple()


class SpanTracker:
    """Incremental membership test for a growing rational span.

    Rows are kept in echelon form (sorted by pivot column).  ``add`` returns
    True when the vector enlarged the span; ``contains`` tests membership
    without modification.  Insertion order is the caller's, which keeps
    greedy basis selection deterministic.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._rows: list = []  # list of (pivot_col, row list), sorted by pivot

    def _reduce(self, v: Sequence[Scalar]) -> list:
        w = [Fraction(x) for x in v]
        if len(w) != self.dim:
            raise ValueError(f"vector length {len(w)}, expected {self.dim}")
        for pc, row in self._rows:
            if w[pc]:
                f = w[pc]
                w = [a - f * b if b else a for a, b in zip(w, row)]
        return w

    def contains(self, v: Sequence[Scalar]) -> bool:
        return all(x == 0 for x in self._reduce(v))

    def add(self, v: Sequence[Scalar]) -> bool:
        w = self._reduce(v)
        pc = next((i for i, x in enumerate(w) if x != 0), None)
        if pc is None:
            return False
        inv = Fraction(1) / w[pc]
        w = [x * inv for x in w]
        self._rows.append((pc, w))
        self._rows.sort(key=lambda t: t[0])
        return True

    @property
    def rank(self) -> int:
        return len(self._rows)


def extend_to_basis(
    base: Sequence[Sequence[Scalar]],
    candidates: Sequence[Sequence[Scalar]],
    dim: int,
) -> list:
    """Indices of candidates that greedily extend ``span(base)``.

    Scans candidates in order, keeping each one that strictly enlarges the
    span; the result is the deterministic completion used for homology
    representatives.
    """
    tracker = SpanTracker(dim)
    for v in base:
        tracker.add(v)
    chosen = []
    for idx, v in enumerate(candidates):
        if tracker.add(v):
            chosen.append(idx)
    return chosen


def vec(M: RationalMatrix) -> Vector:
    """Row-major flattening."""
    return tuple(x for r in M.rows for x in r)


def unvec(v: Sequence[Scalar], shape: tuple) -> RationalMatrix:
    m, n = shape
    if len(v) != m * n:
        raise ValueError(f"length {len(v)} does not fill shape {shape}")
    if m == 0 or n == 0:
        return RationalMatrix.zeros(m, n)
    return RationalMatrix([v[i * n : (i + 1) * n] for i in range(m)], ncols=n)


def solve_in_subspace(
    A: RationalMatrix,
    B: RationalMatrix,
    basis: Sequence[RationalMatrix],
) -> Optional[RationalMatrix]:
    """Find X in span(basis) with ``A @ X = B``, or None when the span has none.

    Returns the combination matrix, with coefficients solved for in the
    order of the basis and free ones set to zero.
    """
    mats = list(basis)
    if not mats:
        return RationalMatrix.zeros(*B.shape) if B.is_zero() else None
    shape0 = mats[0].shape
    if any(m.shape != shape0 for m in mats):
        raise ValueError("constraint matrices differ in shape")
    images = [A @ m for m in mats]
    if images[0].shape != B.shape:
        raise ValueError(f"target shape {B.shape} vs produced {images[0].shape}")
    if B.nrows * B.ncols == 0:
        # every combination satisfies a zero-size equation; pick zero
        return RationalMatrix.zeros(*shape0)
    S = RationalMatrix.from_columns([vec(im) for im in images])
    coeffs = solve_vector(S, vec(B))
    if coeffs is None:
        return None
    X = RationalMatrix.zeros(*shape0)
    for c, m in zip(coeffs, mats):
        if c:
            X = X + m.scale(c)
    return X
