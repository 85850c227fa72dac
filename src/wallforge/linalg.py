"""Exact linear algebra over the rationals.

All matrices are immutable and hold exact rational entries, so every rank,
kernel, and solution set is computed exactly.  Entries are canonical
scalars: an ``int`` when the value is integral and a ``Fraction``
otherwise, never a float.  Constructors convert what they are given, and
every arithmetic result is brought back to that form before it is stored,
so integral matrices stay in fast ``int`` arithmetic.  ``str`` of a
canonical scalar equals ``str`` of the same value as a ``Fraction``, so
serialized output does not depend on the representation.

Elimination (``_rref``, ``det`` and ``SpanTracker``) works on primitive
integer rows: integer entries whose gcd is 1, each row a nonzero multiple of
the one textbook elimination would hold.  One step, ``_cancel``, replaces a
row by ``a * row - b * top`` with the content divided out, so coefficients
stay small and no ``Fraction`` is built on the way; ``Fraction``s appear
only in emitted results, when a reduced row is divided by its pivot.

Storage is sparse: each row is a ``{column: scalar}`` dict holding only its
nonzero entries, and no zero is ever stored.  Products, stacking,
elimination and serialization touch nonzeros only; ``rows``, ``row``,
``col`` and ``columns`` still hand out dense tuples, and ``rows`` is built
once on first use and cached.

Pivoting is deterministic (first nonzero entry scanning columns left to
right, rows top to bottom) and particular solutions set free variables to
zero.  The reduced echelon form, its pivots, the kernel and image bases and
the particular solutions are unique for a given matrix, which makes results
byte-for-byte reproducible across runs.

Empty shapes are first-class: a 0 x n or n x 0 matrix keeps its column
count, because boundary maps into and out of the zero module show up
constantly in chain complexes.

The module also provides an incremental span tracker used for greedy basis
completion, and ``solve_in_subspace``, which solves ``A @ X = B`` for X in
the span of given matrices.  The package's lifts solve on generator images
instead; the reference lifts in the tests call it.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Iterable, Iterator, Optional, Sequence, Union

Scalar = Union[int, Fraction]
Vector = tuple  # tuple of canonical scalars


def canonical(x) -> Scalar:
    """``x`` as a canonical scalar: an ``int`` when integral, else a ``Fraction``.

    Anything ``Fraction`` accepts is accepted, with the same errors.
    """
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x._numerator if x._denominator == 1 else x


def _sparse_row(row: Iterable) -> dict:
    """Nonzero entries of a dense row, as canonical scalars."""
    out = {}
    for j, x in enumerate(row):
        if type(x) is int:
            if x:
                out[j] = x
        else:
            x = canonical(x)
            if x:
                out[j] = x
    return out


def _canonical_row(acc: dict) -> dict:
    """``acc`` without its zeros and with integral ``Fraction`` values as ``int``."""
    out = {}
    for j, x in acc.items():
        if type(x) is not int and x._denominator == 1:
            x = x._numerator
        if x:
            out[j] = x
    return out


def _primitive(row: dict) -> dict:
    """Scale the sparse ``row`` in place to integer entries whose gcd is 1; returns it."""
    den = 1
    for x in row.values():
        if type(x) is not int:
            den = lcm(den, x._denominator)
    if den != 1:
        for j, x in row.items():
            row[j] = x * den if type(x) is int else x._numerator * (den // x._denominator)
    _divide_content(row)
    return row


def _divide_content(row: dict) -> int:
    """Divide the integer ``row`` in place by the gcd of its entries; returns that gcd."""
    g = gcd(*row.values())
    if g > 1:
        for j, x in row.items():
            row[j] = x // g
    return g


def _cancel(row: dict, top: dict, c: int) -> tuple:
    """Clear column ``c`` of ``row`` with ``top`` in place; the one elimination step.

    Both are primitive integer rows, nonzero at ``c``.  ``row`` becomes
    ``(a * row - b * top) / g``, where ``a > 0`` and ``b`` are the coprime
    multipliers that cancel ``c`` and ``g`` is the content, so it is again
    primitive and equals ``a / g`` times ``row - (row[c] / top[c]) * top``.
    Returns ``a`` and ``g`` (0 when ``row`` became zero).
    """
    pv, f = top[c], row[c]
    g = gcd(pv, f)
    a, b = pv // g, f // g
    if a < 0:
        a, b = -a, -b
    if a != 1:
        for j, x in row.items():
            row[j] = a * x
    for j, y in top.items():
        x = row.get(j)
        if x is None:
            row[j] = -b * y
        else:
            x -= b * y
            if x:
                row[j] = x
            else:
                del row[j]
    return a, _divide_content(row)


def _over(row: dict, pv: int) -> dict:
    """The integer ``row`` divided by its pivot ``pv`` in place, as canonical scalars."""
    if pv != 1:
        for j, x in row.items():
            q, r = divmod(x, pv)
            row[j] = Fraction(x, pv) if r else q
    return row


def _leads(rows: Sequence[dict]) -> dict:
    """Row ids bucketed by leading column."""
    buckets: dict = {}
    for i, row in enumerate(rows):
        if row:
            buckets.setdefault(min(row), []).append(i)
    return buckets


class RationalMatrix:
    """An immutable matrix of canonical rational scalars, stored as sparse rows."""

    __slots__ = ("_rows", "_ncols", "_rref_cache", "_hash", "_dense")

    def __init__(self, rows: Iterable[Iterable[Scalar]], ncols: Optional[int] = None):
        srows = []
        width = None
        for row in rows:
            if not isinstance(row, (list, tuple)):
                row = tuple(row)
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValueError("ragged rows")
            srows.append(_sparse_row(row))
        if width is None:
            width = 0 if ncols is None else ncols
        elif ncols is not None and ncols != width:
            raise ValueError(f"ncols={ncols} disagrees with row width {width}")
        self._init(srows, width)

    def _init(self, rows: list, ncols: int) -> None:
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_ncols", ncols)
        object.__setattr__(self, "_rref_cache", None)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_dense", None)

    @classmethod
    def _from_sparse(cls, rows: list, ncols: int) -> "RationalMatrix":
        """Wrap sparse rows that hold nonzero canonical scalars only.

        The rows become the matrix's own storage; callers must not mutate
        them afterwards.
        """
        obj = object.__new__(cls)
        obj._init(rows, ncols)
        return obj

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("RationalMatrix is immutable")

    # -- construction -----------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls._from_sparse([{i: 1} for i in range(n)], n)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "RationalMatrix":
        return cls._from_sparse([{} for _ in range(nrows)], ncols)

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence[Scalar]], nrows: Optional[int] = None) -> "RationalMatrix":
        if not cols:
            if nrows is None:
                raise ValueError("column-free matrix needs an explicit row count")
            return cls.zeros(nrows, 0)
        height = len(cols[0])
        if any(len(c) != height for c in cols):
            raise ValueError("ragged columns")
        rows: list = [{} for _ in range(height)]
        for j, col in enumerate(cols):
            for i, x in _sparse_row(col).items():
                rows[i][j] = x
        return cls._from_sparse(rows, len(cols))

    @classmethod
    def from_blocks(cls, nrows: int, ncols: int, blocks: Iterable[tuple]) -> "RationalMatrix":
        """An ``nrows x ncols`` matrix with each ``(r0, c0, block)`` placed at (r0, c0).

        Blocks must not overlap; positions outside every block are zero.
        """
        rows: list = [{} for _ in range(nrows)]
        for r0, c0, block in blocks:
            if r0 < 0 or c0 < 0 or r0 + block.nrows > nrows or c0 + block.ncols > ncols:
                raise ValueError(f"block {block.shape} at ({r0},{c0}) leaves {nrows}x{ncols}")
            for a, row in enumerate(block._rows):
                if row:
                    target = rows[r0 + a]
                    for b, x in row.items():
                        target[c0 + b] = x
        return cls._from_sparse(rows, ncols)

    @classmethod
    def column(cls, entries: Sequence[Scalar]) -> "RationalMatrix":
        return cls.from_columns([entries])

    @classmethod
    def diagonal(cls, entries: Sequence[Scalar]) -> "RationalMatrix":
        nz = _sparse_row(entries)
        n = len(entries)
        return cls._from_sparse([{i: nz[i]} if i in nz else {} for i in range(n)], n)

    # -- basic queries -----------------------------------------------------

    @property
    def rows(self) -> tuple:
        """Dense rows as tuples of canonical scalars; built on first use, then cached."""
        if self._dense is None:
            n = self._ncols
            dense = tuple(
                tuple(row.get(j, 0) for j in range(n)) if row else (0,) * n
                for row in self._rows
            )
            object.__setattr__(self, "_dense", dense)
        return self._dense

    @property
    def nrows(self) -> int:
        return len(self._rows)

    @property
    def ncols(self) -> int:
        return self._ncols

    @property
    def shape(self) -> tuple:
        return (len(self._rows), self._ncols)

    def nonzero_entries(self) -> Iterator[tuple]:
        """``(i, j, value)`` for every nonzero entry, in row-major order; values are canonical."""
        for i, row in enumerate(self._rows):
            for j in sorted(row):
                yield i, j, row[j]

    def row(self, i: int) -> Vector:
        """Row i as a dense tuple of canonical scalars."""
        row = self._rows[i]
        return tuple(row.get(j, 0) for j in range(self._ncols))

    def col(self, j: int) -> Vector:
        """Column j as a dense tuple of canonical scalars."""
        if not 0 <= j < self._ncols:
            raise IndexError(f"column {j} out of range")
        return tuple(row.get(j, 0) for row in self._rows)

    def entry(self, i: int, j: int) -> Scalar:
        """The canonical scalar at (i, j)."""
        if not -self._ncols <= j < self._ncols:
            raise IndexError(f"column {j} out of range")
        return self._rows[i].get(j % self._ncols, 0)

    def columns(self) -> list:
        """All columns as dense tuples of canonical scalars."""
        cols = [[0] * len(self._rows) for _ in range(self._ncols)]
        for i, row in enumerate(self._rows):
            for j, x in row.items():
                cols[j][i] = x
        return [tuple(c) for c in cols]

    def is_zero(self) -> bool:
        return not any(self._rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.shape == other.shape and self._rows == other._rows

    def __hash__(self) -> int:
        if self._hash is None:
            key = tuple(frozenset(row.items()) for row in self._rows)
            object.__setattr__(self, "_hash", hash((self.shape, key)))
        return self._hash

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return f"RationalMatrix({self.nrows}x{self.ncols}: {body})"

    # -- arithmetic ---------------------------------------------------------

    def _same_shape(self, other: "RationalMatrix") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._same_shape(other)
        out = []
        for r1, r2 in zip(self._rows, other._rows):
            acc = dict(r1)
            for j, b in r2.items():
                x = acc.get(j)
                if x is None:
                    acc[j] = b
                else:
                    y = x + b
                    if type(y) is not int and y._denominator == 1:
                        y = y._numerator
                    if y:
                        acc[j] = y
                    else:
                        del acc[j]
            out.append(acc)
        return RationalMatrix._from_sparse(out, self._ncols)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._same_shape(other)
        out = []
        for r1, r2 in zip(self._rows, other._rows):
            acc = dict(r1)
            for j, b in r2.items():
                x = acc.get(j)
                if x is None:
                    acc[j] = -b
                else:
                    y = x - b
                    if type(y) is not int and y._denominator == 1:
                        y = y._numerator
                    if y:
                        acc[j] = y
                    else:
                        del acc[j]
            out.append(acc)
        return RationalMatrix._from_sparse(out, self._ncols)

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix._from_sparse(
            [{j: -x for j, x in row.items()} for row in self._rows], self._ncols
        )

    def scale(self, c: Scalar) -> "RationalMatrix":
        c = canonical(c)
        if not c:
            return RationalMatrix.zeros(*self.shape)
        return RationalMatrix._from_sparse(
            [_canonical_row({j: c * x for j, x in row.items()}) for row in self._rows],
            self._ncols,
        )

    def __rmul__(self, c: Scalar) -> "RationalMatrix":
        return self.scale(c)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self._ncols != other.nrows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        orows = other._rows
        out = []
        for arow in self._rows:
            acc: dict = {}
            for k, a in arow.items():
                brow = orows[k]
                if not brow:
                    continue
                one = a == 1
                for j, b in brow.items():
                    p = b if one else a * b
                    x = acc.get(j)
                    acc[j] = p if x is None else x + p
            out.append(_canonical_row(acc))
        return RationalMatrix._from_sparse(out, other._ncols)

    def apply(self, v: Sequence[Scalar]) -> Vector:
        """Matrix times column vector, returned as a tuple of canonical scalars."""
        if len(v) != self._ncols:
            raise ValueError(f"vector length {len(v)} vs {self._ncols} columns")
        x = _sparse_row(v)
        out = []
        for row in self._rows:
            # walk the sparser of the row and the vector, look up in the other
            small, big = (row, x) if len(row) <= len(x) else (x, row)
            s = None
            for j, a in small.items():
                c = big.get(j)
                if c is not None:
                    s = a * c if s is None else s + a * c
            if s is None:
                s = 0
            elif type(s) is not int and s._denominator == 1:
                s = s._numerator
            out.append(s)
        return tuple(out)

    def transpose(self) -> "RationalMatrix":
        cols: list = [{} for _ in range(self._ncols)]
        for i, row in enumerate(self._rows):
            for j, x in row.items():
                cols[j][i] = x
        return RationalMatrix._from_sparse(cols, self.nrows)

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
        blocks = []
        c0 = 0
        for m in mats:
            blocks.append((0, c0, m))
            c0 += m.ncols
        return RationalMatrix.from_blocks(nrows, c0, blocks)

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
        return RationalMatrix._from_sparse(rows, ncols)

    @staticmethod
    def block_diag(mats: Sequence["RationalMatrix"]) -> "RationalMatrix":
        blocks = []
        r0 = c0 = 0
        for m in mats:
            blocks.append((r0, c0, m))
            r0 += m.nrows
            c0 += m.ncols
        return RationalMatrix.from_blocks(r0, c0, blocks)

    def kron(self, other: "RationalMatrix") -> "RationalMatrix":
        nb = other.ncols
        out = []
        for arow in self._rows:
            for brow in other._rows:
                out.append(
                    _canonical_row(
                        {ja * nb + jb: a * b for ja, a in arow.items() for jb, b in brow.items()}
                    )
                )
        return RationalMatrix._from_sparse(out, self._ncols * nb)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "RationalMatrix":
        n = self._ncols
        where: dict = {}
        for t, j in enumerate(col_idx):
            if not -n <= j < n:
                raise IndexError(f"column {j} out of range")
            where.setdefault(j % n, []).append(t)
        out = []
        for i in row_idx:
            new = {}
            for j, x in self._rows[i].items():
                for t in where.get(j, ()):
                    new[t] = x
            out.append(new)
        return RationalMatrix._from_sparse(out, len(col_idx))

    # -- elimination ----------------------------------------------------------

    def _rref(self) -> tuple:
        """Reduced row echelon form with the fixed pivot rule; cached.

        Returns the nonzero rows of the reduced form, as sparse dicts in
        pivot order, and the pivot columns.  At column c the pivot is the
        first row at or below the current one with a nonzero at c, as in
        textbook Gauss-Jordan with row swaps.  Rows below the current one
        are zero left of c, so they are found by their leading column
        instead of by scanning every row.

        Working rows are primitive integer rows, each a nonzero multiple of
        the row textbook elimination would hold, so the zero pattern and
        the pivots are the same; only the emitted rows are divided by their
        pivots.
        """
        if self._rref_cache is not None:
            return self._rref_cache
        rows = [_primitive(dict(row)) for row in self._rows]
        order = list(range(len(rows)))  # row id at each position
        pos = list(order)  # position of each row id
        buckets = _leads(rows)
        heap = list(buckets)
        heapify(heap)
        pivot_rows: list = []
        pivots = []
        while heap:
            c = heappop(heap)
            cands = buckets.pop(c)
            p = min(cands, key=pos.__getitem__)
            r = len(pivots)
            q, pp = order[r], pos[p]
            order[r], order[pp] = p, q
            pos[p], pos[q] = r, pp
            top = rows[p]
            for i in pivot_rows:
                if c in rows[i]:
                    _cancel(rows[i], top, c)
            for i in cands:
                if i == p:
                    continue
                row = rows[i]
                _cancel(row, top, c)
                if row:
                    lead = min(row)
                    bucket = buckets.get(lead)
                    if bucket is None:
                        buckets[lead] = [i]
                        heappush(heap, lead)
                    else:
                        bucket.append(i)
            pivot_rows.append(p)
            pivots.append(c)
        emitted = tuple(_over(rows[i], rows[i][c]) for i, c in zip(pivot_rows, pivots))
        cache = (emitted, tuple(pivots))
        object.__setattr__(self, "_rref_cache", cache)
        return cache

    def rank(self) -> int:
        return len(self._rref()[1])

    def det(self) -> Scalar:
        """The determinant, as a canonical scalar.

        Eliminates in primitive integer rows like ``_rref``, and divides the
        product of the pivots by the scalings the rows picked up on the way.
        """
        if self.nrows != self._ncols:
            raise ValueError("determinant of a non-square matrix")
        rows = [_primitive(dict(row)) for row in self._rows]
        # det(self) * num / den == det(rows)
        num = den = 1
        for new, old in zip(rows, self._rows):
            if not new:
                return 0
            j = next(iter(new))
            x = old[j]
            if type(x) is int:
                num, den = num * new[j], den * x
            else:
                num, den = num * new[j] * x._denominator, den * x._numerator
        order = list(range(len(rows)))
        pos = list(order)
        buckets = _leads(rows)
        sign = 1
        prod = 1
        for c in range(self._ncols):
            cands = buckets.pop(c, None)
            if not cands:
                return 0
            p = min(cands, key=pos.__getitem__)
            q, pp = order[c], pos[p]
            if pp != c:
                order[c], order[pp] = p, q
                pos[p], pos[q] = c, pp
                sign = -sign
            top = rows[p]
            prod *= top[c]
            for i in cands:
                if i == p:
                    continue
                row = rows[i]
                a, g = _cancel(row, top, c)
                if not row:
                    return 0
                num, den = num * a, den * g
                buckets.setdefault(min(row), []).append(i)
        return canonical(Fraction(sign * prod * den, num))

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        entries = [[i, j, str(x)] for i, j, x in self.nonzero_entries()]
        return {"rows": self.nrows, "cols": self._ncols, "entries": entries}

    @classmethod
    def from_json(cls, data: dict) -> "RationalMatrix":
        nrows, ncols = data["rows"], data["cols"]
        if type(nrows) is not int or type(ncols) is not int or nrows < 0 or ncols < 0:
            raise ValueError(f"shape ({nrows!r},{ncols!r}) is not a pair of non-negative integers")
        rows: list = [{} for _ in range(nrows)]
        for i, j, val in data.get("entries", []):
            if type(i) is not int or type(j) is not int:
                raise ValueError(f"entry index ({i!r},{j!r}) is not a pair of integers")
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise ValueError(f"entry ({i},{j}) outside {nrows}x{ncols}")
            if (
                type(val) is str
                and val.isascii()
                and (val[1:] if val[:1] == "-" else val).isdigit()
            ):
                x = int(val)  # -?[0-9]+, the form of most stored entries
            else:
                x = canonical(val)
            if x:
                rows[i][j] = x
            else:
                rows[i].pop(j, None)
        return cls._from_sparse(rows, ncols)


def rank_kernel_image(M: RationalMatrix) -> tuple:
    """Rank, kernel basis, and image basis of a matrix, all exact.

    The kernel basis vectors are the standard free-variable vectors of the
    reduced echelon form, ordered by free column; the image basis is the
    list of original matrix columns at the pivot positions.  Both are
    deterministic functions of the matrix, and hold canonical scalars.
    """
    rref_rows, pivots = M._rref()
    n = M.ncols
    pivot_set = set(pivots)
    kernel = {}
    for f in range(n):
        if f not in pivot_set:
            v = [0] * n
            v[f] = 1
            kernel[f] = v
    for row, pc in zip(rref_rows, pivots):
        for f, x in row.items():
            if f != pc:
                kernel[f][pc] = -x
    image = [M.col(c) for c in pivots]
    return len(pivots), [tuple(v) for v in kernel.values()], image


def solve_matrix(A: RationalMatrix, B: RationalMatrix) -> Optional[RationalMatrix]:
    """Solve ``A @ X = B`` exactly; None when inconsistent.

    Free variables are set to zero, so the particular solution is the
    deterministic one picked by the fixed pivot rule.  The solution holds
    canonical scalars.
    """
    if A.nrows != B.nrows:
        raise ValueError(f"row mismatch {A.shape} vs {B.shape}")
    n = A.ncols
    if n == 0:
        return RationalMatrix.zeros(0, B.ncols) if B.is_zero() else None
    aug = RationalMatrix.hstack([A, B])
    rref_rows, pivots = aug._rref()
    if pivots and pivots[-1] >= n:
        return None
    X: list = [{} for _ in range(n)]
    for row, pc in zip(rref_rows, pivots):
        X[pc] = {j - n: x for j, x in row.items() if j >= n}
    return RationalMatrix._from_sparse(X, B.ncols)


def solve_vector(A: RationalMatrix, b: Sequence[Scalar]) -> Optional[Vector]:
    X = solve_matrix(A, RationalMatrix.column(list(b)))
    if X is None:
        return None
    return X.col(0) if X.ncols else tuple()


class SpanTracker:
    """Incremental membership test for a growing rational span.

    Rows are kept in echelon form as primitive integer rows (integer
    entries whose gcd is 1), keyed by their pivot, the first nonzero
    column.  ``add`` returns True when the vector enlarged the span;
    ``contains`` tests membership without modification.  Insertion order is
    the caller's, which keeps greedy basis selection deterministic.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._rows: dict = {}  # pivot column -> primitive integer row

    def _reduce(self, v: Sequence[Scalar]) -> dict:
        if len(v) != self.dim:
            raise ValueError(f"vector length {len(v)}, expected {self.dim}")
        w = _primitive(_sparse_row(v))
        piv = self._rows
        # reduce by the rows whose pivots w hits, lowest pivot first; a row
        # only adds entries right of its pivot, so a heap visits each once
        heap = [j for j in w if j in piv]
        heapify(heap)
        while heap:
            pc = heappop(heap)
            if pc not in w:
                continue
            top = piv[pc]
            for j in top:
                if j not in w and j in piv:
                    heappush(heap, j)
            _cancel(w, top, pc)
        return w

    def contains(self, v: Sequence[Scalar]) -> bool:
        return not self._reduce(v)

    def add(self, v: Sequence[Scalar]) -> bool:
        w = self._reduce(v)
        if not w:
            return False
        self._rows[min(w)] = w
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
    n = M.ncols
    out = [0] * (M.nrows * n)
    for i, row in enumerate(M._rows):
        for j, x in row.items():
            out[i * n + j] = x
    return tuple(out)


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

    Returns the combination matrix.  Coefficients of the basis are solved
    for in the order given, with free ones set to zero, so the answer is
    unique for a given basis.
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
    # the system sum_k c_k vec(images[k]) = vec(B), one row per entry of B,
    # with vec(B) as the last column
    width = B.ncols
    k_b = len(images)
    rows: list = [{} for _ in range(B.nrows * width)]
    for k, im in enumerate(images + [B]):
        for i, row in enumerate(im._rows):
            for j, x in row.items():
                rows[i * width + j][k] = x
    rref_rows, pivots = RationalMatrix._from_sparse(rows, k_b + 1)._rref()
    if pivots and pivots[-1] == k_b:
        return None
    X = RationalMatrix.zeros(*shape0)
    for row, pc in zip(rref_rows, pivots):
        c = row.get(k_b)
        if c is not None:
            X = X + mats[pc].scale(c)
    return X
