"""Finite-dimensional Lie algebras by structure constants.

A Lie algebra is a dense table ``c[i][j]`` of bracket coefficients, a
module is a list of action matrices, and the main export is the standard
homological chain complex of a module (term j is M (x) Lambda^j g).  The
graded Koszul check certifies, one internal symmetric degree at a time,
the exactness that makes that complex a resolution; at graded level the
bracket drops out entirely, which is itself one of the tested facts.

Basis conventions, fixed for determinism: Lambda^j has the sorted
j-subsets of {0..d-1} in lexicographic order, and a term M (x) Lambda^j is
ordered subset-major, module-index-minor.  All signs derive from these
orderings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from wallforge.complexes import ChainComplex, homology_dims
from wallforge.linalg import RationalMatrix, Scalar, canonical


def wedge_basis(d: int, j: int) -> List[Tuple[int, ...]]:
    """Sorted j-subsets of range(d), lexicographically ordered."""
    return list(combinations(range(d), j))


def insert_into_wedge(k: int, subset: Tuple[int, ...]) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """Sign and sorted result of wedging x_k onto the front of a subset.

    Returns None when k already occurs (the wedge vanishes); otherwise the
    sign is (-1)**(number of entries below k), from moving x_k rightward
    into sorted position.
    """
    if k in subset:
        return None
    pos = sum(1 for s in subset if s < k)
    merged = tuple(sorted(subset + (k,)))
    return (-1) ** pos, merged


class LieAlgebra:
    """Structure constants with validation for antisymmetry and Jacobi."""

    __slots__ = ("dim", "_table", "labels")

    def __init__(
        self,
        dim: int,
        brackets: Dict[Tuple[int, int], Sequence],
        labels: Optional[Sequence[str]] = None,
    ):
        """``brackets[(i, j)]`` is the coefficient vector of [x_i, x_j].

        Pairs may be given for i < j only; the antisymmetric completion is
        filled in.  Explicitly supplied (j, i) entries are kept as given so
        that validation can catch inconsistent input.
        """
        if dim < 0:
            raise ValueError("negative dimension")
        table = [[tuple(Fraction(0) for _ in range(dim)) for _ in range(dim)] for _ in range(dim)]
        seen = set()
        for (i, j), coeffs in brackets.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"bracket index ({i},{j}) out of range")
            vec = tuple(Fraction(x) for x in coeffs)
            if len(vec) != dim:
                raise ValueError(f"bracket ({i},{j}) has {len(vec)} coefficients, need {dim}")
            table[i][j] = vec
            seen.add((i, j))
        for (i, j) in list(seen):
            if (j, i) not in seen:
                table[j][i] = tuple(-x for x in table[i][j])
        if labels is not None and len(labels) != dim:
            raise ValueError("label count mismatch")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_table", tuple(tuple(row) for row in table))
        object.__setattr__(self, "labels", tuple(labels) if labels else None)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("LieAlgebra is immutable")

    def bracket(self, i: int, j: int) -> Tuple[Fraction, ...]:
        return self._table[i][j]

    def bracket_vectors(self, u: Sequence, v: Sequence) -> Tuple[Fraction, ...]:
        """[u, v] for arbitrary coefficient vectors."""
        out = [Fraction(0)] * self.dim
        for i, a in enumerate(u):
            if not a:
                continue
            for j, b in enumerate(v):
                if not b:
                    continue
                for k, c in enumerate(self._table[i][j]):
                    if c:
                        out[k] += Fraction(a) * Fraction(b) * c
        return tuple(out)

    # -- stock examples ------------------------------------------------------

    @classmethod
    def abelian(cls, dim: int) -> "LieAlgebra":
        return cls(dim, {})

    @classmethod
    def sl2(cls) -> "LieAlgebra":
        # basis (e, h, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h
        return cls(
            3,
            {
                (1, 0): [2, 0, 0],
                (1, 2): [0, 0, -2],
                (0, 2): [0, 1, 0],
            },
            labels=("e", "h", "f"),
        )

    @classmethod
    def heisenberg(cls) -> "LieAlgebra":
        # basis (x, y, z): [x,y] = z central
        return cls(3, {(0, 1): [0, 0, 1]}, labels=("x", "y", "z"))

    def to_json(self) -> dict:
        out = []
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                entries = [[k, str(c)] for k, c in enumerate(self._table[i][j]) if c]
                if entries:
                    out.append([i, j, entries])
        return {"dim": self.dim, "brackets": out}

    @classmethod
    def from_json(cls, data: dict) -> "LieAlgebra":
        brackets = {}
        dim = int(data["dim"])
        for i, j, entries in data.get("brackets", []):
            vec = [Fraction(0)] * dim
            for k, val in entries:
                vec[int(k)] = Fraction(val)
            brackets[(int(i), int(j))] = vec
        return cls(dim, brackets)


class LieModule:
    """A finite-dimensional module given by one action matrix per basis element."""

    __slots__ = ("algebra", "dim", "actions")

    def __init__(self, algebra: LieAlgebra, actions: Sequence[RationalMatrix]):
        if len(actions) != algebra.dim:
            raise ValueError(f"need {algebra.dim} action matrices, got {len(actions)}")
        mdim = actions[0].nrows if actions else 0
        for A in actions:
            if A.shape != (mdim, mdim):
                raise ValueError("action matrices must be square of equal size")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "dim", mdim)
        object.__setattr__(self, "actions", tuple(actions))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("LieModule is immutable")

    @classmethod
    def trivial(cls, algebra: LieAlgebra, dim: int = 1) -> "LieModule":
        z = RationalMatrix.zeros(dim, dim)
        return cls(algebra, [z] * algebra.dim)

    @classmethod
    def adjoint(cls, algebra: LieAlgebra) -> "LieModule":
        d = algebra.dim
        actions = []
        for i in range(d):
            cols = [algebra.bracket(i, j) for j in range(d)]
            actions.append(
                RationalMatrix.from_columns(cols, nrows=d)
                if d
                else RationalMatrix.zeros(0, 0)
            )
        return cls(algebra, actions)


@dataclass(frozen=True)
class LieViolations:
    antisymmetry: tuple = ()
    jacobi: tuple = ()
    module: tuple = ()

    @property
    def ok(self) -> bool:
        return not (self.antisymmetry or self.jacobi or self.module)


def validate_lie(g: LieAlgebra, M: Optional[LieModule] = None) -> LieViolations:
    """Check antisymmetry, Jacobi, and (optionally) the module axiom.

    Violating index pairs/triples are collected rather than raised, so a
    perturbed algebra can be inspected wholesale.
    """
    d = g.dim
    anti = []
    for i in range(d):
        for j in range(i, d):
            lhs = g.bracket(i, j)
            rhs = tuple(-x for x in g.bracket(j, i))
            if lhs != rhs:
                anti.append((i, j))
    jac = []
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                total = [Fraction(0)] * d
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = g.bracket(b, c)
                    for l, coeff in enumerate(inner):
                        if coeff:
                            outer = g.bracket(a, l)
                            for m_idx, c2 in enumerate(outer):
                                if c2:
                                    total[m_idx] += coeff * c2
                if any(total):
                    jac.append((i, j, k))
    mod = []
    if M is not None:
        if M.algebra is not g and M.algebra.dim != d:
            raise ValueError("module belongs to a different algebra")
        for i in range(d):
            for j in range(i + 1, d):
                commutator = M.actions[i] @ M.actions[j] - M.actions[j] @ M.actions[i]
                rho_bracket = RationalMatrix.zeros(M.dim, M.dim)
                for k, c in enumerate(g.bracket(i, j)):
                    if c:
                        rho_bracket = rho_bracket + M.actions[k].scale(c)
                if commutator != rho_bracket:
                    mod.append((i, j))
    return LieViolations(antisymmetry=tuple(anti), jacobi=tuple(jac), module=tuple(mod))


class LieDataError(ValueError):
    """Structure constants or a module action that break the axioms."""

    def __init__(self, violations: LieViolations):
        super().__init__(f"invalid Lie data: {violations}")
        self.violations = violations


def _require_valid(g: LieAlgebra, M: Optional[LieModule] = None) -> None:
    v = validate_lie(g, M)
    if not v.ok:
        raise LieDataError(v)


def _accumulate(row: Dict[int, Scalar], col: int, x: Scalar) -> None:
    """``row[col] += x`` on a sparse row of canonical scalars, dropping the entry if it cancels."""
    y = canonical(row.get(col, 0) + x)
    if y:
        row[col] = y
    else:
        row.pop(col, None)


def ce_complex(g: LieAlgebra, M: LieModule) -> ChainComplex:
    """The chain complex with term j equal to M (x) Lambda^j g.

    The differential of m (x) x_{i_1} ^ ... ^ x_{i_j} has action terms
    (-1)**(t+1) x_{i_t} m (x) (drop t) and bracket terms
    (-1)**(s+t) m (x) [x_{i_s}, x_{i_t}] ^ (drop s, t), with the bracket
    wedged on from the front and re-sorted.  Basis order is subset-major,
    module-index-minor.
    """
    _require_valid(g, M)
    d = g.dim
    m = M.dim
    dims = {j: m * comb(d, j) for j in range(d + 1)}
    action_entries = [list(A.nonzero_entries()) for A in M.actions]
    bracket_entries = {
        (p, q): [(k, canonical(c)) for k, c in enumerate(g.bracket(p, q)) if c]
        for p in range(d)
        for q in range(p + 1, d)
    }
    diffs: Dict[int, RationalMatrix] = {}
    for j in range(1, d + 1):
        src = wedge_basis(d, j)
        tgt = wedge_basis(d, j - 1)
        tgt_index = {S: idx for idx, S in enumerate(tgt)}
        rows: List[Dict[int, Scalar]] = [{} for _ in range(m * len(tgt))]
        for s_idx, S in enumerate(src):
            col0 = s_idx * m
            for t in range(j):
                sign = (-1) ** t  # (-1)**(t+1) with 1-based t
                dropped = S[:t] + S[t + 1 :]
                base_row = tgt_index[dropped] * m
                for b, a, val in action_entries[S[t]]:
                    _accumulate(rows[base_row + b], col0 + a, sign * val)
            for s in range(j):
                for t in range(s + 1, j):
                    terms = bracket_entries[S[s], S[t]]
                    if not terms:
                        continue
                    pair_sign = (-1) ** (s + t + 1)  # (-1)**(s+t) with 1-based s, t
                    rest = S[:s] + S[s + 1 : t] + S[t + 1 :]
                    for k, c in terms:
                        ins = insert_into_wedge(k, rest)
                        if ins is None:
                            continue
                        w_sign, merged = ins
                        base_row = tgt_index[merged] * m
                        total = pair_sign * w_sign * c
                        for a in range(m):
                            _accumulate(rows[base_row + a], col0 + a, total)
        diffs[j] = RationalMatrix._from_sparse(rows, m * len(src))
    return ChainComplex(dims, diffs)


def lie_homology(g: LieAlgebra, M: LieModule) -> List[int]:
    """Homology dimensions of the module's chain complex, degrees 0..dim(g)."""
    C = ce_complex(g, M)
    dims = homology_dims(C)
    return [dims.get(j, 0) for j in range(g.dim + 1)]


def sym_basis(d: int, n: int) -> List[Tuple[int, ...]]:
    """Exponent vectors of degree-n monomials in d variables, lex order."""
    if d == 0:
        return [()] if n == 0 else []
    out = []

    def rec(prefix: List[int], remaining: int, slots: int) -> None:
        if slots == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for a in range(remaining, -1, -1):
            rec(prefix + [a], remaining - a, slots - 1)

    rec([], n, d)
    return sorted(out)


@dataclass(frozen=True)
class KoszulReport:
    dim: int
    max_internal_degree: int
    homology_by_degree: Dict[int, Dict[int, int]] = field(default_factory=dict)

    @property
    def all_exact(self) -> bool:
        return all(
            h == 0 for table in self.homology_by_degree.values() for h in table.values()
        )

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "max_internal_degree": self.max_internal_degree,
            "all_exact": self.all_exact,
            "homology": {
                str(n): {str(j): h for j, h in table.items()}
                for n, table in self.homology_by_degree.items()
            },
        }


def graded_koszul_check(g: LieAlgebra, N: int) -> KoszulReport:
    """Certify exactness of Sym(g) (x) Lambda(g) in internal degrees 1..N.

    In each internal degree n the complex has term j equal to
    Sym^{n-j} (x) Lambda^j with the contraction differential
    s (x) x_{i_1} ^ ... ^ x_{i_j} -> sum (-1)**(t+1) (s x_{i_t}) (x) (drop t).
    No bracket enters: this is the associated-graded shadow, and its
    exactness is independent of the Lie structure.
    """
    _require_valid(g)
    if N < 1:
        raise ValueError("need at least one internal degree")
    d = g.dim
    report: Dict[int, Dict[int, int]] = {}
    for n in range(1, N + 1):
        dims = {}
        diffs = {}
        jmax = min(d, n)
        bases = {}
        for j in range(jmax + 1):
            wb = wedge_basis(d, j)
            sb = sym_basis(d, n - j)
            bases[j] = (wb, sb)
            dims[j] = len(wb) * len(sb)
        for j in range(1, jmax + 1):
            wb, sb = bases[j]
            twb, tsb = bases[j - 1]
            t_widx = {S: i for i, S in enumerate(twb)}
            t_sidx = {e: i for i, e in enumerate(tsb)}
            grid = [[Fraction(0)] * dims[j] for _ in range(dims[j - 1])]
            for w_i, S in enumerate(wb):
                for s_i, expo in enumerate(sb):
                    col = w_i * len(sb) + s_i
                    for t in range(j):
                        sign = (-1) ** t
                        dropped = S[:t] + S[t + 1 :]
                        bumped = list(expo)
                        bumped[S[t]] += 1
                        row = t_widx[dropped] * len(tsb) + t_sidx[tuple(bumped)]
                        grid[row][col] += sign
            diffs[j] = RationalMatrix(grid, ncols=dims[j])
        complex_n = ChainComplex(dims, diffs)
        report[n] = homology_dims(complex_n)
    return KoszulReport(dim=d, max_internal_degree=N, homology_by_degree=report)
