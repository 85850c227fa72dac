"""Finite groups, finite-dimensional algebras, and their homological algebra.

The central objects are multiplication tables: ``FiniteGroupTable`` for
groups, ``AlgebraPresentation`` for associative unital algebras over Q, and
``ModulePresentation`` for finite-dimensional left modules.  On top of them
sit free resolutions with greedy generator selection, Ext computed from the
concrete Hom identification Hom_A(A**r, N) = N**r, crossed products with
normalized 2-cocycles, the comparison of Ext over a crossed product with
invariants of Ext over the base.

Free A-modules A**r are realized as vector spaces generator-major: basis
index u * dim(A) + k stands for the algebra basis element b_k sitting in
the u-th free summand.  A-linear maps between free modules then appear as
block matrices whose (t, u) block is the right-multiplication matrix of the
algebra entry a_{tu}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from wallforge.complexes import (
    CertificateError,
    ChainComplex,
    cohomology_dims,
    homology,
)
from wallforge.linalg import (
    RationalMatrix,
    SpanTracker,
    rank_kernel_image,
    solve_in_subspace,
    solve_vector,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# finite groups
# ---------------------------------------------------------------------------


class FiniteGroupTable:
    """A finite group as a multiplication table, validated on construction."""

    __slots__ = ("order", "table", "identity", "inverses", "name", "element_names")

    def __init__(
        self,
        table: Sequence[Sequence[int]],
        name: str = "",
        element_names: Optional[Sequence[str]] = None,
    ):
        n = len(table)
        tbl = tuple(tuple(int(x) for x in row) for row in table)
        for row in tbl:
            if len(row) != n or any(not 0 <= x < n for x in row):
                raise ValueError("multiplication table is not closed")
        identity = None
        for e in range(n):
            if all(tbl[e][g] == g and tbl[g][e] == g for g in range(n)):
                identity = e
                break
        if identity is None:
            raise ValueError("no identity element")
        inverses = [None] * n
        for g in range(n):
            for h in range(n):
                if tbl[g][h] == identity and tbl[h][g] == identity:
                    inverses[g] = h
                    break
            if inverses[g] is None:
                raise ValueError(f"element {g} has no inverse")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if tbl[tbl[a][b]][c] != tbl[a][tbl[b][c]]:
                        raise ValueError(f"associativity fails at ({a},{b},{c})")
        if element_names is not None and len(element_names) != n:
            raise ValueError("element name count mismatch")
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "table", tbl)
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "inverses", tuple(inverses))
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "element_names", tuple(element_names) if element_names else None)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("FiniteGroupTable is immutable")

    def mul(self, g: int, h: int) -> int:
        return self.table[g][h]

    def inv(self, g: int) -> int:
        return self.inverses[g]

    def __repr__(self) -> str:
        return f"FiniteGroupTable({self.name or 'order ' + str(self.order)})"

    # -- constructors ------------------------------------------------------

    @classmethod
    def trivial(cls) -> "FiniteGroupTable":
        return cls([[0]], name="1")

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroupTable":
        if n < 1:
            raise ValueError("order must be positive")
        return cls(
            [[(i + j) % n for j in range(n)] for i in range(n)],
            name=f"Z{n}",
        )

    @classmethod
    def dihedral(cls, n: int) -> "FiniteGroupTable":
        """Symmetries of the n-gon, order 2n; index eps*n + k is s**eps r**k."""
        if n < 1:
            raise ValueError("need n >= 1")

        def mul(a: int, b: int) -> int:
            e1, k1 = divmod(a, n)
            e2, k2 = divmod(b, n)
            if e2 == 0:
                return e1 * n + (k1 + k2) % n
            return (1 - e1) * n + (k2 - k1) % n

        return cls(
            [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)],
            name=f"D{n}" if n != 3 else "S3",
        )

    @classmethod
    def symmetric3(cls) -> "FiniteGroupTable":
        return cls.dihedral(3)

    @classmethod
    def quaternion8(cls) -> "FiniteGroupTable":
        """Units {1, -1, i, -i, j, -j, k, -k} in that index order."""
        # axis products: table of (result_axis, sign) for axes 0=1,1=i,2=j,3=k
        axis_mul = {
            (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
            (1, 0): (1, 1), (1, 1): (0, -1), (1, 2): (3, 1), (1, 3): (2, -1),
            (2, 0): (2, 1), (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, 1),
            (3, 0): (3, 1), (3, 1): (2, 1), (3, 2): (1, -1), (3, 3): (0, -1),
        }

        def decode(idx: int) -> Tuple[int, int]:
            return idx // 2, 1 if idx % 2 == 0 else -1

        def encode(axis: int, sign: int) -> int:
            return 2 * axis + (0 if sign == 1 else 1)

        def mul(a: int, b: int) -> int:
            ax1, s1 = decode(a)
            ax2, s2 = decode(b)
            ax, s = axis_mul[(ax1, ax2)]
            return encode(ax, s * s1 * s2)

        names = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
        return cls(
            [[mul(a, b) for b in range(8)] for a in range(8)],
            name="Q8",
            element_names=names,
        )

    @classmethod
    def direct_product(cls, G: "FiniteGroupTable", H: "FiniteGroupTable") -> "FiniteGroupTable":
        n, m = G.order, H.order

        def mul(a: int, b: int) -> int:
            a1, a2 = divmod(a, m)
            b1, b2 = divmod(b, m)
            return G.mul(a1, b1) * m + H.mul(a2, b2)

        return cls(
            [[mul(a, b) for b in range(n * m)] for a in range(n * m)],
            name=f"{G.name}x{H.name}" if G.name and H.name else "",
        )

    # -- representations -----------------------------------------------------

    def left_regular_matrices(self) -> List[RationalMatrix]:
        """Permutation matrix of h -> g*h, one per element g."""
        out = []
        for g in range(self.order):
            cols = []
            for h in range(self.order):
                col = [0] * self.order
                col[self.mul(g, h)] = 1
                cols.append(col)
            out.append(RationalMatrix.from_columns(cols, nrows=self.order))
        return out

    def representation_from_generators(
        self, generator_matrices: Dict[int, RationalMatrix]
    ) -> List[RationalMatrix]:
        """Extend matrices on a generating set to all elements, with checks.

        Works outward from the identity via g*s products; fails if the given
        elements do not generate or if the extension is not a homomorphism on
        the full table.
        """
        dim = next(iter(generator_matrices.values())).nrows
        mats: Dict[int, RationalMatrix] = {self.identity: RationalMatrix.identity(dim)}
        frontier = [self.identity]
        while frontier:
            nxt = []
            for g in frontier:
                for s, ms in generator_matrices.items():
                    gs = self.mul(g, s)
                    if gs not in mats:
                        mats[gs] = mats[g] @ ms
                        nxt.append(gs)
            frontier = nxt
        if len(mats) != self.order:
            raise ValueError("given elements do not generate the group")
        for a in range(self.order):
            for b in range(self.order):
                if mats[a] @ mats[b] != mats[self.mul(a, b)]:
                    raise ValueError(f"not a homomorphism at pair ({a},{b})")
        return [mats[g] for g in range(self.order)]


def standard_groups(max_order: int = 8) -> List[FiniteGroupTable]:
    """One representative per isomorphism class of order <= max_order (<= 8)."""
    if max_order > 8:
        raise ValueError("catalog stops at order 8")
    G = FiniteGroupTable
    catalog = [
        G.trivial(),
        G.cyclic(2),
        G.cyclic(3),
        G.cyclic(4),
        G.direct_product(G.cyclic(2), G.cyclic(2)),
        G.cyclic(5),
        G.cyclic(6),
        G.dihedral(3),
        G.cyclic(7),
        G.cyclic(8),
        G.direct_product(G.cyclic(4), G.cyclic(2)),
        G.direct_product(G.direct_product(G.cyclic(2), G.cyclic(2)), G.cyclic(2)),
        G.dihedral(4),
        G.quaternion8(),
    ]
    return [g for g in catalog if g.order <= max_order]


def averaging_idempotent(Q: FiniteGroupTable) -> Tuple[Fraction, ...]:
    """The element (1/|Q|) sum of all group elements, as a coefficient vector."""
    c = Fraction(1, Q.order)
    return tuple(c for _ in range(Q.order))


def invariants(action_matrices: Sequence[RationalMatrix]) -> List[tuple]:
    """Basis of the joint fixed space {m : A m = m for every given A}."""
    if not action_matrices:
        raise ValueError("need at least one operator")
    dim = action_matrices[0].nrows
    blocks = []
    for A in action_matrices:
        if A.shape != (dim, dim):
            raise ValueError("operators must be square of equal size")
        blocks.append(A - RationalMatrix.identity(dim))
    stacked = RationalMatrix.vstack(blocks)
    _, kernel, _ = rank_kernel_image(stacked)
    return kernel


# ---------------------------------------------------------------------------
# algebras and modules
# ---------------------------------------------------------------------------


class AlgebraPresentation:
    """An associative unital algebra by structure constants.

    ``products[i][j]`` is the coefficient vector of b_i * b_j; ``unit`` is a
    coefficient vector.  Associativity on basis triples and both unit laws
    are checked on construction.
    """

    __slots__ = ("dim", "products", "unit", "labels", "_terms")

    def __init__(
        self,
        products: Sequence[Sequence[Sequence]],
        unit: Sequence,
        labels: Optional[Sequence[str]] = None,
        _skip_validation: bool = False,
    ):
        dim = len(products)
        prods = tuple(
            tuple(tuple(Fraction(x) for x in entry) for entry in row) for row in products
        )
        for row in prods:
            if len(row) != dim or any(len(e) != dim for e in row):
                raise ValueError("structure constant table has wrong shape")
        u = tuple(Fraction(x) for x in unit)
        if len(u) != dim:
            raise ValueError("unit vector has wrong length")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "products", prods)
        object.__setattr__(self, "unit", u)
        object.__setattr__(self, "labels", tuple(labels) if labels else None)
        # the nonzero structure constants of each b_i * b_j, as (k, c) pairs
        terms = tuple(
            tuple(tuple((k, c) for k, c in enumerate(entry) if c) for entry in row)
            for row in prods
        )
        object.__setattr__(self, "_terms", terms)
        if not _skip_validation:
            self._validate()

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("AlgebraPresentation is immutable")

    def _validate(self) -> None:
        for i in range(self.dim):
            bi = tuple(1 if k == i else 0 for k in range(self.dim))
            if self.multiply(self.unit, bi) != tuple(Fraction(x) for x in bi):
                raise ValueError(f"left unit law fails on basis {i}")
            if self.multiply(bi, self.unit) != tuple(Fraction(x) for x in bi):
                raise ValueError(f"right unit law fails on basis {i}")
        for i in range(self.dim):
            for j in range(self.dim):
                ij = self.products[i][j]
                for k in range(self.dim):
                    bk = tuple(1 if t == k else 0 for t in range(self.dim))
                    left = self.multiply(ij, bk)
                    jk = self.products[j][k]
                    bi = tuple(1 if t == i else 0 for t in range(self.dim))
                    right = self.multiply(bi, jk)
                    if left != right:
                        raise ValueError(f"associativity fails at triple ({i},{j},{k})")

    def multiply(self, u: Sequence, v: Sequence) -> tuple:
        out = [_ZERO] * self.dim
        vs = [(j, b if type(b) is Fraction else Fraction(b)) for j, b in enumerate(v) if b]
        for i, a in enumerate(u):
            if not a:
                continue
            if type(a) is not Fraction:
                a = Fraction(a)
            terms = self._terms[i]
            for j, b in vs:
                ab = a * b
                for k, c in terms[j]:
                    out[k] += ab * c
        return tuple(out)

    def basis_vector(self, i: int) -> tuple:
        return tuple(_ONE if k == i else _ZERO for k in range(self.dim))

    def left_mult_matrix(self, u: Sequence) -> RationalMatrix:
        cols = [self.multiply(u, self.basis_vector(j)) for j in range(self.dim)]
        return RationalMatrix.from_columns(cols, nrows=self.dim)

    def right_mult_matrix(self, u: Sequence) -> RationalMatrix:
        cols = [self.multiply(self.basis_vector(j), u) for j in range(self.dim)]
        return RationalMatrix.from_columns(cols, nrows=self.dim)

    def inverse(self, u: Sequence) -> Optional[tuple]:
        """Two-sided inverse of u, or None."""
        x = solve_vector(self.left_mult_matrix(u), self.unit)
        if x is None:
            return None
        if self.multiply(x, u) != tuple(Fraction(c) for c in self.unit):
            return None
        return tuple(x)

    # -- constructors ------------------------------------------------------

    @classmethod
    def group_algebra(cls, Q: FiniteGroupTable) -> "AlgebraPresentation":
        n = Q.order
        products = [
            [
                [1 if k == Q.mul(i, j) else 0 for k in range(n)]
                for j in range(n)
            ]
            for i in range(n)
        ]
        unit = [1 if k == Q.identity else 0 for k in range(n)]
        return cls(products, unit, labels=Q.element_names)

    @classmethod
    def exterior_algebra(cls, rank: int) -> "AlgebraPresentation":
        """Generators x_0..x_{rank-1} with x_a x_b = -x_b x_a and squares zero.

        Basis: subsets in graded-lexicographic order (by size, then lex).
        """
        subsets = sorted(
            [s for r in range(rank + 1) for s in combinations(range(rank), r)],
            key=lambda s: (len(s), s),
        )
        index = {s: i for i, s in enumerate(subsets)}
        dim = len(subsets)

        def wedge(S: tuple, T: tuple) -> Optional[Tuple[int, tuple]]:
            if set(S) & set(T):
                return None
            sign = 1
            for s in S:
                sign *= (-1) ** sum(1 for t in T if t < s)
            return sign, tuple(sorted(S + T))

        products = []
        for S in subsets:
            row = []
            for T in subsets:
                entry = [0] * dim
                w = wedge(S, T)
                if w is not None:
                    sign, U = w
                    entry[index[U]] = sign
                row.append(entry)
            products.append(row)
        unit = [1 if i == index[()] else 0 for i in range(dim)]
        labels = ["^".join(f"x{a}" for a in s) if s else "1" for s in subsets]
        return cls(products, unit, labels=labels)

    def augmentation_values(self) -> Optional[tuple]:
        """The canonical algebra map to Q when this algebra visibly has one.

        Group algebras send every basis element to 1; graded algebras with a
        degree-zero unit basis element send nilpotent basis elements to 0.
        Returns None when no such canonical choice applies; callers may
        always supply an explicit functional instead.
        """
        # all basis elements invertible and products basis-to-basis: group-like
        ones = tuple(Fraction(1) for _ in range(self.dim))
        if self._is_hom(ones):
            return ones
        # unit concentrated in one basis slot: try the indicator functional
        unit_slots = [k for k, c in enumerate(self.unit) if c]
        if len(unit_slots) == 1:
            k0 = unit_slots[0]
            cand = tuple(
                Fraction(1) / self.unit[k0] if k == k0 else Fraction(0)
                for k in range(self.dim)
            )
            if self._is_hom(cand):
                return cand
        return None

    def _is_hom(self, phi: Sequence) -> bool:
        phi = tuple(Fraction(x) for x in phi)
        if sum(p * c for p, c in zip(phi, self.unit)) != 1:
            return False
        for i in range(self.dim):
            for j in range(self.dim):
                lhs = sum(p * c for p, c in zip(phi, self.products[i][j]))
                if lhs != phi[i] * phi[j]:
                    return False
        return True

    def to_json(self) -> dict:
        entries = []
        for i in range(self.dim):
            for j in range(self.dim):
                row = [[k, str(c)] for k, c in enumerate(self.products[i][j]) if c]
                if row:
                    entries.append([i, j, row])
        return {
            "dim": self.dim,
            "products": entries,
            "unit": [str(c) for c in self.unit],
        }

    @classmethod
    def from_json(cls, data: dict) -> "AlgebraPresentation":
        dim = int(data["dim"])
        products = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
        for i, j, row in data.get("products", []):
            for k, val in row:
                products[int(i)][int(j)][int(k)] = Fraction(val)
        unit = [Fraction(x) for x in data["unit"]]
        return cls(products, unit)


class ModulePresentation:
    """A finite-dimensional left module by action matrices per basis element."""

    __slots__ = ("algebra", "dim", "actions")

    def __init__(
        self,
        algebra: AlgebraPresentation,
        actions: Sequence[RationalMatrix],
        _skip_validation: bool = False,
    ):
        if len(actions) != algebra.dim:
            raise ValueError(f"need {algebra.dim} action matrices")
        mdim = actions[0].nrows if actions else 0
        for A in actions:
            if A.shape != (mdim, mdim):
                raise ValueError("action matrices must be square of equal size")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "dim", mdim)
        object.__setattr__(self, "actions", tuple(actions))
        if not _skip_validation:
            self._validate()

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("ModulePresentation is immutable")

    def _validate(self) -> None:
        ident = RationalMatrix.identity(self.dim)
        if self.action_of(self.algebra.unit) != ident:
            raise ValueError("unit does not act as identity")
        for i in range(self.algebra.dim):
            for j in range(self.algebra.dim):
                lhs = self.actions[i] @ self.actions[j]
                rhs = self.action_of(self.algebra.products[i][j])
                if lhs != rhs:
                    raise ValueError(f"module axiom fails on basis pair ({i},{j})")

    def action_of(self, u: Sequence) -> RationalMatrix:
        out = RationalMatrix.zeros(self.dim, self.dim)
        for i, c in enumerate(u):
            if c:
                out = out + self.actions[i].scale(c)
        return out

    @classmethod
    def regular(cls, A: AlgebraPresentation) -> "ModulePresentation":
        return cls(A, [A.left_mult_matrix(A.basis_vector(i)) for i in range(A.dim)])

    @classmethod
    def one_dimensional(cls, A: AlgebraPresentation, values: Sequence) -> "ModulePresentation":
        return cls(A, [RationalMatrix([[Fraction(v)]]) for v in values])

    @classmethod
    def zero(cls, A: AlgebraPresentation) -> "ModulePresentation":
        return cls(A, [RationalMatrix.zeros(0, 0) for _ in range(A.dim)])

    def to_json(self) -> dict:
        return {"dim": self.dim, "actions": [A.to_json() for A in self.actions]}


def module_direct_sum(modules: Sequence[ModulePresentation]) -> ModulePresentation:
    """Block-diagonal direct sum of modules over one algebra."""
    if not modules:
        raise ValueError("need at least one summand")
    A = modules[0].algebra
    for m in modules[1:]:
        if m.algebra is not A and (
            m.algebra.dim != A.dim or m.algebra.products != A.products
        ):
            raise ValueError("summands live over different algebras")
    actions = [
        RationalMatrix.block_diag([m.actions[i] for m in modules])
        for i in range(A.dim)
    ]
    return ModulePresentation(A, actions, _skip_validation=True)


# ---------------------------------------------------------------------------
# free resolutions and Ext
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FreeResolution:
    """A free resolution realized as a vector-space chain complex.

    Degree n holds A**ranks[n], generator-major; ``complex`` carries the
    differentials as plain matrices and ``augmentation`` maps degree 0 onto
    the resolved module.  ``augmented()`` places the module in degree -1 so
    exactness of the whole thing is one homology run.
    """

    algebra: AlgebraPresentation
    module: ModulePresentation
    complex: ChainComplex
    ranks: tuple
    augmentation: RationalMatrix

    def augmented(self) -> ChainComplex:
        dims = dict(self.complex.dims)
        diffs = {n: self.complex.diff(n) for n in self.complex.degrees() if n >= 1}
        if self.module.dim:
            dims[-1] = self.module.dim
            diffs[0] = self.augmentation
        return ChainComplex(dims, diffs)

    def algebra_entries(self, n: int) -> List[List[tuple]]:
        """The A-valued matrix (a_{tu}) of d_n, recovered from the blocks."""
        d = self.complex.diff(n)
        da = self.algebra.dim
        r_tgt = self.ranks[n - 1] if n - 1 < len(self.ranks) else 0
        r_src = self.ranks[n] if n < len(self.ranks) else 0
        out = []
        for t in range(r_tgt):
            row = []
            for u in range(r_src):
                block = d.submatrix(
                    range(t * da, (t + 1) * da), range(u * da, (u + 1) * da)
                )
                row.append(block.apply(self.algebra.unit))
            out.append(row)
        return out


def _free_action_matrices(A: AlgebraPresentation, rank: int) -> List[RationalMatrix]:
    """Left action of each algebra basis element on A**rank."""
    out = []
    for i in range(A.dim):
        L = A.left_mult_matrix(A.basis_vector(i))
        out.append(RationalMatrix.block_diag([L] * rank) if rank else RationalMatrix.zeros(0, 0))
    return out


def _greedy_module_generators(
    action_mats: Sequence[RationalMatrix],
    candidates: Sequence[tuple],
    ambient_dim: int,
    order: str,
) -> List[tuple]:
    """Pick candidates whose A-span grows, scanning in the requested order.

    The chosen vectors generate the same A-submodule as the full candidate
    list; greedy selection keeps free ranks small and deterministic.
    """
    if order not in ("forward", "reversed"):
        raise ValueError(f"order must be 'forward' or 'reversed', got {order!r}")
    scan = list(candidates)
    if order == "reversed":
        scan = scan[::-1]
    tracker = SpanTracker(ambient_dim)
    gens = []
    for v in scan:
        if tracker.contains(v):
            continue
        gens.append(v)
        for mat in action_mats:
            tracker.add(mat.apply(v))
    return gens


def free_resolution(
    A: AlgebraPresentation,
    M: ModulePresentation,
    length: int,
    order: str = "forward",
) -> FreeResolution:
    """Iterated free covers of M, with greedily chosen generators.

    Each step covers the kernel of the previous map by a free module whose
    generators are picked greedily from the kernel's echelon basis (in
    ``order``; "reversed" scans backwards and generally produces a different
    but equally valid resolution, which tests use for independence checks).
    Exactness in degrees 1..length-1 and at the augmentation holds by
    construction and is certified by ``augmented()`` homology.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    da = A.dim
    std = [tuple(1 if k == i else 0 for k in range(M.dim)) for i in range(M.dim)]
    gens0 = _greedy_module_generators(M.actions, std, M.dim, order)
    r0 = len(gens0)
    aug_cols = []
    for g in gens0:
        for k in range(da):
            aug_cols.append(M.actions[k].apply(g))
    augmentation = (
        RationalMatrix.from_columns(aug_cols, nrows=M.dim)
        if aug_cols
        else RationalMatrix.zeros(M.dim, 0)
    )
    ranks = [r0]
    dims = {0: r0 * da}
    diffs: Dict[int, RationalMatrix] = {}
    current = augmentation
    for n in range(1, length + 1):
        prev_rank = ranks[-1]
        prev_dim = prev_rank * da
        if prev_dim == 0:
            ranks.append(0)
            dims[n] = 0
            continue
        _, kernel, _ = rank_kernel_image(current)
        free_acts = _free_action_matrices(A, prev_rank)
        gens = _greedy_module_generators(free_acts, kernel, prev_dim, order)
        rn = len(gens)
        ranks.append(rn)
        dims[n] = rn * da
        if rn == 0:
            current = RationalMatrix.zeros(prev_dim, 0)
            continue
        cols = []
        for g in gens:
            for k in range(da):
                cols.append(free_acts[k].apply(g))
        d_n = RationalMatrix.from_columns(cols, nrows=prev_dim)
        diffs[n] = d_n
        current = d_n
    cx = ChainComplex(dims, diffs)
    return FreeResolution(
        algebra=A, module=M, complex=cx, ranks=tuple(ranks), augmentation=augmentation
    )


def two_periodic_resolution(Q: FiniteGroupTable, n_terms: int) -> FreeResolution:
    """The alternating (1-e), e resolution of the trivial module over E[Q].

    Terms are single copies of the group algebra; the maps alternate
    multiplication by 1-e and by e, starting with 1-e into degree 0, where
    e is the averaging idempotent.  Both are central, so the maps are module
    maps; exactness in degrees 1..n_terms-1 holds because the coefficient
    field has characteristic zero.
    """
    if n_terms < 1:
        raise ValueError("need at least one term")
    A = AlgebraPresentation.group_algebra(Q)
    e = averaging_idempotent(Q)
    one_minus_e = tuple(
        (Fraction(1) if k == Q.identity else Fraction(0)) - c for k, c in enumerate(e)
    )
    triv = ModulePresentation.one_dimensional(A, [1] * Q.order)
    maps = [A.right_mult_matrix(one_minus_e), A.right_mult_matrix(e)]
    dims = {n: Q.order for n in range(n_terms + 1)}
    diffs = {n: maps[(n - 1) % 2] for n in range(1, n_terms + 1)}
    augmentation = RationalMatrix([[1] * Q.order])
    return FreeResolution(
        algebra=A,
        module=triv,
        complex=ChainComplex(dims, diffs),
        ranks=tuple(1 for _ in range(n_terms + 1)),
        augmentation=augmentation,
    )


def _hom_cochain_complex(
    res: FreeResolution, N: ModulePresentation, n_max: int
) -> ChainComplex:
    """Hom_A(res, N) as a cochain complex, via Hom_A(A**r, N) = N**r.

    Cochain degree n (stored at chain degree -n) has dimension N.dim * r_n;
    the differential against d_{n+1} = (a_{tu}) sends (phi_t)_t to
    (sum_t rho_N(a_{tu}) phi_t)_u.
    """
    if N.algebra.dim != res.algebra.dim:
        raise ValueError("coefficient module lives over a different algebra")
    nd = N.dim
    dims = {}
    diffs = {}
    for n in range(min(n_max + 1, len(res.ranks))):
        dims[-n] = nd * res.ranks[n]
    for n in range(min(n_max, len(res.ranks) - 1)):
        r_src = res.ranks[n]
        r_tgt = res.ranks[n + 1]
        if r_src == 0 or r_tgt == 0 or nd == 0:
            continue
        entries = res.algebra_entries(n + 1)  # r_src x r_tgt, A-valued
        blocks = [
            (u * nd, t * nd, N.action_of(entries[t][u]))
            for u in range(r_tgt)
            for t in range(r_src)
        ]
        diffs[-n] = RationalMatrix.from_blocks(nd * r_tgt, nd * r_src, blocks)
    return ChainComplex(dims, diffs, presentation="cochain")


def ext_dims(
    A: AlgebraPresentation,
    M: ModulePresentation,
    N: ModulePresentation,
    n_max: int,
    order: str = "forward",
) -> List[int]:
    """dim Ext_A**n(M, N) for n = 0..n_max, from a free resolution of M."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    res = free_resolution(A, M, n_max + 1, order=order)
    cochain = _hom_cochain_complex(res, N, n_max + 1)
    dims = cohomology_dims(cochain)
    return [dims.get(n, 0) for n in range(n_max + 1)]


def ext_dims_via_hom_complex(
    A: AlgebraPresentation,
    M: ModulePresentation,
    N: ModulePresentation,
    n_max: int,
    order: str = "forward",
) -> List[int]:
    """Same Ext dimensions through the constrained-subspace Hom route.

    Builds an explicit basis of the A-linear maps A**r_n -> N and lets the
    generic constrained-hom machinery express precomposition in it.  Kept
    deliberately separate from ``ext_dims`` so the two derivations check
    each other.
    """
    from wallforge.complexes import hom_constrained

    res = free_resolution(A, M, n_max + 1, order=order)
    da = A.dim
    hom_bases: Dict[int, List[RationalMatrix]] = {}
    for n in range(len(res.ranks)):
        rn = res.ranks[n]
        basis = []
        for u in range(rn):
            for w in range(N.dim):
                wvec = tuple(1 if i == w else 0 for i in range(N.dim))
                grid = [[Fraction(0)] * (rn * da) for _ in range(N.dim)]
                for k in range(da):
                    col = N.actions[k].apply(wvec)
                    for a, val in enumerate(col):
                        if val:
                            grid[a][u * da + k] = val
                basis.append(RationalMatrix(grid, ncols=rn * da))
        hom_bases[n] = basis
    cochain = hom_constrained(res.complex, hom_bases, N.dim)
    dims = cohomology_dims(cochain)
    return [dims.get(n, 0) for n in range(n_max + 1)]


# ---------------------------------------------------------------------------
# crossed products
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CocycleTable:
    """A weak action of Q on A together with normalized 2-cocycle values.

    ``action[q]`` is the matrix of an algebra automorphism; ``values[(q, q')]``
    is an invertible algebra element as a coefficient vector.  Validation
    checks normalization, the automorphism property, the twisted-module
    condition sigma_q sigma_q' = Ad(t(q,q')) sigma_qq', and the cocycle
    identity sigma_q(t(q',q'')) t(q, q'q'') = t(q,q') t(qq', q'').
    """

    group: FiniteGroupTable
    algebra: AlgebraPresentation
    action: tuple  # RationalMatrix per group element
    values: dict  # (q, q') -> coefficient tuple

    @classmethod
    def trivial_cocycle(
        cls,
        Q: FiniteGroupTable,
        A: AlgebraPresentation,
        action: Sequence[RationalMatrix],
    ) -> "CocycleTable":
        values = {
            (q1, q2): tuple(A.unit) for q1 in range(Q.order) for q2 in range(Q.order)
        }
        return cls(group=Q, algebra=A, action=tuple(action), values=values)

    def value(self, q1: int, q2: int) -> tuple:
        return tuple(Fraction(x) for x in self.values[(q1, q2)])

    def apply(self, q: int, u: Sequence) -> tuple:
        return self.action[q].apply(u)

    def violations(self) -> List[str]:
        Q, A = self.group, self.algebra
        out = []
        ident = Q.identity
        unit = tuple(Fraction(x) for x in A.unit)
        if len(self.action) != Q.order:
            return [f"need {Q.order} action matrices, got {len(self.action)}"]
        for q in range(Q.order):
            sigma = self.action[q]
            if sigma.shape != (A.dim, A.dim):
                out.append(f"action[{q}] has shape {sigma.shape}")
                continue
            if sigma.det() == 0:
                out.append(f"action[{q}] is singular")
                continue
            if tuple(sigma.apply(unit)) != unit:
                out.append(f"action[{q}] does not fix the unit")
            for i in range(A.dim):
                for j in range(A.dim):
                    lhs = self.apply(q, A.products[i][j])
                    rhs = A.multiply(
                        self.apply(q, A.basis_vector(i)), self.apply(q, A.basis_vector(j))
                    )
                    if tuple(lhs) != tuple(rhs):
                        out.append(f"action[{q}] not multiplicative at ({i},{j})")
                        break
                else:
                    continue
                break
        if self.action[ident] != RationalMatrix.identity(A.dim):
            out.append("identity element must act as the identity automorphism")
        for q in range(Q.order):
            if tuple(self.value(ident, q)) != unit:
                out.append(f"normalization t(1,{q}) != 1")
            if tuple(self.value(q, ident)) != unit:
                out.append(f"normalization t({q},1) != 1")
        for (q1, q2) in self.values:
            t = self.value(q1, q2)
            if A.inverse(t) is None:
                out.append(f"t({q1},{q2}) is not invertible")
        if out:
            return out
        for q1 in range(Q.order):
            for q2 in range(Q.order):
                t12 = self.value(q1, q2)
                t12_inv = A.inverse(t12)
                comp = self.action[q1] @ self.action[q2]
                twisted = (
                    A.left_mult_matrix(t12)
                    @ self.action[Q.mul(q1, q2)]
                    @ A.right_mult_matrix(t12_inv)
                )
                if comp != twisted:
                    out.append(f"twisted-module condition fails at ({q1},{q2})")
        for q1 in range(Q.order):
            for q2 in range(Q.order):
                for q3 in range(Q.order):
                    lhs = A.multiply(
                        self.apply(q1, self.value(q2, q3)),
                        self.value(q1, Q.mul(q2, q3)),
                    )
                    rhs = A.multiply(self.value(q1, q2), self.value(Q.mul(q1, q2), q3))
                    if tuple(lhs) != tuple(rhs):
                        out.append(f"cocycle identity fails at ({q1},{q2},{q3})")
        return out


@dataclass(frozen=True)
class CrossedProductAlgebra:
    """A (x) E[Q] with multiplication (a#q)(b#q') = a sigma_q(b) t(q,q') # qq'.

    Basis index q * dim(A) + i stands for b_i # q; the blocks realize the
    strong Q-grading.
    """

    algebra: AlgebraPresentation
    base: AlgebraPresentation
    group: FiniteGroupTable
    cocycle: CocycleTable

    def basis_index(self, i: int, q: int) -> int:
        return q * self.base.dim + i

    def include_base(self, u: Sequence, q: int = -1) -> tuple:
        """a # q as a coefficient vector (q defaults to the identity)."""
        if q < 0:
            q = self.group.identity
        out = [Fraction(0)] * self.algebra.dim
        for i, c in enumerate(u):
            out[self.basis_index(i, q)] = Fraction(c)
        return tuple(out)

    def group_unit_element(self, q: int) -> tuple:
        return self.include_base(self.base.unit, q)


def crossed_product(
    A: AlgebraPresentation,
    Q: FiniteGroupTable,
    action: Sequence[RationalMatrix],
    cocycle: Optional[CocycleTable] = None,
) -> CrossedProductAlgebra:
    """Build the crossed product of A by Q; the cocycle defaults to trivial.

    Cocycle and weak-action conditions are validated first and reported with
    the offending tuple; associativity of the product algebra is re-validated
    from scratch by the AlgebraPresentation constructor.
    """
    if cocycle is None:
        cocycle = CocycleTable.trivial_cocycle(Q, A, action)
    else:
        if cocycle.group is not Q or cocycle.algebra is not A:
            cocycle = CocycleTable(
                group=Q, algebra=A, action=tuple(action), values=dict(cocycle.values)
            )
    bad = cocycle.violations()
    if bad:
        raise ValueError("invalid cocycle data: " + "; ".join(bad))
    da = A.dim
    dim = da * Q.order
    products = [[None] * dim for _ in range(dim)]
    for q1 in range(Q.order):
        for i in range(da):
            for q2 in range(Q.order):
                for j in range(da):
                    # (b_i # q1)(b_j # q2) = b_i sigma_q1(b_j) t(q1,q2) # q1q2
                    a = A.multiply(
                        A.basis_vector(i),
                        A.multiply(cocycle.apply(q1, A.basis_vector(j)), cocycle.value(q1, q2)),
                    )
                    entry = [Fraction(0)] * dim
                    q3 = Q.mul(q1, q2)
                    for k, c in enumerate(a):
                        if c:
                            entry[q3 * da + k] = c
                    products[q1 * da + i][q2 * da + j] = entry
    unit = [Fraction(0)] * dim
    for k, c in enumerate(A.unit):
        unit[Q.identity * da + k] = Fraction(c)
    labels = None
    if A.labels:
        labels = [f"{A.labels[i]}#g{q}" for q in range(Q.order) for i in range(da)]
    cp_alg = AlgebraPresentation(products, unit, labels=labels)
    return CrossedProductAlgebra(algebra=cp_alg, base=A, group=Q, cocycle=cocycle)


def crossed_module(
    cp: CrossedProductAlgebra,
    base_actions: Sequence[RationalMatrix],
    group_operators: Sequence[RationalMatrix],
) -> ModulePresentation:
    """A module over the crossed product from compatible A- and Q-structures.

    ``base_actions`` give the A-module structure, ``group_operators`` the
    operators U_q; the action of b_i # q is rho(b_i) U_q.  Compatibility is
    checked by the ModulePresentation validator.
    """
    da = cp.base.dim
    mats = []
    for q in range(cp.group.order):
        for i in range(da):
            mats.append(base_actions[i] @ group_operators[q])
    return ModulePresentation(cp.algebra, mats)


# ---------------------------------------------------------------------------
# the Ext comparison over a crossed product
# ---------------------------------------------------------------------------


def _semilinear_basis(
    A: AlgebraPresentation, tau: RationalMatrix, r_src: int, r_tgt: int
) -> List[RationalMatrix]:
    """Basis of tau-semilinear maps A**r_src -> A**r_tgt.

    A map with f(a x) = tau(a) f(x) is fixed by the images of the free
    generators; the basis element for (target slot t, source slot u,
    algebra basis w) has block (t, u) equal to R_{b_w} tau.
    """
    da = A.dim
    blocks = [A.right_mult_matrix(A.basis_vector(w)) @ tau for w in range(da)]
    return [
        RationalMatrix.from_blocks(r_tgt * da, r_src * da, [(t * da, u * da, block)])
        for t in range(r_tgt)
        for u in range(r_src)
        for block in blocks
    ]


def _lift_semilinear_chain_map(
    res: FreeResolution,
    tau: RationalMatrix,
    top_degree: int,
    order: str = "forward",
) -> List[RationalMatrix]:
    """A tau-semilinear chain self-map of the resolution lifting identity.

    Degree 0 satisfies aug o f_0 = aug; higher degrees satisfy
    d_n o f_n = f_{n-1} o d_n.  Existence is projectivity plus exactness;
    a failed solve raises, since it would falsify one of those.
    """
    A = res.algebra
    lifts = []
    for n in range(top_degree + 1):
        rn = res.ranks[n] if n < len(res.ranks) else 0
        basis = _semilinear_basis(A, tau, rn, rn)
        if n == 0:
            lhs = res.augmentation
            rhs = res.augmentation
        else:
            d = res.complex.diff(n)
            lhs = d
            rhs = lifts[n - 1] @ d
        sol = solve_in_subspace(lhs, rhs, basis, side="right", order=order)
        if sol is None:
            raise CertificateError(f"semilinear lift failed at degree {n}")
        lifts.append(sol)
    return lifts


def _cochain_vector_to_hom_matrix(
    phi: Sequence, res: FreeResolution, N: ModulePresentation, n: int
) -> RationalMatrix:
    """Tuple (phi_t) in N**r_n as the full matrix of the A-linear map."""
    da = res.algebra.dim
    rn = res.ranks[n]
    nd = N.dim
    cols = []
    for t in range(rn):
        target = tuple(phi[t * nd : (t + 1) * nd])
        for k in range(da):
            cols.append(N.actions[k].apply(target))
    return RationalMatrix.from_columns(cols, nrows=nd)


def _hom_matrix_to_cochain_vector(
    H: RationalMatrix, res: FreeResolution, N: ModulePresentation, n: int
) -> tuple:
    da = res.algebra.dim
    rn = res.ranks[n]
    unit = res.algebra.unit
    out = []
    for t in range(rn):
        block = H.submatrix(range(N.dim), range(t * da, (t + 1) * da))
        out.extend(block.apply(unit))
    return tuple(out)


@dataclass(frozen=True)
class CrossedCompareReport:
    lhs_dims: tuple  # Ext over the crossed product
    base_ext_dims: tuple  # Ext over A, before invariants
    invariant_dims: tuple  # Q-invariants of Ext over A
    ok: bool

    def to_json(self) -> dict:
        return {
            "crossed_ext_dims": list(self.lhs_dims),
            "base_ext_dims": list(self.base_ext_dims),
            "invariant_dims": list(self.invariant_dims),
            "ok": self.ok,
        }


def ext_action_matrices(
    cp: CrossedProductAlgebra,
    M_B: ModulePresentation,
    eps_A: Sequence,
    n: int,
    res: Optional[FreeResolution] = None,
    order: str = "forward",
) -> Tuple[List[RationalMatrix], int]:
    """The Q-action matrices on Ext_A**n(E, M) in a representative basis.

    Returns (one matrix per group element, homology dimension).  The action
    of q sends a class [phi] to [U_q o phi o f_q], where f_q is a
    sigma_q**(-1)-semilinear chain lift of the identity.
    """
    A = cp.base
    Q = cp.group
    N_actions = [M_B.actions[cp.basis_index(i, Q.identity)] for i in range(A.dim)]
    N = ModulePresentation(A, N_actions)
    U = [M_B.actions[cp.basis_index(_unit_slot(A), q)] for q in range(Q.order)]
    # U_q as stored includes rho(b_unit); with a one-slot unit that IS U_q.
    E_A = ModulePresentation.one_dimensional(A, eps_A)
    if res is None:
        res = free_resolution(A, E_A, n + 1, order=order)
    cochain = _hom_cochain_complex(res, N, n + 1)
    record = homology(cochain, -n)
    reps = list(record.representatives)
    h = record.dim
    _, _, cob_image = rank_kernel_image(cochain.diff(-(n - 1))) if n >= 1 else (0, [], [])
    mats = []
    for q in range(Q.order):
        tau = cp.cocycle.action[Q.inv(q)]
        lifts = _lift_semilinear_chain_map(res, tau, n, order=order)
        cols = []
        for rep in reps:
            H = _cochain_vector_to_hom_matrix(rep, res, N, n)
            moved = U[q] @ H @ lifts[n]
            w = _hom_matrix_to_cochain_vector(moved, res, N, n)
            span_cols = reps + cob_image
            sol = solve_vector(
                RationalMatrix.from_columns(span_cols, nrows=len(w)), w
            ) if span_cols else tuple()
            if sol is None:
                raise CertificateError(
                    f"moved class leaves the cocycle space at degree {n}, q={q}"
                )
            cols.append(tuple(sol[: len(reps)]))
        mats.append(
            RationalMatrix.from_columns(cols, nrows=h)
            if cols
            else RationalMatrix.zeros(h, 0)
        )
    return mats, h


def _unit_slot(A: AlgebraPresentation) -> int:
    slots = [k for k, c in enumerate(A.unit) if c]
    if len(slots) != 1 or A.unit[slots[0]] != 1:
        raise ValueError("algebra unit is not a single basis element")
    return slots[0]


def crossed_ext_compare(
    cp: CrossedProductAlgebra,
    M_B: ModulePresentation,
    eps_A: Sequence,
    n_max: int,
    order: str = "forward",
) -> CrossedCompareReport:
    """Certify dim Ext_B**n(E, M) = dim (Ext_A**n(E, M))**Q for n <= n_max.

    The left side resolves the one-dimensional module extending eps_A over
    the whole crossed product B; the right side computes the Q-action on
    Ext over A through semilinear chain lifts and takes joint invariants.
    """
    A = cp.base
    Q = cp.group
    eps_B = []
    for q in range(Q.order):
        for i in range(A.dim):
            eps_B.append(Fraction(eps_A[i]))
    E_B = ModulePresentation.one_dimensional(cp.algebra, eps_B)
    lhs = ext_dims(cp.algebra, E_B, M_B, n_max, order=order)
    E_A = ModulePresentation.one_dimensional(A, eps_A)
    res = free_resolution(A, E_A, n_max + 2, order=order)
    base_dims = []
    inv_dims = []
    for n in range(n_max + 1):
        mats, h = ext_action_matrices(cp, M_B, eps_A, n, res=res, order=order)
        base_dims.append(h)
        if h == 0:
            inv_dims.append(0)
            continue
        fixed = invariants(mats)
        inv_dims.append(len(fixed))
    ok = lhs == inv_dims
    return CrossedCompareReport(
        lhs_dims=tuple(lhs),
        base_ext_dims=tuple(base_dims),
        invariant_dims=tuple(inv_dims),
        ok=ok,
    )
