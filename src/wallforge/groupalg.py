"""Finite groups, finite-dimensional algebras, and their homological algebra.

The central objects are multiplication tables: ``FiniteGroupTable`` for
groups, ``AlgebraPresentation`` for associative unital algebras over Q, and
``ModulePresentation`` for finite-dimensional left modules.  On top of them
sit free resolutions with greedy generator selection, Ext computed from the
concrete Hom identification Hom_A(A**r, N) = N**r, skew group algebras
A # Q of a group acting on an algebra, and the comparison of Ext over
A # Q with the Q-invariants of Ext over an exterior algebra A, read off
its Koszul complex.

Free A-modules A**r are realized as vector spaces generator-major: basis
index u * dim(A) + k stands for the algebra basis element b_k sitting in
the u-th free summand.  A-linear maps between free modules then appear as
block matrices whose (t, u) block is the right-multiplication matrix of the
algebra entry a_{tu}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from wallforge.complexes import (
    CertificateError,
    ChainComplex,
    cohomology_dims,
    homology,
)
from wallforge.linalg import (
    RationalMatrix,
    SpanTracker,
    canonical,
    rank_kernel_image,
    solve_matrix,
)

# ---------------------------------------------------------------------------
# finite groups
# ---------------------------------------------------------------------------


class FiniteGroupTable:
    """A finite group as a multiplication table, validated on construction."""

    __slots__ = ("order", "table", "identity", "inverses", "name")

    def __init__(self, table: Sequence[Sequence[int]], name: str = ""):
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
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "table", tbl)
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "inverses", tuple(inverses))
        object.__setattr__(self, "name", name)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("FiniteGroupTable is immutable")

    def mul(self, g: int, h: int) -> int:
        return self.table[g][h]

    def inv(self, g: int) -> int:
        return self.inverses[g]

    def generators(self) -> List[int]:
        """A generating set, chosen greedily: scanning the elements in order,
        keep each one that lies outside the subgroup generated so far.

        The identity is never chosen, so the trivial group gets no generators.
        """
        gens: List[int] = []
        reached = {self.identity}
        for g in range(self.order):
            if g in reached:
                continue
            gens.append(g)
            # the subgroup generated by gens: close the identity under right
            # multiplication by the generators
            reached = {self.identity}
            frontier = [self.identity]
            while frontier:
                nxt = []
                for h in frontier:
                    for s in gens:
                        hs = self.table[h][s]
                        if hs not in reached:
                            reached.add(hs)
                            nxt.append(hs)
                frontier = nxt
        return gens

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

        return cls([[mul(a, b) for b in range(8)] for a in range(8)], name="Q8")

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


def _combination(scaled: Iterable[Tuple[Fraction, Sequence[tuple]]]) -> dict:
    """The sum of c * v over ``(c, v)`` pairs, each v given by its ``(k, x)`` nonzeros.

    Returned as a ``{k: value}`` dict without zeros, so equal sums compare equal.
    """
    out: dict = {}
    for c, v in scaled:
        for k, x in v:
            out[k] = out.get(k, 0) + c * x
    return {k: x for k, x in out.items() if x}


class AlgebraPresentation:
    """An associative unital algebra by structure constants.

    ``products[i][j]`` is the coefficient vector of b_i * b_j; ``unit`` is a
    coefficient vector.  Both are stored as canonical scalars (``int`` when
    integral, ``Fraction`` otherwise).  Associativity on basis triples and
    both unit laws are checked on construction.
    """

    __slots__ = ("dim", "products", "unit", "_terms", "_generators")

    def __init__(self, products: Sequence[Sequence[Sequence]], unit: Sequence):
        dim = len(products)
        prods = tuple(
            tuple(
                tuple(x if type(x) is int else canonical(x) for x in entry) for entry in row
            )
            for row in products
        )
        for row in prods:
            if len(row) != dim or any(len(e) != dim for e in row):
                raise ValueError("structure constant table has wrong shape")
        u = tuple(canonical(x) for x in unit)
        if len(u) != dim:
            raise ValueError("unit vector has wrong length")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "products", prods)
        object.__setattr__(self, "unit", u)
        # the nonzero structure constants of each b_i * b_j, as (k, c) pairs
        terms = tuple(
            tuple(tuple((k, c) for k, c in enumerate(entry) if c) for entry in row)
            for row in prods
        )
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_generators", None)
        self._validate()

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("AlgebraPresentation is immutable")

    def _validate(self) -> None:
        """Both unit laws per basis element, then associativity per basis triple.

        Products are formed from the nonzero structure constants only, and
        compared as sparse vectors.
        """
        terms = self._terms
        unit = [(s, a) for s, a in enumerate(self.unit) if a]
        for i in range(self.dim):
            bi = {i: 1}
            if _combination((a, terms[s][i]) for s, a in unit) != bi:
                raise ValueError(f"left unit law fails on basis {i}")
            if _combination((a, terms[i][s]) for s, a in unit) != bi:
                raise ValueError(f"right unit law fails on basis {i}")
        for i in range(self.dim):
            row_i = terms[i]
            for j in range(self.dim):
                ij = row_i[j]
                row_j = terms[j]
                for k in range(self.dim):
                    jk = row_j[k]
                    # (b_i b_j) b_k against b_i (b_j b_k)
                    if len(ij) == 1 and len(jk) == 1 and ij[0][1] == jk[0][1]:
                        # one basis product on each side, times the same scalar
                        same = terms[ij[0][0]][k] == row_i[jk[0][0]]
                    else:
                        same = _combination((c, terms[l][k]) for l, c in ij) == _combination(
                            (c, row_i[m]) for m, c in jk
                        )
                    if not same:
                        raise ValueError(f"associativity fails at triple ({i},{j},{k})")

    def generators(self) -> tuple:
        """Basis indices whose elements generate this algebra, found once.

        Index i is picked, lowest first, when b_i is not in the span W of the
        unit closed under left multiplication by the picks so far.  That W is
        the subalgebra the picks generate, and the picking stops only when W
        is all of A, so an identity of module maps that is multiplicative in
        the algebra element holds on A once it holds on the unit and on these.
        """
        if self._generators is None:
            span, found, picks, pending = SpanTracker(self.dim), [], [], []

            def grow(v: tuple) -> None:
                # a vector new to W is multiplied by every pick in turn
                if span.add(v):
                    found.append(v)
                    pending.extend((g, v) for g in picks)

            grow(self.unit)
            for i in range(self.dim):
                if span.contains(self.basis_vector(i)):
                    continue
                picks.append(i)
                pending.extend((i, v) for v in found)
                while pending:
                    g, v = pending.pop()
                    grow(self.multiply(self.basis_vector(g), v))
            if span.rank != self.dim:  # pragma: no cover - every b_i is in W
                raise ValueError("the picked basis elements do not generate the algebra")
            object.__setattr__(self, "_generators", tuple(picks))
        return self._generators

    def multiply(self, u: Sequence, v: Sequence) -> tuple:
        """The product u * v as a tuple of canonical scalars."""
        out = [0] * self.dim
        vs = [(j, b if type(b) is int else canonical(b)) for j, b in enumerate(v) if b]
        for i, a in enumerate(u):
            if not a:
                continue
            if type(a) is not int:
                a = canonical(a)
            terms = self._terms[i]
            for j, b in vs:
                ab = a * b
                for k, c in terms[j]:
                    out[k] += ab * c
        return tuple(x if type(x) is int else canonical(x) for x in out)

    def basis_vector(self, i: int) -> tuple:
        return tuple(1 if k == i else 0 for k in range(self.dim))

    def left_mult_matrix(self, u: Sequence) -> RationalMatrix:
        cols = [self.multiply(u, self.basis_vector(j)) for j in range(self.dim)]
        return RationalMatrix.from_columns(cols, nrows=self.dim)

    def right_mult_matrix(self, u: Sequence) -> RationalMatrix:
        cols = [self.multiply(self.basis_vector(j), u) for j in range(self.dim)]
        return RationalMatrix.from_columns(cols, nrows=self.dim)

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
        return cls(products, unit)

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
        return cls(products, unit)

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


def _same_algebra(a: AlgebraPresentation, b: AlgebraPresentation) -> bool:
    """Whether two presentations have the same structure constants and unit."""
    return a is b or (a.dim == b.dim and a.unit == b.unit and a.products == b.products)


class ModulePresentation:
    """A finite-dimensional left module by action matrices per basis element."""

    __slots__ = ("algebra", "dim", "actions")

    def __init__(
        self,
        algebra: AlgebraPresentation,
        actions: Sequence[RationalMatrix],
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
        self._validate()

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("ModulePresentation is immutable")

    def _validate(self) -> None:
        """The unit acts as the identity and b_g b_j acts as b_g then b_j, for
        every algebra generator g and basis index j.

        The a with a.(b.m) = (ab).m for all b and m form a subalgebra: they
        contain the unit and are closed under sums and, by associativity of
        A, products.  So the generators settle every basis pair.
        """
        ident = RationalMatrix.identity(self.dim)
        if self.action_of(self.algebra.unit) != ident:
            raise ValueError("unit does not act as identity")
        for i in self.algebra.generators():
            for j in range(self.algebra.dim):
                lhs = self.actions[i] @ self.actions[j]
                rhs = self.action_of(self.algebra.products[i][j])
                if lhs != rhs:
                    raise ValueError(f"module axiom fails on basis pair ({i},{j})")

    def action_of(self, u: Sequence) -> RationalMatrix:
        out = None
        for i, c in enumerate(u):
            if c:
                term = self.actions[i] if c == 1 else self.actions[i].scale(c)
                out = term if out is None else out + term
        return RationalMatrix.zeros(self.dim, self.dim) if out is None else out

    @classmethod
    def regular(cls, A: AlgebraPresentation) -> "ModulePresentation":
        return cls(A, _left_mult_matrices(A))

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
        if not _same_algebra(m.algebra, A):
            raise ValueError("summands live over different algebras")
    actions = [
        RationalMatrix.block_diag([m.actions[i] for m in modules])
        for i in range(A.dim)
    ]
    return ModulePresentation(A, actions)


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
        """The A-valued matrix (a_{tu}) of d_n, read off the generator images.

        Block (t, u) is right multiplication by a_{tu}, so slot t of the
        image of generator u is a_{tu}.
        """
        da = self.algebra.dim
        images = self.complex.diff(n) @ _free_generators(self.algebra, self.ranks[n])
        cols = images.columns()
        return [[col[t * da : (t + 1) * da] for col in cols] for t in range(images.nrows // da)]


def _left_mult_matrices(A: AlgebraPresentation) -> List[RationalMatrix]:
    """Left multiplication by each basis element b_i, as a dim(A) x dim(A) matrix."""
    # column j of L_i is b_i * b_j
    return [RationalMatrix.from_columns(A.products[i], nrows=A.dim) for i in range(A.dim)]


def _free_action_matrices(left: Sequence[RationalMatrix], rank: int) -> List[RationalMatrix]:
    """Left action of each basis element on A**rank as an explicit block matrix.

    ``left`` is ``_left_mult_matrices(A)``.  Only wall dumps write these
    matrices, and ``WallAssembly.actions`` derives them from a free spot's
    rank; resolutions act slot by slot through ``_free_images`` instead.
    """
    return [RationalMatrix.block_diag([L] * rank) for L in left]


def _free_generators(A: AlgebraPresentation, rank: int) -> RationalMatrix:
    """The generators of A**rank as columns: column u is A's unit in slot u."""
    unit = RationalMatrix.column(A.unit)
    slots = [(u * A.dim, u, unit) for u in range(rank)]
    return RationalMatrix.from_blocks(rank * A.dim, rank, slots)


def _free_map(tgt_actions: Sequence[RationalMatrix], Y: RationalMatrix) -> RationalMatrix:
    """The module map A**r -> N that sends generator u to column y_u of Y,
    with N given by its action matrices: its column u * dim(A) + i is b_i . y_u."""
    da = len(tgt_actions)
    rows: list = [{} for _ in range(Y.nrows)]
    for i, act in enumerate(tgt_actions):
        for a, u, x in (act @ Y).nonzero_entries():
            rows[a][u * da + i] = x
    return RationalMatrix._from_sparse(rows, Y.ncols * da)


def _free_source_hom_basis(
    rank: int, tgt_actions: Sequence[RationalMatrix], tgt_dim: int
) -> List[RationalMatrix]:
    """Basis of the module maps A**rank -> N, one per (generator, N-basis) pair:
    the map for (u, w) sends generator u to basis vector w and the others to zero."""
    one = RationalMatrix.identity(1)
    return [
        _free_map(tgt_actions, RationalMatrix.from_blocks(tgt_dim, rank, [(w, u, one)]))
        for u in range(rank)
        for w in range(tgt_dim)
    ]


def _free_images(left: Sequence[RationalMatrix], v: Sequence) -> List[tuple]:
    """b_i * v for every basis element b_i, with v in A**r generator-major.

    Each dim(A)-slice of v is one free summand and is multiplied on its own;
    the result equals applying the block-diagonal action matrices.
    """
    da = left[0].nrows
    zero = (0,) * da
    parts: List[list] = [[] for _ in left]
    for s in range(0, len(v), da):
        x = v[s : s + da]
        if any(x):
            for part, L in zip(parts, left):
                part.extend(L.apply(x))
        else:
            for part in parts:
                part.extend(zero)
    return [tuple(part) for part in parts]


def _greedy_module_generators(
    act: Callable[[tuple], List[tuple]],
    candidates: Sequence[tuple],
    ambient_dim: int,
) -> List[Tuple[tuple, List[tuple]]]:
    """Pick candidates whose A-span grows, scanning them in the order given.

    The candidates must be linearly independent and span an A-submodule,
    as a kernel basis of a module map does.  ``act(v)`` lists the images of
    v under the algebra basis elements.  Returns each chosen vector with its
    images.  The chosen vectors generate the same A-submodule as the full
    candidate list; greedy selection keeps free ranks small and
    deterministic.
    """
    tracker = SpanTracker(ambient_dim)
    chosen = []
    for v in candidates:
        # once the span has the candidates' dimension it holds all of them
        if tracker.rank == len(candidates):
            break
        if not tracker.add(v):
            continue
        images = act(v)
        chosen.append((v, images))
        for w in images:
            if tracker.rank == len(candidates):
                break
            # v itself is one of its images (the unit's) and is already in
            if w != v:
                tracker.add(w)
    return chosen


def free_resolution(
    A: AlgebraPresentation,
    M: ModulePresentation,
    length: int,
) -> FreeResolution:
    """Iterated free covers of M, with greedily chosen generators.

    Each step covers the kernel of the previous map by a free module whose
    generators are picked greedily, scanning the kernel's echelon basis
    (the standard basis of M in degree 0) from first to last.  Any other
    choice of generators gives an equally valid resolution; Ext and the
    Wall complexes built on it do not depend on the choice.
    Exactness in degrees 1..length-1 and at the augmentation holds by
    construction and is certified by ``augmented()`` homology.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    if not _same_algebra(M.algebra, A):
        raise ValueError("the resolved module lives over a different algebra")
    da = A.dim
    left = _left_mult_matrices(A)
    # degree n covers the kernel of the previous cover, inside a module of
    # dimension ``ambient`` on which ``act`` lists the algebra basis images
    ambient = M.dim
    candidates = [tuple(1 if k == i else 0 for k in range(ambient)) for i in range(ambient)]
    act = lambda v: [m.apply(v) for m in M.actions]
    ranks = []
    dims = {}
    diffs: Dict[int, RationalMatrix] = {}
    for n in range(length + 1):
        gens = _greedy_module_generators(act, candidates, ambient)
        cols = [w for _, images in gens for w in images]
        cover = RationalMatrix.from_columns(cols, nrows=ambient)
        ranks.append(len(gens))
        dims[n] = len(gens) * da
        if n:
            diffs[n] = cover
        else:
            augmentation = cover
        if n < length:
            _, candidates, _ = rank_kernel_image(cover)
            ambient = dims[n]
            act = lambda v: _free_images(left, v)
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
    if not _same_algebra(N.algebra, res.algebra):
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
    res: Optional[FreeResolution] = None,
) -> List[int]:
    """dim Ext_A**n(M, N) for n = 0..n_max, from a free resolution of M.

    ``res`` may be a prebuilt resolution of M over A of length at least
    n_max + 1; otherwise one is built.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if res is None:
        res = free_resolution(A, M, n_max + 1)
    elif not _same_algebra(res.algebra, A):
        raise ValueError("the prebuilt resolution lives over a different algebra")
    elif res.module.actions != M.actions:
        raise ValueError("the prebuilt resolution resolves a different module")
    elif len(res.ranks) < n_max + 2:
        raise ValueError(
            f"a resolution of length {len(res.ranks) - 1} is too short, need {n_max + 1}"
        )
    cochain = _hom_cochain_complex(res, N, n_max + 1)
    dims = cohomology_dims(cochain)
    return [dims.get(n, 0) for n in range(n_max + 1)]


def ext_dims_via_hom_complex(
    A: AlgebraPresentation,
    M: ModulePresentation,
    N: ModulePresentation,
    n_max: int,
) -> List[int]:
    """Same Ext dimensions through the constrained-subspace Hom route.

    Builds an explicit basis of the A-linear maps A**r_n -> N and lets the
    generic constrained-hom machinery express precomposition in it.  Kept
    deliberately separate from ``ext_dims`` so the two derivations check
    each other.
    """
    from wallforge.complexes import hom_constrained

    if not _same_algebra(N.algebra, A):
        raise ValueError("coefficient module lives over a different algebra")
    res = free_resolution(A, M, n_max + 1)
    hom_bases = {
        n: _free_source_hom_basis(rn, N.actions, N.dim) for n, rn in enumerate(res.ranks)
    }
    cochain = hom_constrained(res.complex, hom_bases, N.dim)
    dims = cohomology_dims(cochain)
    return [dims.get(n, 0) for n in range(n_max + 1)]


# ---------------------------------------------------------------------------
# crossed products
# ---------------------------------------------------------------------------


def _action_violations(
    Q: FiniteGroupTable, A: AlgebraPresentation, action: Sequence[RationalMatrix]
) -> List[str]:
    """What keeps q -> action[q] from being a homomorphism Q -> Aut(A).

    Each matrix must be a unital algebra automorphism, the identity must act
    trivially, and action[q1] action[q2] = action[q1 q2] for every pair.
    """
    if len(action) != Q.order:
        return [f"need {Q.order} action matrices, got {len(action)}"]
    out = []
    for q, sigma in enumerate(action):
        if sigma.shape != (A.dim, A.dim):
            out.append(f"action[{q}] has shape {sigma.shape}")
            continue
        if sigma.det() == 0:
            out.append(f"action[{q}] is singular")
            continue
        if sigma.apply(A.unit) != A.unit:
            out.append(f"action[{q}] does not fix the unit")
        images = [sigma.apply(A.basis_vector(i)) for i in range(A.dim)]
        bad = [
            f"({i},{j})"
            for i in range(A.dim)
            for j in range(A.dim)
            if sigma.apply(A.products[i][j]) != A.multiply(images[i], images[j])
        ]
        if bad:
            out.append(f"action[{q}] not multiplicative at {bad[0]}")
    if action[Q.identity] != RationalMatrix.identity(A.dim):
        out.append("identity element must act as the identity automorphism")
    if out:
        return out
    for q1 in range(Q.order):
        for q2 in range(Q.order):
            if action[q1] @ action[q2] != action[Q.mul(q1, q2)]:
                out.append(f"action is not a homomorphism at ({q1},{q2})")
    return out


@dataclass(frozen=True)
class CrossedProductAlgebra:
    """A (x) E[Q] with multiplication (a#q)(b#q') = a sigma_q(b) # qq'.

    Basis index q * dim(A) + i stands for b_i # q; the blocks realize the
    strong Q-grading.  ``action[q]`` is the matrix of sigma_q.
    """

    algebra: AlgebraPresentation
    base: AlgebraPresentation
    group: FiniteGroupTable
    action: tuple

    def basis_index(self, i: int, q: int) -> int:
        return q * self.base.dim + i

    def include_base(self, u: Sequence, q: int = -1) -> tuple:
        """a # q as a coefficient vector (q defaults to the identity)."""
        if q < 0:
            q = self.group.identity
        out = [0] * self.algebra.dim
        for i, c in enumerate(u):
            out[self.basis_index(i, q)] = canonical(c)
        return tuple(out)


def crossed_product(
    A: AlgebraPresentation,
    Q: FiniteGroupTable,
    action: Sequence[RationalMatrix],
) -> CrossedProductAlgebra:
    """Build the crossed product of A by Q, the skew group algebra A # Q.

    Q acts on A through ``action``, and the cocycle is trivial.  The action
    is validated first and reported with the offending element or pair;
    associativity of the product algebra is re-validated in full by the
    AlgebraPresentation constructor.
    """
    bad = _action_violations(Q, A, action)
    if bad:
        raise ValueError("invalid action: " + "; ".join(bad))
    da = A.dim
    dim = da * Q.order
    products = [[None] * dim for _ in range(dim)]
    for q1 in range(Q.order):
        for i in range(da):
            for q2 in range(Q.order):
                for j in range(da):
                    # (b_i # q1)(b_j # q2) = b_i sigma_q1(b_j) # q1q2
                    a = A.multiply(A.basis_vector(i), action[q1].apply(A.basis_vector(j)))
                    entry = [0] * dim
                    q3 = Q.mul(q1, q2)
                    for k, c in enumerate(a):
                        if c:
                            entry[q3 * da + k] = c
                    products[q1 * da + i][q2 * da + j] = entry
    unit = [0] * dim
    for k, c in enumerate(A.unit):
        unit[Q.identity * da + k] = c
    cp_alg = AlgebraPresentation(products, unit)
    return CrossedProductAlgebra(algebra=cp_alg, base=A, group=Q, action=tuple(action))


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


def koszul_cochain_complex(N: ModulePresentation, rank: int, top: int) -> ChainComplex:
    """Hom_A(K, N) through cochain degree ``top``, for A = exterior_algebra(rank).

    K = A (x) Gamma(V) is the Koszul resolution of E over A = Lambda(V)
    (Priddy, Trans. AMS 152, 1970), so the cohomology is Ext_A(E, N).
    Cochain degree n (stored at chain degree -n) is S**n(V*) (x) N,
    monomial-major, with the degree-n monomials in the order of
    ``combinations_with_replacement``.  The differential is
    d = sum_i xi_i (x) x_i (Bernstein-Gel'fand-Gel'fand, 1978): xi_i
    multiplies the monomial and x_i, basis element 1 + i of A, acts on N.
    """
    nd = N.dim
    prev = [()]
    dims = {0: nd}
    diffs = {}
    for n in range(1, top + 1):
        monos = list(combinations_with_replacement(range(rank), n))
        index = {m: k for k, m in enumerate(monos)}
        blocks = [
            (index[tuple(sorted(m + (i,)))] * nd, k * nd, N.actions[1 + i])
            for k, m in enumerate(prev)
            for i in range(rank)
        ]
        dims[-n] = nd * len(monos)
        diffs[-(n - 1)] = RationalMatrix.from_blocks(dims[-n], dims[-(n - 1)], blocks)
        prev = monos
    return ChainComplex(dims, diffs, presentation="cochain")


def _symmetric_powers(T: RationalMatrix, top: int) -> List[RationalMatrix]:
    """Sym**n(T) on S**n(V*) for n = 0..top, in the monomial order above.

    T acts on the variables by xi_i -> sum_j T_ij xi_j and on a monomial as
    the product of the images of its factors.
    """
    rank = T.nrows
    images: Dict[tuple, dict] = {(): {(): 1}}
    out = []
    for n in range(top + 1):
        monos = list(combinations_with_replacement(range(rank), n))
        if n:
            prev, images = images, {}
            for m in monos:
                image = images[m] = {}
                for mono, c in prev[m[:-1]].items():
                    for j, t in enumerate(T.row(m[-1])):
                        key = tuple(sorted(mono + (j,)))
                        image[key] = image.get(key, 0) + c * t
        cols = [[images[m].get(mono, 0) for mono in monos] for m in monos]
        out.append(RationalMatrix.from_columns(cols, nrows=len(monos)))
    return out


def _koszul_side(
    cp: CrossedProductAlgebra, M_B: ModulePresentation, top: int
) -> Tuple[ChainComplex, Dict[int, List[RationalMatrix]]]:
    """M_B over the exterior base A: its Koszul cochain complex through
    degree ``top``, and the operator of each generator q of Q on every degree.

    The operator of q on degree n is Sym**n(sigma_q**(-1) on V) tensored
    with U_q, the action of 1 # q on M.  V, the span of the generators of
    A, sits at basis indices 1..rank; each sigma_q must map it into itself.
    """
    A, Q = cp.base, cp.group
    rank = A.dim.bit_length() - 1
    V = range(1, rank + 1)
    off_V = [k for k in range(A.dim) if k not in V]
    operators = {}
    for q in Q.generators():
        sigma_inv = cp.action[Q.inv(q)]
        if not sigma_inv.submatrix(off_V, V).is_zero():
            raise ValueError(f"the action of {q} does not preserve the span of the generators")
        # 1 # q acts by U_q, and 1 is basis element 0 of an exterior algebra
        U = M_B.actions[cp.basis_index(0, q)]
        operators[q] = [S.kron(U) for S in _symmetric_powers(sigma_inv.submatrix(V, V), top)]
    N = ModulePresentation(A, [M_B.actions[cp.basis_index(i, Q.identity)] for i in range(A.dim)])
    return koszul_cochain_complex(N, rank, top), operators


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
    cochain: ChainComplex,
    operators: Dict[int, List[RationalMatrix]],
    n: int,
) -> Tuple[List[RationalMatrix], int]:
    """The action of Q's generators on the degree-n cohomology of ``cochain``.

    ``cochain`` is a cochain-presented complex through degree n + 1 or
    beyond, and ``operators[q]`` lists the cochain-level operator of the
    generator q on each degree through n + 1.  Each operator must commute
    with the differentials into and out of degree n; ``CertificateError``
    is raised otherwise.  A class [phi] goes to [operators[q][n] phi],
    written in the basis of homology representatives.

    Returns (one matrix per generator, in the order of ``operators``, and
    the cohomology dimension).  The generators determine the whole action,
    so the joint fixed space of these matrices is the space of Q-invariants.
    """
    for k in range(max(n - 1, 0), n + 1):
        d = cochain.diff(-k)
        for q, ops in operators.items():
            if d @ ops[k] != ops[k + 1] @ d:
                raise CertificateError(
                    f"the operator of q={q} does not commute with d at degree {k}"
                )
    record = homology(cochain, -n)
    reps = list(record.representatives)
    h = record.dim
    if h == 0:
        return [RationalMatrix.zeros(0, 0) for _ in operators], 0
    _, _, cob_image = rank_kernel_image(cochain.diff(-(n - 1))) if n >= 1 else (0, [], [])
    # representatives and coboundaries are independent, so every moved
    # class has unique coordinates; the first h are its class
    span = RationalMatrix.from_columns(reps + cob_image, nrows=cochain.dim(-n))
    mats = []
    for q, ops in operators.items():
        moved = [ops[n].apply(rep) for rep in reps]
        sol = solve_matrix(span, RationalMatrix.from_columns(moved, nrows=span.nrows))
        if sol is None:
            raise CertificateError(
                f"moved class leaves the cocycle space at degree {n}, q={q}"
            )
        mats.append(sol.submatrix(range(h), range(h)))
    return mats, h


def crossed_ext_compare(
    cp: CrossedProductAlgebra,
    modules: Sequence[ModulePresentation],
    n_max: int,
) -> List[CrossedCompareReport]:
    """Certify dim Ext_B**n(E, M) = dim (Ext_A**n(E, M))**Q for n <= n_max.

    Returns one report per module M in ``modules``.  The base A must be
    ``exterior_algebra(rank)``, and each sigma_q must map the span V of the
    generators into itself; E is the line on which A acts through its
    augmentation and Q trivially.  The two sides are independent routes:
    the left side resolves E over the whole crossed product B = A # Q by
    ``free_resolution``; the right side reads Ext over A off the Koszul
    complex S(V*) (x) M, on which q acts by Sym(sigma_q**(-1) on V) (x) U_q,
    that is p -> p o q**(-1) on polynomials, and takes joint invariants.

    E is resolved once per call, over B.  For each module the Koszul
    complex and its operators are built once, through degree n_max + 1,
    and every degree is read from them.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    A = cp.base
    Q = cp.group
    rank = A.dim.bit_length() - 1
    if not _same_algebra(A, AlgebraPresentation.exterior_algebra(rank)):
        raise ValueError("the base algebra is not an exterior algebra")
    eps_B = [Fraction(c) for _ in range(Q.order) for c in A.augmentation_values()]
    E_B = ModulePresentation.one_dimensional(cp.algebra, eps_B)
    res_B = free_resolution(cp.algebra, E_B, n_max + 1)
    reports = []
    for M_B in modules:
        lhs = ext_dims(cp.algebra, E_B, M_B, n_max, res=res_B)
        cochain, operators = _koszul_side(cp, M_B, n_max + 1)
        base_dims = []
        inv_dims = []
        for n in range(n_max + 1):
            mats, h = ext_action_matrices(cochain, operators, n)
            base_dims.append(h)
            # with no generators (trivial Q) every class is invariant
            inv_dims.append(len(invariants(mats)) if h and mats else h)
        reports.append(
            CrossedCompareReport(
                lhs_dims=tuple(lhs),
                base_ext_dims=tuple(base_dims),
                invariant_dims=tuple(inv_dims),
                ok=lhs == inv_dims,
            )
        )
    return reports
