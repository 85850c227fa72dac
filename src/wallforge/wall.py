"""Wall-style assembly of a total complex from columnwise resolutions.

Given a bounded complex of modules over a finite-dimensional algebra,
together with a free resolution of each term, the builder constructs
connecting maps

    d(k): X[q, j] -> X[q - k, j + k - 1],    0 <= k <= q,

one anti-diagonal at a time, so that for every spot the composites
sum_h d(k - h) d(h) vanish, the summed total differential squares to
zero, and the total complex has the same homology as the base complex.
All arithmetic is exact and every claimed identity can be re-checked
from the stored matrices alone.

The base complex is row j = -1 of the same bicomplex: X[q, -1] is the
degree-q base module, d(0) out of X[q, 0] is the column's augmentation,
and d(1) out of X[q, -1] is minus the base differential.  With that sign
the augmentation squares are the (j = 0, k = 1) case of the identities,
so one lift loop builds every connecting map and one identity loop
re-checks them, the base's own d o d included.  Each lift leaves a free
spot, so one exact solve on the obstruction's generator columns fixes it.
One builder sums the spots of rows j >= low: with low = 0 it gives the
total complex, and with low = -1 the mapping cone of the augmentation onto
the base, whose exactness certifies that the two have the same homology.
One pass over the spots (q, j >= -1) validates the builder's input, and
``wall_from_json`` re-checks every identity of a stored assembly.  A free
spot is its rank: its dimension and actions are those of B**rank, derived
by ``WallAssembly.actions`` rather than stored, and ``wall_from_json``
refuses a dump whose stored ones differ.
A canonical cut of the columns at a bound restricts the assembly instead
of lifting again: each map between rows at most the bound is read through
the quotient's projection and inclusion at a cut top.  The lifts are the
same, since d(0) out of a complete top is injective.  Every spot of an
uncut assembly is free, so its total complex is a free resolution of H_0 of
the base through degree min_q (q + L_q) - 1, L_q the length of column q,
when the base is exact in positive degrees; ``ext_via_wall`` reads Ext off
it.  A cut top is not free, so a cut assembly is not such a resolution.

Column lengths need to leave room for the maps to land: the receiving
column q - k must extend to degree j + k - 1 whenever X[q, j] is
nonzero.  Giving the degree-q column length d + (q_max - q) always
suffices; shorter columns are accepted as long as the obstructions
happen to vanish where there is no room.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from wallforge.complexes import (
    CertificateError,
    ChainComplex,
    homology_dims,
    truncate_canonical,
)
from wallforge.groupalg import (
    AlgebraPresentation,
    FreeResolution,
    ModulePresentation,
    _free_action_matrices,
    _free_generators,
    _free_map,
    _left_mult_matrices,
    _same_algebra,
    ext_dims,
)
from wallforge.linalg import (
    RationalMatrix,
    rank_kernel_image,
    solve_matrix,
    unvec,
)


# ---------------------------------------------------------------------------
# columns and the assembled object
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WallColumn:
    """One column of the assembly: a finite augmented resolution.

    A free spot is its rank: ``free_ranks[j]`` is the rank of the degree-j
    term, whose dimension and actions the algebra fixes
    (``WallAssembly.actions``).  Only a cut top, the top of a canonical
    truncation, is not free: its rank is None and ``top_actions`` holds its
    action matrices.  ``diffs[j-1]`` is the column map into degree j-1 and
    ``augmentation`` the map from degree 0 onto the resolved module; a
    spot's dimension is the width of the map out of it.
    ``WallAssembly.map`` reads them as d(0).
    """

    free_ranks: tuple
    diffs: tuple
    augmentation: RationalMatrix
    top_actions: tuple = ()

    @property
    def length(self) -> int:
        return len(self.free_ranks) - 1

    def dim(self, j: int) -> int:
        if not 0 <= j <= self.length:
            return 0
        return (self.diffs[j - 1] if j else self.augmentation).ncols

    def complex(self) -> ChainComplex:
        dims = {j: self.dim(j) for j in range(self.length + 1)}
        diffs = {j: self.diffs[j - 1] for j in range(1, self.length + 1)}
        return ChainComplex(dims, diffs)


class WallAssembly:
    """A completed assembly: base data, columns, and the connecting maps.

    ``connecting[(k, q, j)]`` holds d(k) out of X[q, j] for k >= 1 and
    j >= 0.  The k = 0 maps are the column differentials and
    augmentations, and row j = -1 holds the base complex.  ``map``
    zero-fills anything out of range so bookkeeping loops stay uniform.
    """

    __slots__ = ("algebra", "base_modules", "base_maps", "columns", "connecting", "_free_actions")

    def __init__(
        self,
        algebra: AlgebraPresentation,
        base_modules: Sequence[ModulePresentation],
        base_maps: Sequence[RationalMatrix],
        columns: Sequence[WallColumn],
        connecting: Dict[Tuple[int, int, int], RationalMatrix],
    ):
        if len(base_modules) != len(columns):
            raise ValueError("one column per base degree")
        if len(base_maps) != max(len(columns) - 1, 0):
            raise ValueError(f"expected {len(columns) - 1} base maps, got {len(base_maps)}")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "base_modules", tuple(base_modules))
        object.__setattr__(self, "base_maps", tuple(base_maps))
        object.__setattr__(self, "columns", tuple(columns))
        object.__setattr__(self, "connecting", dict(connecting))
        object.__setattr__(self, "_free_actions", {})

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("WallAssembly is immutable")

    @property
    def q_max(self) -> int:
        return len(self.columns) - 1

    def column(self, q: int) -> WallColumn:
        return self.columns[q]

    def spot_dim(self, q: int, j: int) -> int:
        """dim X[q, j]; row j = -1 is the degree-q base module."""
        if q < 0 or q > self.q_max:
            return 0
        if j == -1:
            return self.base_modules[q].dim
        return self.columns[q].dim(j)

    def actions(self, q: int, j: int) -> tuple:
        """The action matrices of X[q, j]: the base module's in row -1,
        ``top_actions`` at a cut top, and B's left multiplication on B**rank,
        block-diagonal, at a free spot, built once per rank."""
        if j == -1:
            return self.base_modules[q].actions
        col = self.columns[q]
        rank = col.free_ranks[j]
        if rank is None:
            return col.top_actions
        if rank not in self._free_actions:
            left = _left_mult_matrices(self.algebra)
            self._free_actions[rank] = tuple(_free_action_matrices(left, rank))
        return self._free_actions[rank]

    def map(self, k: int, q: int, j: int) -> RationalMatrix:
        """d(k) out of X[q, j]; zero-shaped when absent or out of range.

        d(0) out of X[q, j] is the column differential for j >= 1 and the
        augmentation onto the base module for j = 0.  d(1) out of X[q, -1]
        is minus the base differential, the sign that makes the
        augmentation square aug d(1) = del aug one more identity.
        """
        if 0 <= q <= self.q_max:
            if k == 0 and 0 <= j <= self.columns[q].length:
                col = self.columns[q]
                return col.diffs[j - 1] if j else col.augmentation
            if k == 1 and j == -1 and q >= 1:
                return -self.base_maps[q - 1]
        M = self.connecting.get((k, q, j))
        if M is not None:
            return M
        return RationalMatrix.zeros(self.spot_dim(q - k, j + k - 1), self.spot_dim(q, j))

    def top_degree(self) -> int:
        return max(q + col.length for q, col in enumerate(self.columns))

    def __repr__(self) -> str:
        lengths = tuple(col.length for col in self.columns)
        return (
            f"WallAssembly(q_max={self.q_max}, column_lengths={lengths}, "
            f"connecting_maps={len(self.connecting)})"
        )

    def to_json(self) -> dict:
        entries = [
            {"k": k, "q": q, "j": j, "matrix": M.to_json()}
            for (k, q, j), M in sorted(self.connecting.items())
        ]
        return {
            "kind": "wall-assembly",
            "algebra": self.algebra.to_json(),
            "base_modules": [m.to_json() for m in self.base_modules],
            "base_maps": [m.to_json() for m in self.base_maps],
            "columns": [
                {
                    "dims": [col.dim(j) for j in range(col.length + 1)],
                    "free_ranks": list(col.free_ranks),
                    "actions": [
                        [m.to_json() for m in self.actions(q, j)] for j in range(col.length + 1)
                    ],
                    "diffs": [m.to_json() for m in col.diffs],
                    "augmentation": col.augmentation.to_json(),
                }
                for q, col in enumerate(self.columns)
            ],
            "connecting": entries,
            # a fixed field of the wallforge/1 format: the scan order of
            # every generator pick and lift, which is always first to last
            "order": "forward",
        }


def wall_from_json(data: dict) -> WallAssembly:
    """Rebuild an assembly from its dump; module axioms and every identity
    are re-checked, and a failed identity raises ``CertificateError``.

    Only a column's top may be cut, and its stored actions must present a
    module.  Every spot's stored dimension must be the width of the map out
    of it, and a free spot's stored actions those of its rank, compared as
    the JSON that ``to_json`` writes, so a non-canonical entry is refused
    too; otherwise a ``ValueError`` names the spot.
    """
    algebra = AlgebraPresentation.from_json(data["algebra"])

    def module(actions) -> ModulePresentation:
        return ModulePresentation(algebra, [RationalMatrix.from_json(m) for m in actions])

    base_modules = [module(entry["actions"]) for entry in data["base_modules"]]
    base_maps = [RationalMatrix.from_json(m) for m in data["base_maps"]]
    columns = []
    for c in data["columns"]:
        ranks = tuple(None if r is None else int(r) for r in c["free_ranks"])
        top_actions = module(c["actions"][-1]).actions if ranks[-1] is None else ()
        diffs = tuple(RationalMatrix.from_json(m) for m in c["diffs"])
        aug = RationalMatrix.from_json(c["augmentation"])
        columns.append(WallColumn(ranks, diffs, aug, top_actions))
    connecting = {
        (int(e["k"]), int(e["q"]), int(e["j"])): RationalMatrix.from_json(e["matrix"])
        for e in data["connecting"]
    }
    W = WallAssembly(algebra, base_modules, base_maps, columns, connecting)
    # the actions each spot must store, as JSON: once per free rank, and
    # once per cut top
    wanted: dict = {}
    for q, (col, c) in enumerate(zip(columns, data["columns"])):
        if not len(c["dims"]) == len(c["actions"]) == col.length + 1:
            raise ValueError(f"column {q} stores spots other than its {col.length + 1} ranks")
        for j, (dim, stored) in enumerate(zip(c["dims"], c["actions"])):
            rank = col.free_ranks[j]
            if rank is None and j < col.length:
                raise ValueError(f"column {q} degree {j} is cut below the top")
            acts = W.actions(q, j)
            key = (q, j) if rank is None else rank
            if key not in wanted:
                wanted[key] = [m.to_json() for m in acts]
            if not int(dim) == acts[0].nrows == col.dim(j) or stored != wanted[key]:
                raise ValueError(
                    f"column {q} degree {j} stores a dimension or actions that its rank "
                    "and the map out of it do not give"
                )
    failures = verify_induction_identities(W)
    if failures:
        raise CertificateError("; ".join(failures))
    return W


# ---------------------------------------------------------------------------
# hom bases between spots
# ---------------------------------------------------------------------------


def module_hom_basis(
    A: AlgebraPresentation,
    src_actions: Sequence[RationalMatrix],
    src_dim: int,
    tgt_actions: Sequence[RationalMatrix],
    tgt_dim: int,
) -> List[RationalMatrix]:
    """Basis of the module-linear maps between two presented modules.

    Solves the commutation constraints X rho_M(b) = rho_N(b) X for every
    algebra basis element b, as one kernel computation on the flattened
    unknown.  No route of the package calls it: it is the Hom out of a cut
    top in the tests' reference lift loop, and a name the bench tracer wraps.
    """
    if src_dim == 0 or tgt_dim == 0:
        return []
    ident_t = RationalMatrix.identity(tgt_dim)
    ident_s = RationalMatrix.identity(src_dim)
    blocks = []
    for i in range(A.dim):
        blocks.append(
            ident_t.kron(src_actions[i].transpose()) - tgt_actions[i].kron(ident_s)
        )
    _, kernel, _ = rank_kernel_image(RationalMatrix.vstack(blocks))
    return [unvec(v, (tgt_dim, src_dim)) for v in kernel]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _validate_spots(W: WallAssembly) -> None:
    """One pass over the spots (q, j >= -1): a ``ValueError`` names the first
    free spot whose rank disagrees with its width, base module over another
    algebra, map out of a spot within its column (d(0), or d(1) = -del in
    row -1) of the wrong shape or not module-linear, base d o d, or inexact
    column.

    Module-linearity is checked on the algebra's generators only.  That is
    sound only because both ends of every map are known modules: a free
    spot's actions are B's left multiplication, a base module and a stored
    cut top are ``ModulePresentation``s, and ``truncated_wall`` gives a cut
    top the quotient module's actions.  The a with d.a = a.d then form a
    subalgebra.
    """
    algebra = W.algebra
    generators = algebra.generators()
    for q, col in enumerate(W.columns):
        if not _same_algebra(W.base_modules[q].algebra, algebra):
            raise ValueError(f"base module {q} lives over a different algebra")
        for j in range(-1 if q else 0, col.length + 1):
            rank = col.free_ranks[j] if j >= 0 else None
            if rank is not None and rank * algebra.dim != col.dim(j):
                raise ValueError(f"column {q} degree {j} rank disagrees with its dimension")
            k = int(j == -1)
            kind = f"differential {j}" if j > 0 else "augmentation"
            name = f"base map {q}" if k else f"column {q} {kind}"
            d = W.map(k, q, j)
            want = (W.spot_dim(q - k, j + k - 1), W.spot_dim(q, j))
            if d.shape != want:
                raise ValueError(f"{name} has shape {d.shape}, expected {want}")
            acts, tgt_acts = W.actions(q, j), W.actions(q - k, j + k - 1)
            for i in generators:
                if d @ acts[i] != tgt_acts[i] @ d:
                    raise ValueError(f"{name} is not module-linear (basis element {i})")
        if q >= 2 and not (W.base_maps[q - 2] @ W.base_maps[q - 1]).is_zero():
            raise ValueError(f"base maps do not compose to zero at degree {q}")
        aug = ChainComplex(
            {j: W.spot_dim(q, j) for j in range(-1, col.length + 1)},
            {j: W.map(0, q, j) for j in range(col.length + 1)},
        )
        hom = homology_dims(aug)
        for n in range(-1, col.length):
            if hom.get(n, 0):
                raise ValueError(f"column {q} fails exactness at degree {n}")


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _column_from_resolution(res: FreeResolution) -> WallColumn:
    diffs = tuple(res.complex.diff(j) for j in range(1, len(res.ranks)))
    return WallColumn(free_ranks=tuple(res.ranks), diffs=diffs, augmentation=res.augmentation)


def _assemble(
    algebra: AlgebraPresentation,
    base_modules: Sequence[ModulePresentation],
    base_maps: Sequence[RationalMatrix],
    columns: Sequence[WallColumn],
) -> WallAssembly:
    """Lift every connecting map over free columns; see ``build_wall``."""
    W = WallAssembly(algebra, base_modules, base_maps, columns, {})
    _validate_spots(W)
    q_max = W.q_max
    # filled in place, in increasing total degree: every map an obstruction
    # needs is stored before it is read through ``W.map``
    connecting = W.connecting
    for n in range(1, W.top_degree() + 1):
        for k in range(1, min(n, q_max) + 1):
            for q in range(k, min(n, q_max) + 1):
                j = n - q
                if j > columns[q].length:
                    continue
                rank = columns[q].free_ranks[j]
                if rank == 0:
                    continue
                gens = _free_generators(algebra, rank)
                obstruction = RationalMatrix.zeros(W.spot_dim(q - k, j + k - 2), rank)
                for h in range(k):
                    left = W.map(k - h, q - h, j + h - 1)
                    right = W.map(h, q, j)
                    if not (left.is_zero() or right.is_zero()):
                        obstruction = obstruction + left @ (right @ gens)
                if W.spot_dim(q - k, j + k - 1) == 0:
                    if not obstruction.is_zero():
                        raise CertificateError(
                            f"image containment fails at (q={q}, j={j}, k={k}): the "
                            f"obstruction is nonzero but column {q - k} has no degree "
                            f"{j + k - 1} term to receive it; extend the lower columns"
                        )
                    continue
                images = solve_matrix(W.map(0, q - k, j + k - 1), -obstruction)
                if images is None:
                    raise CertificateError(
                        f"image containment fails at (q={q}, j={j}, k={k}): the "
                        "obstruction has no module-linear preimage under d(0)"
                    )
                if not images.is_zero():
                    connecting[(k, q, j)] = _free_map(W.actions(q - k, j + k - 1), images)

    bad = verify_induction_identities(W)
    if bad:
        raise CertificateError("construction self-check failed: " + "; ".join(bad))
    return W


def build_wall(
    resolutions: Sequence[FreeResolution],
    base_maps: Sequence[RationalMatrix],
) -> WallAssembly:
    """Assemble the connecting maps over a base complex.

    ``resolutions[q]`` resolves the degree-q base module (which it carries
    as ``.module``) and ``base_maps[q-1]`` is the base differential from
    degree q into degree q-1, a module-linear matrix.  The base sits in
    row j = -1, where d(1) is minus the base differential, so the lift of
    the base differential through the augmentations is the (j = 0, k = 1)
    case of the one rule below.  Maps are produced in increasing total
    degree, then increasing k: at every spot (q, j >= 0) the obstruction
    sum_{h<k} d(k - h) d(h) must be minus d(0) of a module-linear map out of
    the free spot.  Both sides are module-linear, so one ``solve_matrix``
    call on the spot's generator columns gives the generator images, free
    variables set to zero: the coefficients, in order, of the constrained
    solve over the basis of module maps out of the spot.  Any other
    module-linear choice would give an isomorphic total complex; this one
    is fixed so that dumps are reproducible.
    """
    if not resolutions:
        raise ValueError("need at least one resolution")
    algebra = resolutions[0].algebra
    for res in resolutions:
        if not _same_algebra(res.algebra, algebra):
            raise ValueError("resolutions live over different algebras")
    base_modules = tuple(res.module for res in resolutions)
    columns = tuple(_column_from_resolution(res) for res in resolutions)
    return _assemble(algebra, base_modules, tuple(base_maps), columns)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def verify_induction_identities(W: WallAssembly) -> List[str]:
    """Brute-force re-check of every composite identity; empty means good.

    For each spot (q, j), base row j = -1 included, and each 0 <= k <= q
    the sum of d(k-h) after d(h) is recomputed from the stored matrices and
    compared with zero, without trusting anything the builder did.  This
    covers d o d in every column and in the base (k = 0 and (j, k) =
    (-1, 2)), the augmentation squares ((0, 1)) and the vanishing of the
    augmentation on column boundaries ((1, 0)).
    """
    msgs = []
    for q in range(W.q_max + 1):
        for j in range(-1, W.column(q).length + 1):
            for k in range(q + 1):
                total = RationalMatrix.zeros(W.spot_dim(q - k, j + k - 2), W.spot_dim(q, j))
                for h in range(k + 1):
                    left = W.map(k - h, q - h, j + h - 1)
                    right = W.map(h, q, j)
                    if not (left.is_zero() or right.is_zero()):
                        total = total + left @ right
                if not total.is_zero():
                    msgs.append(f"identity fails at (q={q}, j={j}, k={k})")
    return msgs


def base_complex(W: WallAssembly) -> ChainComplex:
    dims = {q: mod.dim for q, mod in enumerate(W.base_modules)}
    diffs = {q: W.base_maps[q - 1] for q in range(1, W.q_max + 1)}
    return ChainComplex(dims, diffs)


def _spot_offsets(W: WallAssembly, n: int, low: int) -> List[Tuple[int, int, int]]:
    """(q, j, column offset) for the spots of rows j >= low with q + j - low = n,
    q ascending."""
    out = []
    offset = 0
    for q in range(W.q_max + 1):
        j = n + low - q
        if low <= j <= W.column(q).length:
            out.append((q, j, offset))
            offset += W.spot_dim(q, j)
    return out


def _total(W: WallAssembly, low: int) -> ChainComplex:
    """The direct sum of the spots in rows j >= low, degree n holding those
    with q + j - low = n, and the sum of every d(k) as differential; validated.

    Rows j >= 0 give the total complex.  Rows j >= -1 give the mapping cone
    of the augmentation, differential [[d_T, 0], [eps, -del]] on T[n-1] (+)
    S[n]: minus the cone's differential in ``complexes``, so the same
    homology.  Its d o d = 0 at a spot is the identity sum_h d(k-h) d(h) = 0
    there, so the chain-map squares of the augmentation are blocks of this
    one validation.
    """
    spots = [_spot_offsets(W, n, low) for n in range(W.top_degree() - low + 1)]
    dims = {n: sum(W.spot_dim(q, j) for q, j, _ in s) for n, s in enumerate(spots)}
    diffs = {}
    for n in range(1, len(spots)):
        if dims[n] == 0 or dims[n - 1] == 0:
            continue
        tgt_offsets = {(q, j): off for q, j, off in spots[n - 1]}
        blocks = []
        for q, j, col_off in spots[n]:
            for k in range(q + 1):
                row_off = tgt_offsets.get((q - k, j + k - 1))
                if row_off is None:
                    continue
                M = W.map(k, q, j)
                if not M.is_zero():
                    blocks.append((row_off, col_off, M))
        diffs[n] = RationalMatrix.from_blocks(dims[n - 1], dims[n], blocks)
    T = ChainComplex(dims, diffs)
    T.require_valid()
    return T


def total_complex(W: WallAssembly) -> ChainComplex:
    """The direct sum over q + j = n, j >= 0, with the summed differential."""
    return _total(W, 0)


@dataclass(frozen=True)
class WallHomologyCertificate:
    """Cone and homology bookkeeping for the augmentation comparison."""

    cone_homology: Dict[int, int]
    total_homology: Dict[int, int]
    base_homology: Dict[int, int]

    @property
    def is_quasi_iso(self) -> bool:
        return all(v == 0 for v in self.cone_homology.values())

    @property
    def betti_match(self) -> bool:
        left = {n: v for n, v in self.total_homology.items() if v}
        right = {n: v for n, v in self.base_homology.items() if v}
        return left == right


def augmentation_quasi_iso(W: WallAssembly) -> Tuple[ChainComplex, WallHomologyCertificate]:
    """The total complex, with its collapse onto the base certified a
    quasi-isomorphism.

    The collapse is the augmentation on every (q, 0) spot and zero
    elsewhere.  Its mapping cone is the total complex of rows j >= -1
    (``_total(W, -1)``), whose validation checks that the collapse is a
    chain map; the certificate records the cone's homology, which must
    vanish, next to the homology of the total and the base complex.

    The homology identity needs complete columns: a finite column whose
    top map still has a kernel is only an initial segment of a resolution,
    and that kernel pollutes the top total degree unless the base happens
    to cancel it.  Truncate first (``truncated_wall``) when the columns
    were cut off raw.
    """
    T = total_complex(W)
    S = base_complex(W)
    cert = WallHomologyCertificate(
        cone_homology=homology_dims(_total(W, -1)),
        total_homology=homology_dims(T),
        base_homology=homology_dims(S),
    )
    if not cert.is_quasi_iso:
        raise CertificateError(
            "mapping cone of the augmentation is not exact: "
            f"cone homology {cert.cone_homology}, total {cert.total_homology}, "
            f"base {cert.base_homology}"
        )
    return T, cert


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------


def truncated_wall(W: WallAssembly, d_bound: int) -> WallAssembly:
    """Cut every column at d_bound canonically and restrict W to the cut.

    A column longer than the bound is replaced by its canonical truncation,
    whose top degree C_d / im d_{d+1} is a quotient module presented on a
    subset of the original coordinates, with projection P and inclusion I.
    Every map of W between rows at most d_bound is kept, followed by P when
    it lands in a cut top and preceded by I when it leaves one; maps into
    higher rows, and connecting maps that restrict to zero, are dropped.
    This is what the lift loop would build on the cut columns: below the
    top row each lift sees the inputs it saw in W, and d(0) out of every
    top is injective, so each lift into the top row has exactly one
    solution, the restricted map.  So every column must be complete at the
    bound: no homology above it, and an injective top map (the top
    differential, or the augmentation at degree 0); otherwise a
    ``ValueError`` names the column.  The total complex of the result
    vanishes above q_max + d_bound.
    """
    if d_bound < 0:
        raise ValueError("truncation bound must be nonnegative")
    # the TruncationData of each top spot (q, d_bound) cut to a quotient
    tops = {}

    def cut(M: RationalMatrix, src: Tuple[int, int], tgt: Tuple[int, int]) -> RationalMatrix:
        if src in tops:
            M = M @ tops[src].inclusion
        if tgt in tops:
            M = tops[tgt].projection @ M
        return M

    columns = []
    for q, col in enumerate(W.columns):
        top = min(col.length, d_bound)
        if col.length > d_bound:
            C = col.complex()
            hom = homology_dims(C)
            for j in range(d_bound + 1, col.length):
                if hom.get(j, 0):
                    raise ValueError(
                        f"column {q} has homology in degree {j}, above the bound {d_bound}"
                    )
            _, data = truncate_canonical(C, d_bound)
            if data is not None:
                tops[(q, top)] = data
        d0 = [cut(W.map(0, q, j), (q, j), (q, j - 1)) for j in range(top + 1)]
        if d0[top].rank() < d0[top].ncols:
            if col.length > d_bound:
                raise ValueError(
                    f"column {q} has homology in degree {d_bound}, at the bound, "
                    "so its cut top map has a kernel"
                )
            raise ValueError(
                f"column {q} stops at degree {col.length}, within the bound {d_bound}, "
                "and its top map has a kernel; resolve it past the bound"
            )
        top_rank, top_actions = col.free_ranks[top], ()
        if (q, top) in tops:
            spot = (q, top)
            top_rank, top_actions = None, tuple(cut(a, spot, spot) for a in W.actions(*spot))
        columns.append(
            WallColumn(col.free_ranks[:top] + (top_rank,), tuple(d0[1:]), d0[0], top_actions)
        )
    if all(col.length <= d_bound for col in W.columns):
        return W
    connecting = {}
    for (k, q, j), M in W.connecting.items():
        if j + k - 1 <= d_bound:
            M = cut(M, (q, j), (q - k, j + k - 1))
            if not M.is_zero():
                connecting[(k, q, j)] = M
    Wt = WallAssembly(W.algebra, W.base_modules, W.base_maps, columns, connecting)
    _validate_spots(Wt)
    bad = verify_induction_identities(Wt)
    if bad:
        raise CertificateError("construction self-check failed: " + "; ".join(bad))
    return Wt


# ---------------------------------------------------------------------------
# Ext through the total complex
# ---------------------------------------------------------------------------


def ext_via_wall(W: WallAssembly, N: ModulePresentation, n_max: int) -> List[int]:
    """Ext^n(V, N) for n <= n_max, with the total complex T as the free
    resolution of V, the degree-0 homology of the base.

    Every spot of an uncut assembly is free and laid out generator-major, so
    T_n is B**R_n, R_n the sum of the free ranks of its spots in
    ``_spot_offsets`` order, and d_T is module-linear.  The augmentation is
    eps out of spot (0, 0), followed by the projection onto V when V is a
    quotient of the degree-0 base module.  ``ext_dims`` reads Ext off this
    resolution, and a direct resolution of V cross-checks it; a mismatch
    raises ``CertificateError``.

    T resolves V through degree min_q (q + L_q) - 1, L_q the length of
    column q, when the base is exact in positive degrees: past that edge a
    column's top kernel, or the base's homology, lands in T.  An n_max at or
    past the first degree where augmented T has homology is a ``ValueError``
    that names the degree.  A cut top is not free, so an assembly from
    ``truncated_wall`` is refused: pass the assembly from before the cut.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if not _same_algebra(N.algebra, W.algebra):
        raise ValueError("coefficient module lives over a different algebra")
    for q, col in enumerate(W.columns):
        if None in col.free_ranks:
            raise ValueError(
                f"column {q} has a cut top, which is not free; pass the assembly "
                "from before truncated_wall"
            )
    V = W.base_modules[0]
    augmentation = W.map(0, 0, 0)
    _, data = truncate_canonical(base_complex(W), 0)
    if data is not None:
        V = ModulePresentation(
            W.algebra, [data.projection @ act @ data.inclusion for act in V.actions]
        )
        augmentation = data.projection @ augmentation
    ranks = tuple(
        sum(W.column(q).free_ranks[j] for q, j, _ in _spot_offsets(W, n, 0))
        for n in range(W.top_degree() + 1)
    )
    res = FreeResolution(W.algebra, V, total_complex(W), ranks, augmentation)
    hom = homology_dims(res.augmented())
    for n in range(-1, n_max + 1):
        if hom.get(n, 0):
            raise ValueError(
                f"the total complex is no resolution through n_max {n_max}: augmented, "
                f"it has homology {hom[n]} in degree {n}"
            )
    dims = ext_dims(W.algebra, V, N, n_max, res=res)
    direct = ext_dims(W.algebra, V, N, n_max)
    if dims != direct:
        raise CertificateError(
            f"total-complex Ext dims {dims} disagree with the direct resolution {direct}"
        )
    return dims
