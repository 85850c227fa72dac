"""Shared constructions for the wall tests: small base complexes over group
algebras whose differentials are built from elementary blocks, the
randomized generator the acceptance run draws from, a two-column wall
over Lambda(V) x| S3, the lift loop by the basis route that the
builder's generator-image solve is tested against, and a stored free spot
re-coordinatized so that only its actions betray it."""

from __future__ import annotations

from fractions import Fraction

from wallforge.cli_groupalg import _exterior_extension, _ext_group_action
from wallforge.complexes import CertificateError
from wallforge.groupalg import (
    AlgebraPresentation,
    FiniteGroupTable,
    ModulePresentation,
    _free_source_hom_basis,
    averaging_idempotent,
    crossed_module,
    crossed_product,
    free_resolution,
    module_direct_sum,
)
from wallforge.linalg import RationalMatrix, rank_kernel_image, solve_in_subspace, solve_matrix
from wallforge.wall import WallAssembly, build_wall, module_hom_basis


def regular_sign_values(Q: FiniteGroupTable) -> list:
    """The parity character of the regular permutation action.

    Left multiplication by g permutes Q in |Q|/ord(g) cycles of length
    ord(g); the character value is the sign of that permutation.  For the
    cyclic group of odd order this is trivial, for Z/2 and the symmetric
    group on three letters it is the usual sign.
    """
    values = []
    for g in range(Q.order):
        order = 1
        x = g
        while x != Q.identity:
            x = Q.mul(x, g)
            order += 1
        parity = (Q.order // order) * (order - 1)
        values.append(-1 if parity % 2 else 1)
    return values


def augmentation_ideal(A: AlgebraPresentation):
    """The kernel of the counit as a module, with its inclusion matrix."""
    eps = A.augmentation_values()
    if eps is None:
        raise ValueError("algebra has no augmentation")
    row = RationalMatrix([list(eps)], ncols=A.dim)
    _, kernel, _ = rank_kernel_image(row)
    incl = RationalMatrix.from_columns(kernel, nrows=A.dim)
    actions = []
    for i in range(A.dim):
        moved = A.left_mult_matrix(A.basis_vector(i)) @ incl
        coeffs = solve_matrix(incl, moved)
        if coeffs is None:
            raise ValueError("ideal is not closed under the action")
        actions.append(coeffs)
    return ModulePresentation(A, actions), incl


def _nonzero_scalar(rng) -> Fraction:
    return Fraction(rng.randint(1, 5), rng.randint(1, 3)) * rng.choice([1, -1])


def _merge_chains(A, chains, top):
    """Direct-sum a list of chains into base modules and base maps.

    A chain is a dict with ``mods`` (degree -> module) and ``maps``
    (degree q -> matrix from its degree-q module into its degree q-1
    module).  Block order at every degree follows the chain list, so the
    stacked matrices line up with the module direct sums.
    """
    mods = []
    for q in range(top + 1):
        parts = [c["mods"][q] for c in chains if q in c["mods"]]
        if not parts:
            raise ValueError(f"no chain covers base degree {q}")
        mods.append(parts[0] if len(parts) == 1 else module_direct_sum(parts))
    maps = []
    for q in range(1, top + 1):
        tgt = [c for c in chains if q - 1 in c["mods"]]
        src = [c for c in chains if q in c["mods"]]
        grid = []
        for ct in tgt:
            row = []
            for cs in src:
                if ct is cs and q in cs["maps"]:
                    row.append(cs["maps"][q])
                else:
                    row.append(
                        RationalMatrix.zeros(ct["mods"][q - 1].dim, cs["mods"][q].dim)
                    )
            grid.append(RationalMatrix.hstack(row))
        maps.append(RationalMatrix.vstack(grid))
    return mods, maps


def random_wall_case(rng, Q: FiniteGroupTable, max_len: int = 4, max_extra: int = 2):
    """A random staircase of resolutions over E[Q] with assembled base maps.

    Returns (resolutions, base_maps, d_bound).  The base differentials are
    direct sums of elementary blocks (identity pairs, augmentations, ideal
    inclusions, periodic idempotent chains) with random nonzero scalars, so
    they compose to zero by construction; column lengths step down weakly
    and leave one degree of headroom for second connecting maps.
    """
    A = AlgebraPresentation.group_algebra(Q)
    reg = ModulePresentation.regular(A)
    triv = ModulePresentation.one_dimensional(A, [1] * Q.order)
    sgn = ModulePresentation.one_dimensional(A, regular_sign_values(Q))
    ideal, incl = augmentation_ideal(A)
    e = averaging_idempotent(Q)
    one_minus_e = tuple(
        (Fraction(1) if k == Q.identity else Fraction(0)) - c for k, c in enumerate(e)
    )
    top = rng.choice([1, 2, 2])

    def idpair(q):
        m = rng.choice([reg, triv, sgn])
        return {
            "mods": {q: m, q - 1: m},
            "maps": {q: RationalMatrix.identity(m.dim).scale(_nonzero_scalar(rng))},
        }

    def aug_block(q):
        return {
            "mods": {q: reg, q - 1: triv},
            "maps": {q: RationalMatrix([[1] * Q.order]).scale(_nonzero_scalar(rng))},
        }

    def ideal_block(q):
        return {
            "mods": {q: ideal, q - 1: reg},
            "maps": {q: incl.scale(_nonzero_scalar(rng))},
        }

    def const_block(q):
        m = rng.choice([reg, triv, sgn, ideal])
        return {"mods": {q: m}, "maps": {}}

    def periodic_block():
        # multiplication by e then by 1-e (or the other way around)
        first, second = rng.choice([(e, one_minus_e), (one_minus_e, e)])
        return {
            "mods": {2: reg, 1: reg, 0: reg},
            "maps": {
                2: A.right_mult_matrix(first).scale(_nonzero_scalar(rng)),
                1: A.right_mult_matrix(second).scale(_nonzero_scalar(rng)),
            },
        }

    def two_step(q):
        return rng.choice([idpair, aug_block, ideal_block])(q)

    chains = []
    if top == 1:
        chains.append(two_step(1))
    else:
        # one full-span chain keeps every degree nonzero
        if rng.random() < 0.5:
            chains.append(periodic_block())
        else:
            chains.append(two_step(2))
            chains.append(two_step(1))
    for _ in range(rng.randint(0, max_extra)):
        kind = rng.random()
        if kind < 0.5:
            chains.append(two_step(rng.randint(1, top)))
        else:
            chains.append(const_block(rng.randint(0, top)))

    mods, maps = _merge_chains(A, chains, top)

    lengths = [rng.randint(2 if top >= 2 else 1, max_len)]
    for q in range(1, top + 1):
        hi = lengths[q - 1] if q < 2 else min(lengths[q - 1], lengths[0] - 1)
        lengths.append(rng.randint(1, max(1, hi)))
    resolutions = [free_resolution(A, m, lengths[q]) for q, m in enumerate(mods)]
    d_bound = min(lengths) - 1
    return resolutions, maps, d_bound


def build_random_wall(rng, Q: FiniteGroupTable, max_len: int = 4):
    resolutions, maps, d_bound = random_wall_case(rng, Q, max_len=max_len)
    return build_wall(resolutions, maps), d_bound


def exterior_s3_inputs(length: int):
    """The resolutions and base maps of a two-column wall over
    B = Lambda(V) x| S3, with V = Q**2 and S3 = GL2(F_2) acting as in
    ``ext-crossed --rank 2 --group S3``.

    The trivial line sits in degree 0 and the permutation module on the
    three lines of F_2**2 in degree 1, joined by the sum map [1 1 1];
    Lambda(V) acts on both through its augmentation.  Both columns are
    resolved to ``length``.
    """
    Q, mats = _ext_group_action("S3", 2)
    A = AlgebraPresentation.exterior_algebra(2)
    cp = crossed_product(A, Q, [_exterior_extension(2, m) for m in mats])
    # the generators s = [[0,1],[1,0]] and r = [[0,-1],[1,-1]] permute the
    # lines <(1,0)>, <(0,1)>, <(1,1)> mod 2 as (0 1) and (0 1 2)
    lines = Q.representation_from_generators({
        3: RationalMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
        1: RationalMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
    })

    def through_augmentation(n):
        return [RationalMatrix.diagonal([c] * n) for c in A.augmentation_values()]

    trivial = crossed_module(cp, through_augmentation(1), [RationalMatrix.identity(1)] * Q.order)
    permutation = crossed_module(cp, through_augmentation(3), lines)
    res = [free_resolution(cp.algebra, M, length) for M in (trivial, permutation)]
    return res, [RationalMatrix([[1, 1, 1]])]


def exterior_s3_wall(length: int):
    return build_wall(*exterior_s3_inputs(length))


def reference_assemble(algebra, base_modules, base_maps, columns) -> WallAssembly:
    """The lift loop by the basis route, on free or cut columns.

    Each connecting map is the constrained solve (``solve_in_subspace``)
    over a basis of all the module maps between its two spots: the
    (generator, target vector) basis out of a free spot, the commutation
    kernel (``module_hom_basis``) out of a cut top.  The spots, the order
    and the obstructions are the builder's, so on free columns this must
    agree with ``build_wall`` byte for byte.
    """
    W = WallAssembly(algebra, base_modules, base_maps, columns, {})
    for n in range(1, W.top_degree() + 1):
        for k in range(1, min(n, W.q_max) + 1):
            for q in range(k, min(n, W.q_max) + 1):
                j = n - q
                col = columns[q]
                if j > col.length or col.dim(j) == 0:
                    continue
                obstruction = RationalMatrix.zeros(W.spot_dim(q - k, j + k - 2), col.dim(j))
                for h in range(k):
                    obstruction = obstruction + W.map(k - h, q - h, j + h - 1) @ W.map(h, q, j)
                tgt_dim = W.spot_dim(q - k, j + k - 1)
                if tgt_dim == 0:
                    if not obstruction.is_zero():
                        raise CertificateError(f"no room for the lift at (q={q}, j={j}, k={k})")
                    continue
                tgt_acts = W.actions(q - k, j + k - 1)
                if col.free_ranks[j] is None:
                    src_acts = W.actions(q, j)
                    basis = module_hom_basis(algebra, src_acts, col.dim(j), tgt_acts, tgt_dim)
                else:
                    basis = _free_source_hom_basis(col.free_ranks[j], tgt_acts, tgt_dim)
                lift = solve_in_subspace(W.map(0, q - k, j + k - 1), -obstruction, basis)
                if lift is None:
                    raise CertificateError(f"no module-linear lift at (q={q}, j={j}, k={k})")
                if not lift.is_zero():
                    W.connecting[(k, q, j)] = lift
    return W


def recoordinatize_degree_0(column: dict) -> None:
    """Conjugate the degree-0 spot of a stored column, free of rank 1 over a
    two-dimensional algebra, by P = [[1, 1], [1, -1]], in place.

    Its actions, the augmentation and d_1 change consistently, so every
    identity of the assembly still holds, but the actions are no longer the
    algebra's left multiplication.
    """
    P = RationalMatrix([[1, 1], [1, -1]])
    P_inv = P.scale(Fraction(1, 2))  # P @ P = 2 I
    read = RationalMatrix.from_json
    column["actions"][0] = [(P_inv @ read(m) @ P).to_json() for m in column["actions"][0]]
    column["augmentation"] = (read(column["augmentation"]) @ P).to_json()
    column["diffs"][0] = (P_inv @ read(column["diffs"][0])).to_json()
