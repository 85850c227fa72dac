from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dense_oracle as dense
from wallforge.complexes import CertificateError, homology_dims, is_exact
from wallforge.groupalg import (
    AlgebraPresentation,
    FiniteGroupTable,
    ModulePresentation,
    _action_violations,
    _free_action_matrices,
    _free_generators,
    _free_images,
    _free_map,
    _left_mult_matrices,
    averaging_idempotent,
    crossed_ext_compare,
    crossed_module,
    crossed_product,
    ext_dims,
    ext_dims_via_hom_complex,
    free_resolution,
    invariants,
    module_direct_sum,
    standard_groups,
    two_periodic_resolution,
)
from wallforge.linalg import RationalMatrix


class TestGroupTables:
    def test_catalog_is_complete_through_order_8(self):
        groups = standard_groups(8)
        assert len(groups) == 14
        assert sorted(g.order for g in groups) == [1, 2, 3, 4, 4, 5, 6, 6, 7, 8, 8, 8, 8, 8]

    def test_catalog_entries_distinct(self):
        # the two order-6 groups differ by commutativity; order 8 splits
        # into three abelian plus dihedral and quaternion
        def is_abelian(G):
            return all(
                G.mul(a, b) == G.mul(b, a) for a in range(G.order) for b in range(G.order)
            )

        by_order = {}
        for G in standard_groups(8):
            by_order.setdefault(G.order, []).append(G)
        assert sorted(is_abelian(G) for G in by_order[6]) == [False, True]
        abelians8 = [G for G in by_order[8] if is_abelian(G)]
        assert len(abelians8) == 3
        # exponent separates the three abelian order-8 groups
        def exponent(G):
            e = 1
            for g in range(G.order):
                k, x = 1, g
                while x != G.identity:
                    x = G.mul(x, g)
                    k += 1
                e = e * k // __import__("math").gcd(e, k)
            return e

        assert sorted(exponent(G) for G in abelians8) == [2, 4, 8]
        nonab8 = [G for G in by_order[8] if not is_abelian(G)]
        # quaternion group has a unique element of order 2, dihedral has five
        def order2_count(G):
            return sum(1 for g in range(G.order) if g != G.identity and G.mul(g, g) == G.identity)

        assert sorted(order2_count(G) for G in nonab8) == [1, 5]

    def test_bad_tables_rejected(self):
        with pytest.raises(ValueError):
            FiniteGroupTable([[0, 1], [1, 1]])  # 1 has no inverse
        with pytest.raises(ValueError):
            FiniteGroupTable([[1, 0], [1, 0]])  # no identity

    def test_dihedral_relations(self):
        D4 = FiniteGroupTable.dihedral(4)
        assert D4.order == 8
        # some reflection s and the rotation r satisfy s r s = r^(-1)
        r, s = 1, 4
        assert D4.mul(D4.mul(s, r), s) == D4.inv(r)

    def test_max_order_cap(self):
        with pytest.raises(ValueError):
            standard_groups(9)


def test_averaging_idempotent_is_idempotent():
    for Q in (FiniteGroupTable.cyclic(3), FiniteGroupTable.symmetric3()):
        A = AlgebraPresentation.group_algebra(Q)
        e = averaging_idempotent(Q)
        assert A.multiply(e, e) == e
        # e is central
        for i in range(Q.order):
            b = A.basis_vector(i)
            assert A.multiply(b, e) == A.multiply(e, b)


def test_invariants_of_regular_representation():
    # the group algebra's left multiplications permute the group elements
    A = AlgebraPresentation.group_algebra(FiniteGroupTable.symmetric3())
    fixed = invariants(_left_mult_matrices(A))
    assert len(fixed) == 1
    v = fixed[0]
    assert all(x == v[0] for x in v)


class TestAlgebraPresentation:
    def test_group_algebra_multiplication(self):
        Q = FiniteGroupTable.cyclic(4)
        A = AlgebraPresentation.group_algebra(Q)
        g1 = A.basis_vector(1)
        g3 = A.basis_vector(3)
        assert A.multiply(g1, g3) == A.basis_vector(0)

    def test_exterior_algebra_relations(self):
        A = AlgebraPresentation.exterior_algebra(2)
        assert A.dim == 4
        x0 = A.basis_vector(1)
        x1 = A.basis_vector(2)
        assert A.multiply(x0, x0) == tuple([0] * 4)
        anti = tuple(-c for c in A.multiply(x1, x0))
        assert A.multiply(x0, x1) == anti
        assert A.multiply(x0, x1)[3] == 1  # lands on the top class

    def test_exterior_augmentation(self):
        A = AlgebraPresentation.exterior_algebra(2)
        eps = A.augmentation_values()
        assert eps is not None
        assert eps[0] == 1 and all(c == 0 for c in eps[1:])

    def test_invalid_structure_constants_rejected(self):
        # (b1 b1) b1 = b2 b1 = 0 but b1 (b1 b1) = b1 b2 = b0
        z = [0, 0, 0]
        products = [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
            [[0, 0, 1], z, z],
        ]
        with pytest.raises(ValueError):
            AlgebraPresentation(products, [1, 0, 0])


class TestModules:
    def test_one_dimensional_needs_algebra_hom(self):
        Q = FiniteGroupTable.cyclic(2)
        A = AlgebraPresentation.group_algebra(Q)
        triv = ModulePresentation.one_dimensional(A, [1, 1])
        sgn = ModulePresentation.one_dimensional(A, [1, -1])
        assert triv.dim == 1 and sgn.dim == 1
        with pytest.raises(ValueError):
            ModulePresentation.one_dimensional(A, [1, 2])

    def test_module_direct_sum_blocks(self):
        Q = FiniteGroupTable.cyclic(2)
        A = AlgebraPresentation.group_algebra(Q)
        triv = ModulePresentation.one_dimensional(A, [1, 1])
        sgn = ModulePresentation.one_dimensional(A, [1, -1])
        both = module_direct_sum([triv, sgn])
        assert both.dim == 2
        assert both.actions[1] == RationalMatrix.diagonal([1, -1])

    def test_regular_module_matches_left_multiplication(self):
        A = AlgebraPresentation.exterior_algebra(1)
        reg = ModulePresentation.regular(A)
        assert reg.actions[1] == A.left_mult_matrix(A.basis_vector(1))


class TestResolutions:
    def test_two_periodic_is_exact_in_positive_degrees(self):
        for Q in standard_groups(6):
            res = two_periodic_resolution(Q, 5)
            aug = res.augmented()
            hd = homology_dims(aug)
            for n in range(-1, 5):
                assert hd.get(n, 0) == 0, (Q, n, hd)

    def test_free_resolution_over_exterior_algebra(self):
        A = AlgebraPresentation.exterior_algebra(1)
        E = ModulePresentation.one_dimensional(A, A.augmentation_values())
        res = free_resolution(A, E, 4)
        assert res.ranks == (1, 1, 1, 1, 1)
        assert is_exact(res.augmented(), skip_degrees=[4])
        entries = res.algebra_entries(1)
        # the connecting entry is x (the augmentation ideal generator)
        assert entries == [[(Fraction(0), Fraction(1))]]

    def test_isomorphic_presentations_resolve_differently_with_the_same_ext(self):
        """The regular module of the exterior algebra on two generators, and
        its copy in reversed coordinates (actions P^-1 rho P, P the reversal).

        The greedy scan meets the unit first in one and the top form first in
        the other, so one resolution is free of rank one and the other is far
        from minimal; both are exact, and Ext does not see the difference.
        """
        A = AlgebraPresentation.exterior_algebra(2)
        E = ModulePresentation.one_dimensional(A, A.augmentation_values())
        reg = ModulePresentation.regular(A)
        P = RationalMatrix([[1 if i + j == 3 else 0 for j in range(4)] for i in range(4)])
        assert P @ P == RationalMatrix.identity(4)
        rev = ModulePresentation(A, [P @ m @ P for m in reg.actions])
        for M, ranks in ((reg, (1, 0, 0, 0)), (rev, (4, 8, 12, 16))):
            res = free_resolution(A, M, 3)
            assert res.ranks == ranks
            assert is_exact(res.augmented(), skip_degrees=[3])
            for N, want in ((E, [1, 0, 0]), (reg, [4, 0, 0])):
                assert ext_dims(A, M, N, 2) == want
                assert ext_dims_via_hom_complex(A, M, N, 2) == want

    def test_each_chosen_generator_is_reduced_once(self, monkeypatch):
        """The greedy scan adds a candidate to the span as it tests it, and
        does not reduce it again as its own image under the unit."""
        from wallforge import groupalg, linalg

        reduced = []
        counts = []
        reduce = linalg.SpanTracker._reduce
        greedy = groupalg._greedy_module_generators

        def recording(self, v):
            reduced.append(tuple(v))
            return reduce(self, v)

        def counted(act, candidates, ambient_dim):
            reduced.clear()
            chosen = greedy(act, candidates, ambient_dim)
            counts.extend(reduced.count(v) for v, _ in chosen)
            return chosen

        monkeypatch.setattr(linalg.SpanTracker, "_reduce", recording)
        monkeypatch.setattr(groupalg, "_greedy_module_generators", counted)
        A = AlgebraPresentation.group_algebra(FiniteGroupTable.symmetric3())
        res = free_resolution(A, ModulePresentation.one_dimensional(A, [1] * 6), 3)
        assert len(counts) == sum(res.ranks) > 1
        assert counts == [1] * len(counts)

    def test_zero_module_resolves_to_nothing(self):
        A = AlgebraPresentation.exterior_algebra(1)
        res = free_resolution(A, ModulePresentation.zero(A), 3)
        assert res.ranks[0] == 0


class TestExt:
    def test_group_algebra_is_semisimple(self):
        for Q in (FiniteGroupTable.cyclic(4), FiniteGroupTable.symmetric3()):
            A = AlgebraPresentation.group_algebra(Q)
            E = ModulePresentation.one_dimensional(A, [1] * Q.order)
            assert ext_dims(A, E, E, 4) == [1, 0, 0, 0, 0]

    def test_hom_and_sign_modules(self):
        Q = FiniteGroupTable.cyclic(2)
        A = AlgebraPresentation.group_algebra(Q)
        E = ModulePresentation.one_dimensional(A, [1, 1])
        sgn = ModulePresentation.one_dimensional(A, [1, -1])
        assert ext_dims(A, E, sgn, 3) == [0, 0, 0, 0]
        assert ext_dims(A, E, module_direct_sum([E, sgn]), 2) == [1, 0, 0]

    def test_exterior_algebra_ext_is_one_per_degree(self):
        A = AlgebraPresentation.exterior_algebra(1)
        E = ModulePresentation.one_dimensional(A, A.augmentation_values())
        assert ext_dims(A, E, E, 5) == [1, 1, 1, 1, 1, 1]

    def test_exterior_rank2_ext_grows_linearly(self):
        A = AlgebraPresentation.exterior_algebra(2)
        E = ModulePresentation.one_dimensional(A, A.augmentation_values())
        assert ext_dims(A, E, E, 3) == [1, 2, 3, 4]

    def test_prebuilt_resolution(self):
        A = AlgebraPresentation.exterior_algebra(2)
        E = ModulePresentation.one_dimensional(A, A.augmentation_values())
        res = free_resolution(A, E, 4)
        for target in (E, ModulePresentation.regular(A)):
            assert ext_dims(A, E, target, 3, res=res) == ext_dims(A, E, target, 3)
        with pytest.raises(ValueError, match="too short"):
            ext_dims(A, E, E, 4, res=res)

    def test_prebuilt_resolution_of_another_module_or_algebra_is_refused(self):
        # over Lambda(1), E's resolution would give Ext(E, E) = [1, 1, 1, 1]
        # in place of Ext(reg, E) = [1, 0, 0, 0]
        A = AlgebraPresentation.exterior_algebra(1)
        E = ModulePresentation.one_dimensional(A, A.augmentation_values())
        reg = ModulePresentation.regular(A)
        res = free_resolution(A, E, 4)
        assert ext_dims(A, reg, E, 3) == [1, 0, 0, 0]
        with pytest.raises(ValueError, match="resolves a different module"):
            ext_dims(A, reg, E, 3, res=res)
        # E[Z/2] has Lambda(1)'s dimension, but not its products
        EZ2 = AlgebraPresentation.group_algebra(FiniteGroupTable.cyclic(2))
        with pytest.raises(ValueError, match="lives over a different algebra"):
            ext_dims(EZ2, E, E, 3, res=res)

    def test_two_routes_agree(self):
        """The resolution route and the constrained-hom route must match."""
        A = AlgebraPresentation.exterior_algebra(2)
        E = ModulePresentation.one_dimensional(A, A.augmentation_values())
        reg = ModulePresentation.regular(A)
        for target in (E, reg):
            a = ext_dims(A, E, target, 3)
            b = ext_dims_via_hom_complex(A, E, target, 3)
            assert a == b, (a, b)

    def test_ext_of_free_target_is_concentrated(self):
        A = AlgebraPresentation.exterior_algebra(1)
        E = ModulePresentation.one_dimensional(A, A.augmentation_values())
        reg = ModulePresentation.regular(A)
        assert ext_dims(A, E, reg, 3) == [1, 0, 0, 0]

    @pytest.mark.parametrize("route", [ext_dims, ext_dims_via_hom_complex])
    def test_modules_over_another_algebra_are_refused(self, route):
        # E[Z/2] and Lambda(1) both have dimension 2, so only their structure
        # constants tell the regular modules apart
        A = AlgebraPresentation.group_algebra(FiniteGroupTable.cyclic(2))
        own = ModulePresentation.regular(A)
        foreign = ModulePresentation.regular(AlgebraPresentation.exterior_algebra(1))
        with pytest.raises(ValueError, match="the resolved module lives over a different algebra"):
            route(A, foreign, own, 1)
        with pytest.raises(ValueError, match="coefficient module lives over a different algebra"):
            route(A, own, foreign, 1)

    def test_resolution_of_a_module_over_another_algebra_is_refused(self):
        A = AlgebraPresentation.group_algebra(FiniteGroupTable.cyclic(2))
        foreign = ModulePresentation.regular(AlgebraPresentation.exterior_algebra(1))
        with pytest.raises(ValueError, match="the resolved module lives over a different algebra"):
            free_resolution(A, foreign, 1)


class TestCrossedProduct:
    def _sign_setup(self):
        """Z/2 flipping the exterior generator, trivial cocycle."""
        Q = FiniteGroupTable.cyclic(2)
        A = AlgebraPresentation.exterior_algebra(1)
        action = [RationalMatrix.identity(2), RationalMatrix.diagonal([1, -1])]
        return Q, A, crossed_product(A, Q, action)

    def test_crossed_product_multiplication(self):
        Q, A, cp = self._sign_setup()
        assert cp.algebra.dim == 4
        # (x # g)(x # g) = x sigma_g(x) # 1 = -x^2 # 1 = 0
        xg = [Fraction(0)] * 4
        xg[cp.basis_index(1, 1)] = Fraction(1)
        assert cp.algebra.multiply(xg, xg) == tuple([0] * 4)
        # (1 # g)(1 # g) = 1 # 1
        g = cp.include_base(cp.base.unit, 1)
        assert cp.algebra.multiply(g, g) == cp.algebra.unit

    def test_cocycle_validation_rejects_non_automorphism(self):
        Q = FiniteGroupTable.cyclic(2)
        A = AlgebraPresentation.exterior_algebra(1)
        bad = [RationalMatrix.identity(2), RationalMatrix([[1, 0], [0, 0]])]
        with pytest.raises(ValueError):
            crossed_product(A, Q, bad)

    def test_trivial_cocycle_has_no_violations(self):
        Q, A, cp = self._sign_setup()
        assert _action_violations(Q, A, cp.action) == []

    def test_non_homomorphic_action_is_refused_with_the_pair(self):
        # x -> 2x is an automorphism of the exterior algebra, but its square
        # is x -> 4x, not the identity that the square of the generator gets
        Q = FiniteGroupTable.cyclic(2)
        A = AlgebraPresentation.exterior_algebra(1)
        action = [RationalMatrix.identity(2), RationalMatrix.diagonal([1, 2])]
        assert _action_violations(Q, A, action) == ["action is not a homomorphism at (1,1)"]
        with pytest.raises(ValueError, match=r"not a homomorphism at \(1,1\)"):
            crossed_product(A, Q, action)

    def test_compare_trivial_module(self):
        Q, A, cp = self._sign_setup()
        triv = crossed_module(
            cp,
            [RationalMatrix.identity(1), RationalMatrix.zeros(1, 1)],
            [RationalMatrix.identity(1), RationalMatrix.identity(1)],
        )
        [report] = crossed_ext_compare(cp, [triv], 4)
        assert report.ok
        assert list(report.lhs_dims) == [1, 0, 1, 0, 1]
        assert list(report.base_ext_dims) == [1, 1, 1, 1, 1]

    def test_compare_determinant_module(self):
        Q, A, cp = self._sign_setup()
        det = crossed_module(
            cp,
            [RationalMatrix.identity(1), RationalMatrix.zeros(1, 1)],
            [RationalMatrix.identity(1), RationalMatrix.diagonal([-1])],
        )
        [report] = crossed_ext_compare(cp, [det], 4)
        assert report.ok
        assert list(report.lhs_dims) == [0, 1, 0, 1, 0]

    def test_report_json_keys(self):
        Q, A, cp = self._sign_setup()
        triv = crossed_module(
            cp,
            [RationalMatrix.identity(1), RationalMatrix.zeros(1, 1)],
            [RationalMatrix.identity(1), RationalMatrix.identity(1)],
        )
        [report] = crossed_ext_compare(cp, [triv], 2)
        data = report.to_json()
        assert set(data) == {"crossed_ext_dims", "base_ext_dims", "invariant_dims", "ok"}


# ---------------------------------------------------------------------------
# free modules act slot by slot; the algebra check runs on nonzero constants
# ---------------------------------------------------------------------------


def _sample_algebras():
    Z2 = FiniteGroupTable.cyclic(2)
    ext1 = AlgebraPresentation.exterior_algebra(1)
    flip = crossed_product(ext1, Z2, [RationalMatrix.identity(2), RationalMatrix.diagonal([1, -1])])
    # Z3 with its identity listed last, so the unit is not basis element 0
    shifted = FiniteGroupTable([[(i + j + 1) % 3 for j in range(3)] for i in range(3)])
    out = [AlgebraPresentation.exterior_algebra(r) for r in range(3)]
    out += [AlgebraPresentation.group_algebra(G) for G in standard_groups(6)[1:] + [shifted]]
    return out + [flip.algebra]


_ALGEBRAS = _sample_algebras()

_COEFF = st.one_of(
    st.just(0), st.just(0), st.integers(-2, 2), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
)


@st.composite
def _free_vectors(draw):
    A = _ALGEBRAS[draw(st.integers(0, len(_ALGEBRAS) - 1))]
    rank = draw(st.integers(1, 3))
    v = draw(st.lists(_COEFF, min_size=rank * A.dim, max_size=rank * A.dim))
    return A, rank, v


@given(_free_vectors())
def test_slotwise_action_equals_the_block_diagonal_matrices(case):
    A, rank, v = case
    left = _left_mult_matrices(A)
    blocks = [
        dense.RationalMatrix.block_diag(
            [dense.RationalMatrix(A.left_mult_matrix(A.basis_vector(i)).rows, ncols=A.dim)] * rank
        )
        for i in range(A.dim)
    ]
    assert _free_images(left, v) == [B.apply(v) for B in blocks]
    assert [M.rows for M in _free_action_matrices(left, rank)] == [B.rows for B in blocks]


@given(_free_vectors())
def test_free_map_sends_the_generators_to_the_given_images(case):
    # v holds the images of the rank generators in the regular module
    A, rank, v = case
    left = _left_mult_matrices(A)
    Y = RationalMatrix.from_columns([v[u * A.dim : (u + 1) * A.dim] for u in range(rank)])
    F = _free_map(left, Y)
    assert F @ _free_generators(A, rank) == Y
    for L, act in zip(left, _free_action_matrices(left, rank)):
        assert F @ act == L @ F


def _dense_validation_message(products, unit):
    """The former dense unit and associativity check, as the oracle.

    Returns the message of the first failure, or None when the table passes.
    """
    dim = len(products)

    def multiply(u, v):
        out = [Fraction(0)] * dim
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                if a and b:
                    for k, c in enumerate(products[i][j]):
                        out[k] += Fraction(a) * Fraction(b) * Fraction(c)
        return tuple(out)

    def basis(i):
        return tuple(Fraction(int(k == i)) for k in range(dim))

    for i in range(dim):
        if multiply(unit, basis(i)) != basis(i):
            return f"left unit law fails on basis {i}"
        if multiply(basis(i), unit) != basis(i):
            return f"right unit law fails on basis {i}"
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                if multiply(products[i][j], basis(k)) != multiply(basis(i), products[j][k]):
                    return f"associativity fails at triple ({i},{j},{k})"
    return None


@st.composite
def _perturbed_tables(draw):
    A = _ALGEBRAS[draw(st.integers(0, len(_ALGEBRAS) - 1))]
    n = A.dim
    products = [[list(entry) for entry in row] for row in A.products]
    unit = list(A.unit)
    delta = st.sampled_from([1, -1, 2, Fraction(1, 2)])
    for _ in range(draw(st.integers(0, 2))):
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        products[i][j][k] += draw(delta)
    if draw(st.booleans()) and draw(st.booleans()):
        unit[draw(st.integers(0, n - 1))] += draw(delta)
    return products, unit


@given(_perturbed_tables())
def test_sparse_algebra_check_refuses_where_the_dense_one_did(table):
    products, unit = table
    want = _dense_validation_message(products, unit)
    try:
        AlgebraPresentation(products, unit)
        got = None
    except ValueError as exc:
        got = str(exc)
    assert got == want


def test_generators_are_greedy_and_generate():
    for G in standard_groups(8):
        gens = G.generators()
        assert G.identity not in gens
        # each generator lies outside the subgroup of the ones before it
        reached = {G.identity}
        for s in gens:
            assert s not in reached
            reached.add(s)
            # close under products: the subgroup generated so far
            while True:
                more = {G.mul(a, b) for a in reached for b in reached} - reached
                if not more:
                    break
                reached |= more
        assert reached == set(range(G.order)), G
    assert FiniteGroupTable.cyclic(6).generators() == [1]
    assert FiniteGroupTable.symmetric3().generators() == [1, 3]
