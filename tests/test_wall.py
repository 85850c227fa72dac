from __future__ import annotations

import hashlib
import json
import random
import re
from fractions import Fraction
from operator import setitem

import pytest

from wallforge.complexes import CertificateError, ChainMap, homology_dims, mapping_cone
from wallforge.groupalg import (
    AlgebraPresentation,
    FiniteGroupTable,
    ModulePresentation,
    averaging_idempotent,
    ext_dims,
    free_resolution,
    module_direct_sum,
)
from wallforge import complexes, groupalg, linalg
from wallforge import wall as wall_module
from wallforge.linalg import RationalMatrix
from wallforge.wall import (
    WallAssembly,
    _assemble,
    _column_from_resolution,
    _total,
    _validate_spots,
    augmentation_quasi_iso,
    base_complex,
    build_wall,
    ext_via_wall,
    module_hom_basis,
    total_complex,
    truncated_wall,
    verify_induction_identities,
    wall_from_json,
)

from wall_cases import (
    augmentation_ideal,
    build_random_wall,
    exterior_s3_inputs,
    exterior_s3_wall,
    random_wall_case,
    recoordinatize_degree_0,
    reference_assemble,
    regular_sign_values,
)


def _exterior_E(rank=1):
    A = AlgebraPresentation.exterior_algebra(rank)
    E = ModulePresentation.one_dimensional(A, A.augmentation_values())
    return A, E


def test_regular_sign_values_are_characters():
    for Q in (
        FiniteGroupTable.cyclic(2),
        FiniteGroupTable.cyclic(3),
        FiniteGroupTable.symmetric3(),
    ):
        values = regular_sign_values(Q)
        for g in range(Q.order):
            for h in range(Q.order):
                assert values[Q.mul(g, h)] == values[g] * values[h]
    assert regular_sign_values(FiniteGroupTable.cyclic(2)) == [1, -1]
    assert regular_sign_values(FiniteGroupTable.cyclic(3)) == [1, 1, 1]
    assert sorted(regular_sign_values(FiniteGroupTable.symmetric3())) == [-1] * 3 + [1] * 3


def test_augmentation_ideal_module():
    Q = FiniteGroupTable.cyclic(2)
    A = AlgebraPresentation.group_algebra(Q)
    ideal, incl = augmentation_ideal(A)
    assert ideal.dim == 1 and incl.shape == (2, 1)
    # over Z/2 the ideal is the sign line
    assert ideal.actions[1] == RationalMatrix.diagonal([-1])


def test_module_hom_basis_schur():
    Q = FiniteGroupTable.cyclic(2)
    A = AlgebraPresentation.group_algebra(Q)
    triv = ModulePresentation.one_dimensional(A, [1, 1])
    sgn = ModulePresentation.one_dimensional(A, [1, -1])
    assert len(module_hom_basis(A, triv.actions, 1, triv.actions, 1)) == 1
    assert module_hom_basis(A, triv.actions, 1, sgn.actions, 1) == []


class TestSingleColumn:
    def test_raw_finite_column_fails_quasi_iso(self):
        A, E = _exterior_E()
        W = build_wall([free_resolution(A, E, 2)], [])
        assert verify_induction_identities(W) == []
        with pytest.raises(CertificateError):
            augmentation_quasi_iso(W)

    def test_truncated_column_matches_base(self):
        A, E = _exterior_E()
        W = truncated_wall(build_wall([free_resolution(A, E, 2)], []), 1)
        _, cert = augmentation_quasi_iso(W)
        assert cert.is_quasi_iso and cert.betti_match
        assert cert.base_homology == {0: 1}

    def test_free_module_column_is_complete(self):
        Q = FiniteGroupTable.cyclic(2)
        A = AlgebraPresentation.group_algebra(Q)
        reg = ModulePresentation.regular(A)
        W = build_wall([free_resolution(A, reg, 3)], [])
        # the cover of a free module is an isomorphism, no raw edge
        _, cert = augmentation_quasi_iso(W)
        assert cert.is_quasi_iso


class TestTwoColumns:
    def _ideal_into_regular(self, Q, lengths=(2, 2)):
        A = AlgebraPresentation.group_algebra(Q)
        reg = ModulePresentation.regular(A)
        ideal, incl = augmentation_ideal(A)
        res = [free_resolution(A, reg, lengths[0]), free_resolution(A, ideal, lengths[1])]
        return A, build_wall(res, [incl])

    def test_identities_and_total_square(self):
        for Q in (FiniteGroupTable.cyclic(2), FiniteGroupTable.symmetric3()):
            _, W = self._ideal_into_regular(Q)
            assert verify_induction_identities(W) == []
            T = total_complex(W)  # validates d o d = 0 internally
            assert T.dim(0) == W.spot_dim(0, 0)

    def test_truncated_betti_match(self):
        _, W = self._ideal_into_regular(FiniteGroupTable.cyclic(2))
        WT = truncated_wall(W, 1)
        _, cert = augmentation_quasi_iso(WT)
        assert cert.is_quasi_iso and cert.betti_match
        # base homology: the quotient is the trivial line in degree 0
        assert cert.base_homology == {0: 1, 1: 0}

    def test_total_vanishes_above_bound(self):
        _, W = self._ideal_into_regular(FiniteGroupTable.cyclic(3), lengths=(3, 2))
        WT = truncated_wall(W, 1)
        T = total_complex(WT)
        assert T.hi <= WT.q_max + 1
        for n in range(T.hi + 1, T.hi + 4):
            assert T.dim(n) == 0


def test_periodic_base_with_complete_columns_needs_no_truncation():
    """All-regular bases resolve freely, so the raw wall is already exact."""
    Q = FiniteGroupTable.cyclic(2)
    A = AlgebraPresentation.group_algebra(Q)
    reg = ModulePresentation.regular(A)
    e = averaging_idempotent(Q)
    one_minus_e = tuple(
        (Fraction(1) if k == Q.identity else Fraction(0)) - c for k, c in enumerate(e)
    )
    maps = [A.right_mult_matrix(one_minus_e), A.right_mult_matrix(e)]
    res = [free_resolution(A, reg, 2) for _ in range(3)]
    W = build_wall(res, maps)
    assert verify_induction_identities(W) == []
    _, cert = augmentation_quasi_iso(W)
    assert cert.is_quasi_iso and cert.betti_match
    assert cert.base_homology == {0: 1, 1: 0, 2: 1}


def test_second_connecting_map_appears_over_exterior_algebra():
    """Over a non-semisimple algebra the k = 2 maps are genuinely needed."""
    A, E = _exterior_E()
    reg = ModulePresentation.regular(A)
    aug_row = RationalMatrix([[1, 0]])
    socle = RationalMatrix([[0], [1]])
    res = [
        free_resolution(A, E, 3),
        free_resolution(A, reg, 2),
        free_resolution(A, E, 1),
    ]
    W = build_wall(res, [aug_row, socle])
    assert verify_induction_identities(W) == []
    assert any(
        k == 2 and not M.is_zero() for (k, q, j), M in W.connecting.items()
    )


class TestBuildErrors:
    def test_non_composing_base_maps(self):
        A, E = _exterior_E()
        res = [free_resolution(A, E, 2) for _ in range(3)]
        ident = RationalMatrix.identity(1)
        with pytest.raises(ValueError):
            build_wall(res, [ident, ident])

    def test_non_module_linear_base_map(self):
        Q = FiniteGroupTable.cyclic(2)
        A = AlgebraPresentation.group_algebra(Q)
        reg = ModulePresentation.regular(A)
        res = [free_resolution(A, reg, 2) for _ in range(2)]
        skew = RationalMatrix([[1, 0], [0, 2]])  # not E[Q]-linear
        with pytest.raises(ValueError):
            build_wall(res, [skew])

    def test_mismatched_algebras(self):
        A1, E1 = _exterior_E(1)
        Q = FiniteGroupTable.cyclic(2)
        A2 = AlgebraPresentation.group_algebra(Q)
        reg2 = ModulePresentation.regular(A2)
        with pytest.raises(ValueError):
            build_wall(
                [free_resolution(A1, E1, 1), free_resolution(A2, reg2, 1)],
                [RationalMatrix.zeros(2, 2)],
            )

    def test_columns_without_room_for_a_nonzero_obstruction(self):
        # column 0 stops below the degree the k = 1 map out of column 1 needs
        A, E = _exterior_E()
        ident = RationalMatrix.identity(1)
        for lengths, spot in (((0, 2), "(q=1, j=1, k=1)"), ((1, 3), "(q=1, j=2, k=1)")):
            res = [free_resolution(A, E, n) for n in lengths]
            with pytest.raises(CertificateError, match=re.escape(f"image containment fails at {spot}")):
                build_wall(res, [ident])

    def test_truncation_refuses_a_column_it_cannot_complete(self):
        # over E[Z/2] the trivial line's resolution has a kernel at every top
        A = AlgebraPresentation.group_algebra(FiniteGroupTable.cyclic(2))
        triv = ModulePresentation.one_dimensional(A, [1, 1])
        for length, bound in ((2, 2), (0, 0), (1, 3)):
            W = build_wall([free_resolution(A, triv, length)], [])
            with pytest.raises(ValueError, match=f"column 0 stops at degree {length}, within the bound {bound}"):
                truncated_wall(W, bound)
        # the regular module's augmentation is injective: already complete
        W = build_wall([free_resolution(A, ModulePresentation.regular(A), 0)], [])
        assert truncated_wall(W, 0) is W
        _, cert = augmentation_quasi_iso(W)
        assert cert.is_quasi_iso

    def test_truncation_bound_validation(self):
        A, E = _exterior_E()
        W = build_wall([free_resolution(A, E, 2)], [])
        with pytest.raises(ValueError):
            truncated_wall(W, -1)


def _exterior_staircase_inputs(lengths):
    """E <- regular <- E over Lambda(1), by the augmentation and the socle."""
    A, E = _exterior_E()
    reg = ModulePresentation.regular(A)
    res = [free_resolution(A, M, n) for M, n in zip((E, reg, E), lengths)]
    return res, [RationalMatrix([[1, 0]]), RationalMatrix([[0], [1]])]


def _exterior_staircase(lengths):
    return build_wall(*_exterior_staircase_inputs(lengths))


def _dump(W):
    return json.dumps(W.to_json(), sort_keys=True)


def _lift_cases():
    for lengths in ((3, 2, 1), (4, 3, 2), (5, 4, 3)):
        yield f"Lambda(1) staircase {lengths}", _exterior_staircase_inputs(lengths)
    rng = random.Random(411)
    groups = (
        FiniteGroupTable.cyclic(2),
        FiniteGroupTable.cyclic(3),
        FiniteGroupTable.symmetric3(),
        FiniteGroupTable.dihedral(4),
    )
    for Q in groups:
        for i in range(2):
            res, maps, _ = random_wall_case(rng, Q, max_len=3)
            yield f"random wall {i} over {Q.name or Q.order}", (res, maps)
    yield "Lambda(2) x| S3", exterior_s3_inputs(2)


class TestGeneratorImageLifts:
    """Each lift is solved on generator images; the basis route agrees."""

    def test_build_wall_equals_the_basis_route(self):
        for name, (res, maps) in _lift_cases():
            W = build_wall(res, maps)
            again = reference_assemble(W.algebra, W.base_modules, W.base_maps, W.columns)
            assert _dump(W) == _dump(again), name

    def test_exterior_s3_wall_of_length_3_is_pinned(self):
        digest = hashlib.sha256(_dump(exterior_s3_wall(3)).encode()).hexdigest()
        assert digest == "ea5bf89338e28735e4a047073e8460e813c4a68cbde3ed8c40f248a19ca3bd82"


def _cut_cases():
    yield "Lambda(1) staircase", _exterior_staircase((4, 3, 2)), range(2)
    rng = random.Random(411)
    for Q in (FiniteGroupTable.cyclic(2), FiniteGroupTable.cyclic(3)):
        for i in range(2):
            W, d_bound = build_random_wall(rng, Q, max_len=3)
            yield f"random wall {i} over Z{Q.order}", W, range(d_bound + 1)
    yield "Lambda(2) x| S3", exterior_s3_wall(2), range(2)


class TestCutByRestriction:
    """``truncated_wall`` restricts W; the lift loop on its columns agrees."""

    def test_cut_equals_reassembly_of_its_columns(self):
        for name, W, bounds in _cut_cases():
            for d_bound in bounds:
                Wt = truncated_wall(W, d_bound)
                assert Wt is not W
                again = reference_assemble(W.algebra, W.base_modules, W.base_maps, Wt.columns)
                assert _dump(Wt) == _dump(again), (name, d_bound)

    def test_cut_solves_nothing(self, monkeypatch):
        # neither the build nor the cut builds a Hom basis or solves over one
        def refuse(*args, **kwargs):
            raise AssertionError("a lift went through a Hom basis")

        monkeypatch.setattr(linalg, "solve_in_subspace", refuse)
        monkeypatch.setattr(wall_module, "module_hom_basis", refuse)
        monkeypatch.setattr(groupalg, "_free_source_hom_basis", refuse)
        W = _exterior_staircase((4, 3, 2))
        assert W.connecting
        for d_bound in range(2):
            assert verify_induction_identities(truncated_wall(W, d_bound)) == []

    def test_homology_at_the_bound_is_refused(self):
        # a column with d_1 = 0 and d_2 = I passes every identity, but at
        # bound 0 its cut top C_0 / im d_1 = C_0 keeps the kernel of eps;
        # wall_from_json refuses such a column as inexact, so it is built here
        A, E = _exterior_E()
        W = build_wall([free_resolution(A, E, 2)], [])
        col = W.columns[0]._replace(
            diffs=(RationalMatrix.zeros(2, 2), RationalMatrix.identity(2))
        )
        W = WallAssembly(W.algebra, W.base_modules, W.base_maps, [col], W.connecting)
        assert verify_induction_identities(W) == []
        with pytest.raises(ValueError, match="column 0 has homology in degree 0, at the bound"):
            truncated_wall(W, 0)
        with pytest.raises(ValueError, match="column 0 fails exactness at degree 0"):
            wall_from_json(W.to_json())


def _in_column_1(edit):
    return lambda A, mods, maps, cols: (A, mods, maps, [cols[0], edit(cols[1])])


_I2 = RationalMatrix.identity(2)
_I3 = RationalMatrix.identity(3)

# one fault each in the E[Z/2] wall of the sign line into the regular module,
# and the message prefix naming the spot or map at fault
_CORRUPTIONS = {
    "free rank": (
        _in_column_1(lambda c: c._replace(free_ranks=(1, 2, 1))),
        "column 1 degree 1 rank disagrees with its dimension",
    ),
    "augmentation shape": (
        _in_column_1(lambda c: c._replace(augmentation=RationalMatrix.zeros(2, 2))),
        "column 1 augmentation has shape (2, 2)",
    ),
    "differential shape": (
        _in_column_1(lambda c: c._replace(diffs=(RationalMatrix.zeros(3, 2), c.diffs[1]))),
        "column 1 differential 1 has shape (3, 2)",
    ),
    "non-linear differential": (
        _in_column_1(
            lambda c: c._replace(diffs=(c.diffs[0], RationalMatrix([[1, 0], [0, 0]])))
        ),
        "column 1 differential 2 is not module-linear (basis element 1)",
    ),
    "non-linear base map": (
        lambda A, mods, maps, cols: (A, mods, [RationalMatrix([[1], [0]])], cols),
        "base map 1 is not module-linear (basis element 1)",
    ),
    "non-composing base": (
        lambda A, mods, maps, cols: (A, [mods[0]] * 3, [_I2, _I2], [cols[0]] * 3),
        "base maps do not compose to zero at degree 2",
    ),
    "inexact column": (
        _in_column_1(lambda c: c._replace(augmentation=RationalMatrix.zeros(1, 2))),
        "column 1 fails exactness at degree -1",
    ),
    "base module over another algebra": (
        lambda A, mods, maps, cols: (A, [mods[0], _exterior_E()[1]], maps, cols),
        "base module 1 lives over a different algebra",
    ),
}


# one fault each in column 1 of the same wall's dump, cut at bound 1 where
# the case says so, and the message prefix naming the spot at fault
_DUMP_CORRUPTIONS = {
    "action count": (False, lambda c: c["actions"][0].pop(), "column 1 degree 0 stores"),
    "action shape": (
        False,
        lambda c: setitem(c["actions"][1], 1, _I3.to_json()),
        "column 1 degree 1 stores",
    ),
    # the same value as "1", so only the comparison as JSON refuses it
    "non-canonical action entry": (
        False,
        lambda c: setitem(c["actions"][0][1]["entries"][0], 2, "2/2"),
        "column 1 degree 0 stores",
    ),
    "dimension off by one": (
        False,
        lambda c: setitem(c["dims"], 2, c["dims"][2] + 1),
        "column 1 degree 2 stores",
    ),
    "spot count": (
        False,
        lambda c: c["dims"].pop(),
        "column 1 stores spots other than its 3 ranks",
    ),
    "no rank below the top": (
        False,
        lambda c: setitem(c["free_ranks"], 1, None),
        "column 1 degree 1 is cut below the top",
    ),
    "cut top that is no module": (
        True,
        lambda c: setitem(c["actions"][1], 1, RationalMatrix([[2]]).to_json()),
        "module axiom fails on basis pair (1,1)",
    ),
}


class TestCorruptedSpots:
    """Every fault in the builder's input, or in a stored spot, is a
    ``ValueError`` naming its map or spot."""

    def _inputs(self):
        A = AlgebraPresentation.group_algebra(FiniteGroupTable.cyclic(2))
        reg = ModulePresentation.regular(A)
        sign, incl = augmentation_ideal(A)
        cols = [_column_from_resolution(free_resolution(A, M, 2)) for M in (reg, sign)]
        return A, [reg, sign], [incl], cols

    def test_uncorrupted_inputs_assemble(self):
        assert verify_induction_identities(_assemble(*self._inputs())) == []

    @pytest.mark.parametrize("case", sorted(_CORRUPTIONS))
    def test_corrupted_input_is_refused(self, case):
        corrupt, message = _CORRUPTIONS[case]
        with pytest.raises(ValueError, match=re.escape(message)):
            _assemble(*corrupt(*self._inputs()))

    @pytest.mark.parametrize("case", sorted(_DUMP_CORRUPTIONS))
    def test_corrupted_dump_is_refused(self, case):
        cut, corrupt, message = _DUMP_CORRUPTIONS[case]
        W = _assemble(*self._inputs())
        data = (truncated_wall(W, 1) if cut else W).to_json()
        assert (data["columns"][1]["free_ranks"][-1] is None) == cut
        wall_from_json(data)
        corrupt(data["columns"][1])
        with pytest.raises(ValueError, match=re.escape(message)):
            wall_from_json(data)

    def test_non_linear_map_out_of_a_cut_top_is_refused(self):
        W = truncated_wall(_assemble(*self._inputs()), 1)
        col = W.columns[1]
        assert col.free_ranks == (1, None) and col.diffs[0] == RationalMatrix([[1], [1]])
        # Z/2's generator swaps the free spot's coordinates and fixes the top
        bad = col._replace(diffs=(RationalMatrix([[1], [0]]),))
        W = WallAssembly(W.algebra, W.base_modules, W.base_maps, [W.columns[0], bad], {})
        message = "column 1 differential 1 is not module-linear (basis element 1)"
        with pytest.raises(ValueError, match=re.escape(message)):
            _validate_spots(W)

    def test_stored_non_linear_base_map_is_refused(self):
        # P = diag(1, 2) on the regular module after the base map and after
        # the connecting map into column 0 keeps every identity, since
        # column 0's augmentation is the identity, but P is not Z/2-linear
        W = _assemble(*self._inputs())
        P = RationalMatrix([[1, 0], [0, 2]])
        data = W.to_json()
        data["base_maps"][0] = (P @ W.base_maps[0]).to_json()
        entry = next(e for e in data["connecting"] if (e["k"], e["q"], e["j"]) == (1, 1, 0))
        entry["matrix"] = (P @ W.connecting[(1, 1, 0)]).to_json()
        message = "base map 1 is not module-linear (basis element 1)"
        with pytest.raises(ValueError, match=re.escape(message)):
            wall_from_json(data)

    def test_stored_non_linear_connecting_map_is_refused(self):
        # E[Z/2]'s trivial line in degrees 0 and 1; Y sends it onto the sign
        # line inside ker aug_0, so adding Y aug_1 to d(1) out of (1, 0)
        # keeps every identity, but Y is not Z/2-linear
        A = AlgebraPresentation.group_algebra(FiniteGroupTable.cyclic(2))
        triv = ModulePresentation.one_dimensional(A, [1, 1])
        res = free_resolution(A, triv, 2)
        W = build_wall([res, res], [RationalMatrix.identity(1)])
        Y = RationalMatrix([[1], [-1]])
        d = W.map(1, 1, 0) + Y @ W.map(0, 1, 0)
        connecting = {**W.connecting, (1, 1, 0): d}
        edited = WallAssembly(W.algebra, W.base_modules, W.base_maps, W.columns, connecting)
        assert verify_induction_identities(edited) == []
        data = edited.to_json()
        message = "d(1) out of column 1 degree 0 is not module-linear (basis element 1)"
        with pytest.raises(ValueError, match=re.escape(message)):
            wall_from_json(data)

    # (0, 0, 0) is shadowed by column 0's augmentation, and (5, 9, 3) lies
    # past the last column; neither is a key the builder stores
    @pytest.mark.parametrize("key", [(0, 0, 0), (5, 9, 3)], ids=["shadowed", "past q_max"])
    def test_stored_connecting_key_that_joins_no_spots_is_refused(self, key):
        W = _assemble(*self._inputs())
        data = W.to_json()
        k, q, j = key
        data["connecting"].append({"k": k, "q": q, "j": j, "matrix": W.map(0, 0, 0).to_json()})
        message = f"connecting map ({k}, {q}, {j}) joins no two spots"
        with pytest.raises(ValueError, match=re.escape(message)):
            wall_from_json(data)

    def test_recoordinatized_free_spot_is_refused(self):
        # conjugating E[Z/2]'s degree-0 free spot keeps every identity, so
        # only the derived actions tell it from the spot its rank gives
        A = AlgebraPresentation.group_algebra(FiniteGroupTable.cyclic(2))
        triv = ModulePresentation.one_dimensional(A, [1, 1])
        data = build_wall([free_resolution(A, triv, 3)], []).to_json()
        recoordinatize_degree_0(data["columns"][0])
        with pytest.raises(ValueError, match="column 0 degree 0 stores"):
            wall_from_json(data)


class TestExtViaWall:
    def test_single_column_matches_direct(self):
        A, E = _exterior_E()
        W = build_wall([free_resolution(A, E, 4)], [])
        assert ext_via_wall(W, E, 2) == [1, 1, 1]

    def test_two_column_resolution_base(self, monkeypatch):
        # T is read as a free resolution: no Hom basis is built, whichever
        # module a Hom-basis route would be reached through
        def refuse(*args, **kwargs):
            raise AssertionError("ext_via_wall built a Hom basis")

        for module in (wall_module, groupalg, complexes):
            for name in ("module_hom_basis", "_free_source_hom_basis", "hom_constrained"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        A, E = _exterior_E()
        reg = ModulePresentation.regular(A)
        ideal_mod = ModulePresentation(
            A, [RationalMatrix.identity(1), RationalMatrix.zeros(1, 1)]
        )
        socle = RationalMatrix([[0], [1]])
        W = build_wall(
            [free_resolution(A, reg, 4), free_resolution(A, ideal_mod, 4)],
            [socle],
        )
        # base: 0 -> (x) -> reg -> 0 resolves the one-dimensional quotient
        assert ext_via_wall(W, E, 2) == ext_dims(A, E, E, 2) == [1, 1, 1]

    def test_uncut_wall_matches_direct_and_cut_walls_are_refused(self):
        # the uncut total complex resolves the trivial line through degree 2;
        # a cut top is not free, so the cut assemblies are refused
        for Q in (FiniteGroupTable.cyclic(2), FiniteGroupTable.symmetric3()):
            A = AlgebraPresentation.group_algebra(Q)
            reg = ModulePresentation.regular(A)
            triv = ModulePresentation.one_dimensional(A, [1] * Q.order)
            ideal, incl = augmentation_ideal(A)
            W = build_wall([free_resolution(A, reg, 3), free_resolution(A, ideal, 3)], [incl])
            assert ext_via_wall(W, triv, 2) == ext_dims(A, triv, triv, 2) == [1, 0, 0]
            for d_bound in range(3):
                Wt = truncated_wall(W, d_bound)
                assert any(r is None for col in Wt.columns for r in col.free_ranks)
                with pytest.raises(ValueError, match="from before truncated_wall"):
                    ext_via_wall(Wt, triv, 2)

    def test_n_max_past_the_exact_range_is_refused(self):
        # base E (+) E <- E, the inclusion into the first summand; column 1
        # stops at degree 2, so its top kernel gives H_3(T) = 1
        A, E = _exterior_E()
        W = build_wall(
            [free_resolution(A, module_direct_sum([E, E]), 5), free_resolution(A, E, 2)],
            [RationalMatrix([[1], [0]])],
        )
        assert homology_dims(total_complex(W))[3] == 1
        assert ext_via_wall(W, E, 2) == ext_dims(A, E, E, 2) == [1, 1, 1]
        with pytest.raises(ValueError, match="homology 1 in degree 3"):
            ext_via_wall(W, E, 3)

    def test_rejects_non_resolution_base(self):
        A, E = _exterior_E()
        res = [free_resolution(A, E, 3), free_resolution(A, E, 2)]
        zero_map = RationalMatrix.zeros(1, 1)
        W = build_wall(res, [zero_map])
        with pytest.raises(ValueError):
            ext_via_wall(W, E, 1)


def test_random_walls_over_small_groups():
    rng = random.Random(411)
    for Q in (FiniteGroupTable.cyclic(2), FiniteGroupTable.cyclic(3)):
        for _ in range(2):
            W, d_bound = build_random_wall(rng, Q, max_len=3)
            assert verify_induction_identities(W) == []
            total_complex(W)
            WT = truncated_wall(W, d_bound)
            assert verify_induction_identities(WT) == []
            _, cert = augmentation_quasi_iso(WT)
            assert cert.is_quasi_iso and cert.betti_match
            base_betti = homology_dims(base_complex(WT))
            assert cert.base_homology == base_betti
            T = total_complex(WT)
            assert T.hi <= WT.q_max + d_bound


def _reference_cone(W):
    """The mapping cone of the augmentation as ``complexes`` builds it."""
    T, S = total_complex(W), base_complex(W)
    # the (n, 0) spot comes last among the degree-n spots of T
    eps = {
        n: RationalMatrix.from_blocks(
            S.dim(n), T.dim(n), [(0, T.dim(n) - W.spot_dim(n, 0), W.column(n).augmentation)]
        )
        for n in range(W.q_max + 1)
    }
    return mapping_cone(ChainMap(T, S, eps))


def _cone_cases():
    A, E = _exterior_E()
    for length in (1, 2, 3):
        W = build_wall([free_resolution(A, E, length)], [])
        yield f"E over Lambda(1), length {length}", W
        yield f"E over Lambda(1), length {length}, cut", truncated_wall(W, length - 1)
    groups = {
        "Z2": FiniteGroupTable.cyclic(2),
        "Z3": FiniteGroupTable.cyclic(3),
        "S3": FiniteGroupTable.symmetric3(),
        "D4": FiniteGroupTable.dihedral(4),
        "Q8": FiniteGroupTable.quaternion8(),
    }
    for name, Q in groups.items():
        # the wall-demo assembly at --degrees 2
        G = AlgebraPresentation.group_algebra(Q)
        ideal, incl = augmentation_ideal(G)
        reg = ModulePresentation.regular(G)
        W = build_wall([free_resolution(G, reg, 2), free_resolution(G, ideal, 2)], [incl])
        yield f"wall-demo {name}", W
        yield f"wall-demo {name}, cut", truncated_wall(W, 1)
    rng = random.Random(411)
    for Q in (FiniteGroupTable.cyclic(2), FiniteGroupTable.cyclic(3)):
        for i in range(2):
            W, d_bound = build_random_wall(rng, Q, max_len=3)
            yield f"random wall {i} over Z{Q.order}", W
            yield f"random wall {i} over Z{Q.order}, cut", truncated_wall(W, d_bound)


def _has_cut_top(W):
    return any(col.free_ranks[-1] is None for col in W.columns)


@pytest.mark.parametrize(
    "W", [pytest.param(W, id=name) for name, W in _cone_cases() if _has_cut_top(W)]
)
def test_generators_settle_linearity_at_cut_tops(W):
    # _validate_spots checks module-linearity on the algebra's generators,
    # which is sound only where both ends of a map are modules: the cut tops
    # truncated_wall builds must be, and every basis element must then agree
    A = W.algebra
    for col in W.columns:
        if col.free_ranks[-1] is None:
            ModulePresentation(A, col.top_actions)
    for q, col in enumerate(W.columns):
        for j in range(-1 if q else 0, col.length + 1):
            k = int(j == -1)
            d = W.map(k, q, j)
            acts, tgt_acts = W.actions(q, j), W.actions(q - k, j + k - 1)
            assert all(d @ acts[i] == tgt_acts[i] @ d for i in range(A.dim))


@pytest.mark.parametrize("W", [pytest.param(W, id=name) for name, W in _cone_cases()])
def test_wall_json_round_trip(W):
    # derived dims and actions are written, and cut tops read back, as stored
    data = W.to_json()
    assert wall_from_json(data).to_json() == data


def test_rows_from_minus_one_are_the_cone_of_the_augmentation():
    """``_total(W, -1)`` against ``mapping_cone``, non-exact cones included."""
    seen = {}
    for name, W in _cone_cases():
        got = homology_dims(_total(W, -1))
        assert got == homology_dims(_reference_cone(W)), name
        seen[name] = got
    assert seen["E over Lambda(1), length 2"] == {0: 0, 1: 0, 2: 0, 3: 1}
    assert any(any(h.values()) for h in seen.values())
    assert all(not any(h.values()) for name, h in seen.items() if name.endswith("cut"))


class TestStoredAssemblyEdits:
    """``verify_induction_identities`` names the spot an edited map breaks."""

    def _edited(self, W, base_maps=None, columns=None, connecting=None):
        return WallAssembly(
            W.algebra,
            W.base_modules,
            base_maps or W.base_maps,
            columns or W.columns,
            connecting or W.connecting,
        )

    def _ideal_into_regular(self):
        A, _ = _exterior_E()
        reg = ModulePresentation.regular(A)
        ideal = ModulePresentation(A, [RationalMatrix.identity(1), RationalMatrix.zeros(1, 1)])
        socle = RationalMatrix([[0], [1]])
        return build_wall([free_resolution(A, reg, 2), free_resolution(A, ideal, 2)], [socle])

    def test_negated_connecting_map(self):
        W = self._ideal_into_regular()
        connecting = dict(W.connecting)
        connecting[(1, 1, 0)] = -connecting[(1, 1, 0)]
        bad = verify_induction_identities(self._edited(W, connecting=connecting))
        assert bad == ["identity fails at (q=1, j=0, k=1)"]

    def test_changed_augmentation_entry(self):
        W = self._ideal_into_regular()
        col = W.columns[1]
        aug = col.augmentation + RationalMatrix([[0, 1]])
        bad = verify_induction_identities(
            self._edited(W, columns=(W.columns[0], col._replace(augmentation=aug)))
        )
        assert bad == [
            "identity fails at (q=1, j=0, k=1)",
            "identity fails at (q=1, j=1, k=0)",
        ]

    def test_column_differential_that_does_not_square_to_zero(self):
        A, E = _exterior_E()
        W = build_wall([free_resolution(A, E, 2)], [])
        col = W.columns[0]
        broken = col._replace(diffs=(col.diffs[0], RationalMatrix.identity(2)))
        bad = verify_induction_identities(self._edited(W, columns=(broken,)))
        assert bad == ["identity fails at (q=0, j=2, k=0)"]

    def test_base_maps_that_do_not_compose_to_zero(self):
        A, E = _exterior_E()
        reg = ModulePresentation.regular(A)
        socle = RationalMatrix([[0], [1]])
        W = build_wall(
            [free_resolution(A, E, 3), free_resolution(A, reg, 2), free_resolution(A, E, 1)],
            [RationalMatrix([[1, 0]]), socle],
        )
        assert verify_induction_identities(W) == []
        # (1 0) kills the socle but not the unit, so del o del = 1; the
        # lift of the old map out of column 2 no longer fits either
        bad = verify_induction_identities(
            self._edited(W, base_maps=(W.base_maps[0], RationalMatrix([[1], [0]])))
        )
        assert bad == [
            "identity fails at (q=2, j=-1, k=2)",
            "identity fails at (q=2, j=0, k=1)",
        ]
