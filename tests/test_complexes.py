from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wallforge.complexes import (
    CertificateError,
    ChainComplex,
    ChainMap,
    cohomology_dims,
    hom_constrained,
    hom_into_space,
    homology,
    homology_dims,
    is_exact,
    mapping_cone,
    truncate_canonical,
)
from wallforge.linalg import RationalMatrix, rank_kernel_image


def _interval_complex():
    """0 -> Q^1 -> Q^2 -> 0, boundary of an interval on two endpoints."""
    d1 = RationalMatrix([[-1], [1]])
    return ChainComplex({0: 2, 1: 1}, {1: d1})


def _circle_complex():
    """Triangle boundary: three vertices, three edges."""
    d1 = RationalMatrix([[-1, 0, 1], [1, -1, 0], [0, 1, -1]])
    return ChainComplex({0: 3, 1: 3}, {1: d1})


def _two_sphere_complex():
    """Hollow tetrahedron, oriented simplicial chains."""
    # vertices 0..3, edges (01,02,03,12,13,23), faces (012,013,023,123)
    d1 = RationalMatrix(
        [
            [-1, -1, -1, 0, 0, 0],
            [1, 0, 0, -1, -1, 0],
            [0, 1, 0, 1, 0, -1],
            [0, 0, 1, 0, 1, 1],
        ]
    )
    d2 = RationalMatrix(
        [
            [1, 1, 0, 0],
            [-1, 0, 1, 0],
            [0, -1, -1, 0],
            [1, 0, 0, 1],
            [0, 1, 0, -1],
            [0, 0, 1, 1],
        ]
    )
    return ChainComplex({0: 4, 1: 6, 2: 4}, {1: d1, 2: d2})


class TestChainComplex:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ChainComplex({0: 1, 1: 1}, {1: RationalMatrix([[1, 0]])})

    def test_zero_dims_dropped(self):
        C = ChainComplex({0: 2, 1: 0, 5: 0}, {})
        assert C.lo == 0 and C.hi == 0
        assert C.dim(1) == 0 and C.dim(17) == 0

    def test_missing_diff_is_zero(self):
        C = ChainComplex({0: 1, 1: 1}, {})
        assert C.diff(1).is_zero() and C.diff(1).shape == (1, 1)

    def test_violations_catch_bad_square(self):
        d1 = RationalMatrix([[1]])
        d2 = RationalMatrix([[1]])
        C = ChainComplex({0: 1, 1: 1, 2: 1}, {1: d1, 2: d2})
        # the failing square d_1 o d_2 is reported at its left degree
        assert C.violations() == [1]
        with pytest.raises(CertificateError):
            C.require_valid()

    def test_json_round_trip_and_string_keys(self):
        C = _two_sphere_complex()
        data = C.to_json()
        text = json.dumps(data, sort_keys=True)
        again = ChainComplex.from_json(json.loads(text))
        assert again == C
        # degree keys are lists or string-keyed, never int keys in the dump
        assert all(isinstance(k, str) for k in json.dumps(data) and data)

    def test_immutability(self):
        C = _interval_complex()
        with pytest.raises(AttributeError):
            C.presentation = "cochain"  # type: ignore[misc]


class TestHomology:
    def test_interval(self):
        C = _interval_complex()
        assert homology_dims(C) == {0: 1, 1: 0}
        rec = homology(C, 0)
        assert rec.dim == 1 and len(rec.representatives) == 1

    def test_circle(self):
        assert homology_dims(_circle_complex()) == {0: 1, 1: 1}

    def test_two_sphere(self):
        assert homology_dims(_two_sphere_complex()) == {0: 1, 1: 0, 2: 1}

    def test_is_exact_and_skip(self):
        d1 = RationalMatrix([[1]])
        C = ChainComplex({0: 1, 1: 1}, {1: d1})
        assert is_exact(C)
        D = _interval_complex()
        assert not is_exact(D)
        assert is_exact(D, skip_degrees=[0])

    def test_representatives_are_cycles_spanning_homology(self):
        C = _circle_complex()
        rec = homology(C, 1)
        for v in rec.representatives:
            assert all(x == 0 for x in C.diff(1).apply(v))


class TestChainMap:
    def test_identity_cone_is_exact(self):
        C = _circle_complex()
        f = ChainMap(C, C, {n: RationalMatrix.identity(C.dim(n)) for n in C.degrees()})
        f.require_chain_map()
        cone = mapping_cone(f)
        assert is_exact(cone)

    def test_zero_map_cone_stacks_homology(self):
        C = _interval_complex()
        f = ChainMap(C, C, {})
        cone = mapping_cone(f)
        hd = homology_dims(cone)
        # cone of 0 is the direct sum of the shift and the target
        assert hd[0] == 1 and hd[1] == 1 and hd[2] == 0

    def test_non_chain_map_rejected(self):
        C = ChainComplex({0: 1, 1: 1}, {1: RationalMatrix([[1]])})
        D = ChainComplex({0: 1, 1: 1}, {1: RationalMatrix([[0]])})
        f = ChainMap(C, D, {0: RationalMatrix([[1]]), 1: RationalMatrix([[1]])})
        assert f.violations() == [1]
        with pytest.raises(CertificateError):
            mapping_cone(f)

    def test_component_shape_check(self):
        C = _interval_complex()
        with pytest.raises(ValueError):
            ChainMap(C, C, {0: RationalMatrix([[1]])})


class TestTruncation:
    def test_truncation_kills_homology_above_only(self):
        C = _two_sphere_complex()
        T, _ = truncate_canonical(C, 1)
        hd = homology_dims(T)
        assert hd.get(2, 0) == 0
        assert hd[0] == 1 and hd[1] == 0
        full, data = truncate_canonical(C, 5)
        assert full is C and data is None

    def test_truncation_data_projection_inclusion(self):
        C = _two_sphere_complex()
        T, data = truncate_canonical(C, 1)
        assert data is not None and data.degree == 1
        # projection then inclusion is idempotent on the quotient
        P, I = data.projection, data.inclusion
        assert P @ I == RationalMatrix.identity(T.dim(1))
        # boundaries die under the projection
        assert (P @ C.diff(2)).is_zero()

    def test_truncation_at_zero_gives_h0(self):
        C = _circle_complex()
        T, _ = truncate_canonical(C, 0)
        assert homology_dims(T) == {0: 1}

    def test_rejects_negative_support(self):
        C = ChainComplex({-1: 1}, {})
        with pytest.raises(ValueError):
            truncate_canonical(C, 0)


def test_hom_into_space_dualizes():
    C = _circle_complex()
    H = hom_into_space(C, 1)
    assert H.presentation == "cochain"
    assert cohomology_dims(H) == {0: 1, 1: 1}


def test_hom_constrained_full_basis_matches_dual():
    C = _interval_complex()

    def full_basis(n):
        out = []
        for i in range(1):
            for j in range(C.dim(n)):
                M = [[Fraction(0)] * C.dim(n)]
                M[i][j] = Fraction(1)
                out.append(RationalMatrix(M, ncols=C.dim(n)))
        return out

    bases = {n: full_basis(n) for n in C.degrees()}
    H = hom_constrained(C, bases, 1)
    assert cohomology_dims(H) == cohomology_dims(hom_into_space(C, 1))


def test_hom_constrained_rejects_non_subcomplex():
    # d_1 sends the only functional to [1, 1], outside the span of [1, 0]
    C = ChainComplex({0: 1, 1: 2}, {1: RationalMatrix([[1, 1]])})
    bases = {
        0: [RationalMatrix([[1]])],
        1: [RationalMatrix([[1, 0]])],
    }
    with pytest.raises(CertificateError):
        hom_constrained(C, bases, 1)


@st.composite
def _complexes(draw):
    """Random complexes with d o d = 0: each d_{n+1} maps into ker d_n."""
    lo = draw(st.integers(-2, 1))
    dims = draw(st.lists(st.integers(0, 4), min_size=1, max_size=4))
    entry = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2)])
    diffs = {}
    for k in range(1, len(dims)):
        src, tgt = dims[k], dims[k - 1]
        prev = diffs.get(lo + k - 1)
        if prev is None:
            kernel = [tuple(int(a == i) for a in range(tgt)) for i in range(tgt)]
        else:
            _, kernel, _ = rank_kernel_image(prev)
        if not kernel or not src:
            continue
        coeffs = draw(st.lists(st.lists(entry, min_size=src, max_size=src),
                               min_size=len(kernel), max_size=len(kernel)))
        K = RationalMatrix.from_columns(kernel)
        diffs[lo + k] = K @ RationalMatrix(coeffs, ncols=src)
    return ChainComplex({lo + k: d for k, d in enumerate(dims)}, diffs)


@given(_complexes())
def test_homology_dims_match_homology_records(C):
    assert homology_dims(C) == {n: homology(C, n).dim for n in C.degrees()}
