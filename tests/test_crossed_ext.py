"""``ext-crossed`` against a closed form, and the work it does once per job."""

from __future__ import annotations

import json

import pytest

from oracles import determinant, matrix_group, molien_coefficients, trace
from wallforge import groupalg
from wallforge.cli import main
from wallforge.cli_groupalg import (
    _EXT_ACTIONS,
    _ext_group_action,
    _ext_module_data,
    _exterior_extension,
    default_ext_labels,
)
from wallforge.complexes import CertificateError
from wallforge.groupalg import (
    AlgebraPresentation,
    FiniteGroupTable,
    ModulePresentation,
    crossed_ext_compare,
    crossed_module,
    crossed_product,
    ext_action_matrices,
    ext_dims,
    invariants,
)
from wallforge.linalg import RationalMatrix

# the modules on which the exterior generators act by zero, with their
# characters as functions of the matrix g acting on the generators
_E_TRIVIAL = {
    "trivial": lambda g: 1,
    "determinant": determinant,
    "generator-space": trace,
}

# every configured action but S3 on the plane, the slowest (about 3.5 s)
_MOLIEN_CASES = [key for key in _EXT_ACTIONS if key[1] == 1] + [
    ("Z2", 2),
    ("Z3", 2),
    ("Z4", 2),
    ("Z6", 2),
]


def _ext_crossed(capsys, tmp_path, rank, group, labels=None, n_max=4):
    out = tmp_path / f"ext-{rank}-{group}.json"
    argv = ["ext-crossed", "--rank", str(rank), "--group", group, "--n-max", str(n_max)]
    if labels is not None:
        argv += ["--modules", ",".join(labels)]
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    return json.loads(out.read_text())


@pytest.mark.parametrize("group,rank", _MOLIEN_CASES)
def test_e_trivial_modules_match_the_molien_series(capsys, tmp_path, group, rank):
    """Sym(V*) (x) W, Q-invariants: (1/|Q|) sum_g chi_W(g) / det(1 - t g)."""
    dump = _ext_crossed(capsys, tmp_path, rank, group)
    G = matrix_group(list(_EXT_ACTIONS[(group, rank)].values()))
    checked = 0
    for rep in dump["reports"]:
        character = _E_TRIVIAL.get(rep["module"])
        if character is None:
            continue  # the nilpotent module is not E-trivial
        want = molien_coefficients(G, character, 4)
        assert rep["crossed_ext_dims"] == rep["invariant_dims"] == want, rep["module"]
        checked += 1
    assert checked >= 1


def test_molien_series_of_known_invariant_rings():
    """Textbook cases: the series counts invariant polynomials by degree."""
    # -1 on a plane: the invariants are the even-degree polynomials
    assert molien_coefficients(matrix_group([[[-1, 0], [0, -1]]]), lambda g: 1, 4) == [1, 0, 3, 0, 5]
    # S3 on its reflection plane: polynomial invariants of degrees 2 and 3
    S3 = matrix_group([[[0, 1], [1, 0]], [[0, -1], [1, -1]]])
    assert len(S3) == 6
    assert molien_coefficients(S3, lambda g: 1, 6) == [1, 0, 1, 1, 1, 1, 2]
    # the alternating polynomials: the invariants times the degree-3 discriminant
    assert molien_coefficients(S3, determinant, 6) == [0, 0, 0, 1, 0, 1, 1]


def _setup(group, rank):
    Q, gen_mats = _ext_group_action(group, rank)
    A = AlgebraPresentation.exterior_algebra(rank)
    cp = crossed_product(A, Q, [_exterior_extension(rank, m) for m in gen_mats])
    return cp, gen_mats, A


@pytest.mark.parametrize("group,rank,labels", [
    ("Z4", 1, ["trivial", "determinant", "nilpotent"]),
    ("Z2", 2, ["trivial", "determinant", "generator-space"]),
])
def test_one_call_for_many_modules_equals_one_call_each(group, rank, labels):
    cp, gen_mats, A = _setup(group, rank)
    modules = [
        crossed_module(cp, *_ext_module_data(rank, gen_mats, label, A.dim)) for label in labels
    ]
    together = crossed_ext_compare(cp, modules, 3)
    apart = [crossed_ext_compare(cp, [M], 3)[0] for M in modules]
    assert together == apart
    assert all(rep.ok for rep in together)


def test_trivial_group_has_no_generators_and_keeps_every_class():
    Q = FiniteGroupTable.trivial()
    assert Q.generators() == []
    A = AlgebraPresentation.exterior_algebra(1)
    cp = crossed_product(A, Q, [RationalMatrix.identity(2)])
    M = crossed_module(
        cp, [RationalMatrix.identity(1), RationalMatrix.zeros(1, 1)], [RationalMatrix.identity(1)]
    )
    [rep] = crossed_ext_compare(cp, [M], 3)
    assert rep.ok
    assert rep.lhs_dims == rep.base_ext_dims == rep.invariant_dims == (1, 1, 1, 1)


def _counting(monkeypatch, name):
    calls = []
    original = getattr(groupalg, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(groupalg, name, counted)
    return calls


@pytest.mark.parametrize("group,rank,label_sets", [
    ("Z2", 1, [["trivial"], ["trivial", "determinant", "nilpotent"]]),
    ("S3", 1, [["trivial"], ["trivial", "determinant"]]),
    ("Z3", 2, [["generator-space"], ["trivial", "generator-space"]]),
])
def test_resolutions_and_lifts_are_built_once_per_job(
    monkeypatch, capsys, tmp_path, group, rank, label_sets
):
    """One resolution of E over B per job, and one Koszul complex, with the
    symmetric powers of each generator's action, per module."""
    Q, _ = _ext_group_action(group, rank)
    generators = Q.generators()
    assert Q.identity not in generators
    for labels in label_sets:
        resolutions = _counting(monkeypatch, "free_resolution")
        koszul = _counting(monkeypatch, "koszul_cochain_complex")
        powers = _counting(monkeypatch, "_symmetric_powers")
        dump = _ext_crossed(capsys, tmp_path, rank, group, labels, n_max=3)
        assert [rep["module"] for rep in dump["reports"]] == labels
        assert len(resolutions) == 1, labels  # E over B
        assert len(koszul) == len(labels), labels
        assert len(powers) == len(generators) * len(labels), labels
        monkeypatch.undo()


# ---------------------------------------------------------------------------
# the Koszul side alone: cheap enough for every configured action
# ---------------------------------------------------------------------------


def _koszul_dims(cp, M, n_max):
    """base_ext_dims and invariant_dims as ``crossed_ext_compare`` reads them."""
    cochain, operators = groupalg._koszul_side(cp, M, n_max + 1)
    base, inv = [], []
    for n in range(n_max + 1):
        mats, h = ext_action_matrices(cochain, operators, n)
        base.append(h)
        inv.append(len(invariants(mats)) if h and mats else h)
    return base, inv


@pytest.mark.parametrize("group,rank", list(_EXT_ACTIONS))
def test_base_ext_dims_match_a_free_resolution_over_the_base(group, rank):
    cp, gen_mats, A = _setup(group, rank)
    E_A = ModulePresentation.one_dimensional(A, A.augmentation_values())
    for label in default_ext_labels(group, rank):
        base_actions, ops = _ext_module_data(rank, gen_mats, label, A.dim)
        M = crossed_module(cp, base_actions, ops)
        N = ModulePresentation(A, base_actions)
        assert _koszul_dims(cp, M, 6)[0] == ext_dims(A, E_A, N, 6), label


@pytest.mark.parametrize("group,rank", list(_EXT_ACTIONS))
def test_koszul_invariants_match_the_molien_series(group, rank):
    """Every configured action through degree 6, S3 on the plane included."""
    cp, gen_mats, A = _setup(group, rank)
    G = matrix_group(list(_EXT_ACTIONS[(group, rank)].values()))
    checked = 0
    for label in default_ext_labels(group, rank):
        character = _E_TRIVIAL.get(label)
        if character is None:
            continue  # the nilpotent module is not E-trivial
        M = crossed_module(cp, *_ext_module_data(rank, gen_mats, label, A.dim))
        assert _koszul_dims(cp, M, 6)[1] == molien_coefficients(G, character, 6), label
        checked += 1
    assert checked >= 1


def _self_module(cp):
    """A itself, with A acting by left multiplication and q by sigma_q."""
    A = cp.base
    left = [A.left_mult_matrix(A.basis_vector(i)) for i in range(A.dim)]
    return crossed_module(cp, left, list(cp.action))


@pytest.mark.parametrize("group,rank", [("Z2", 1), ("S3", 2)])
def test_operators_commute_with_d_on_modules_where_d_is_not_zero(group, rank):
    """On E-trivial modules d is zero and the check is vacuous.  Here it is
    not: the rank-1 nilpotent module, and Lambda(V) itself over S3, where
    sigma_r is not its own inverse, so p -> p o q would fail the check."""
    cp, gen_mats, A = _setup(group, rank)
    if rank == 1:
        M = crossed_module(cp, *_ext_module_data(1, gen_mats, "nilpotent", A.dim))
    else:
        M = _self_module(cp)
    cochain, operators = groupalg._koszul_side(cp, M, 4)
    for n in range(4):
        d = cochain.diff(-n)
        assert not d.is_zero()
        assert all(d @ ops[n] == ops[n + 1] @ d for ops in operators.values())
    # both modules are injective over A: Ext is Hom, in degree 0 only
    assert ext_action_matrices(cochain, operators, 1)[1] == 0
    # the wrong sign on degree 2 breaks the square out of degree 1
    wrong = {q: ops[:2] + [-op for op in ops[2:]] for q, ops in operators.items()}
    with pytest.raises(CertificateError, match="does not commute with d at degree 1"):
        ext_action_matrices(cochain, wrong, 1)


def _sign_flip_of_x0_twisted_by_x0x1():
    """Z2 on Lambda(x0, x1) by x0 -> x0 + 2 x0x1, x1 -> -x1: an action of
    order 2 that does not map the span of x0, x1 into itself."""
    sigma = RationalMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 2, 0, -1]], ncols=4)
    A = AlgebraPresentation.exterior_algebra(2)
    return crossed_product(A, FiniteGroupTable.cyclic(2), [RationalMatrix.identity(4), sigma])


@pytest.mark.parametrize("case,message", [
    ("group algebra base", "not an exterior algebra"),
    ("ungraded action", "does not preserve the span"),
])
def test_the_closed_form_refuses_what_it_does_not_cover(case, message):
    if case == "group algebra base":
        Z2 = FiniteGroupTable.cyclic(2)
        A = AlgebraPresentation.group_algebra(Z2)
        cp = crossed_product(A, FiniteGroupTable.trivial(), [RationalMatrix.identity(2)])
    else:
        cp = _sign_flip_of_x0_twisted_by_x0x1()
    trivial = crossed_module(
        cp,
        [RationalMatrix.diagonal([c]) for c in cp.base.augmentation_values()],
        [RationalMatrix.identity(1)] * cp.group.order,
    )
    with pytest.raises(ValueError, match=message):
        crossed_ext_compare(cp, [trivial], 2)
