"""``ext-crossed`` against a closed form, and the work it does once per job."""

from __future__ import annotations

import json

import pytest

from oracles import determinant, matrix_group, molien_coefficients, trace
from wallforge import groupalg
from wallforge.cli import (
    _EXT_ACTIONS,
    _ext_group_action,
    _ext_module_data,
    _exterior_extension,
    main,
)
from wallforge.groupalg import (
    AlgebraPresentation,
    FiniteGroupTable,
    crossed_ext_compare,
    crossed_module,
    crossed_product,
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
    eps = A.augmentation_values()
    together = crossed_ext_compare(cp, modules, eps, 3)
    apart = [crossed_ext_compare(cp, [M], eps, 3)[0] for M in modules]
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
    [rep] = crossed_ext_compare(cp, [M], A.augmentation_values(), 3)
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
    Q, _ = _ext_group_action(group, rank)
    generators = Q.generators()
    assert Q.identity not in generators
    for labels in label_sets:
        resolutions = _counting(monkeypatch, "free_resolution")
        lifts = _counting(monkeypatch, "_lift_semilinear_chain_map")
        dump = _ext_crossed(capsys, tmp_path, rank, group, labels, n_max=3)
        assert [rep["module"] for rep in dump["reports"]] == labels
        assert len(resolutions) == 2, labels  # E over B and E over A
        assert len(lifts) == len(generators), labels
        monkeypatch.undo()
