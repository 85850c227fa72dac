"""Group-algebra subcommands: ``wall-demo``, ``wall-build`` and ``ext-crossed``.

Each handler takes a JSON-plain inputs dict and returns the full dump; the
rechecks re-audit a stored dump from its raw matrices, the wall rechecks with
the same certificate functions the handlers use.  ``wallforge.cli``
imports this module the first time it runs or replays one of these jobs.
``wall`` is imported inside the functions that use it, so ``ext-crossed``
never loads it.
"""

from __future__ import annotations

from fractions import Fraction

from wallforge.cli_common import (
    SCHEMA,
    _as_int,
    _dim_list,
    _InputError,
    _matrix_from_json,
    _parsed,
)
from wallforge.complexes import CertificateError, homology_dims
from wallforge.groupalg import (
    AlgebraPresentation,
    FiniteGroupTable,
    ModulePresentation,
    _left_mult_matrices,
    crossed_ext_compare,
    crossed_module,
    crossed_product,
    exterior_subsets,
    free_resolution,
)
from wallforge.linalg import RationalMatrix, rank_kernel_image, solve_matrix


def _module_from_json(A: AlgebraPresentation, data) -> ModulePresentation:
    def build(doc):
        actions = [RationalMatrix.from_json(m) for m in doc["actions"]]
        return ModulePresentation(A, actions)

    return _parsed(build, data, "module presentation")


def _group_by_name(name) -> FiniteGroupTable:
    label = str(name)
    if label == "S3":
        return FiniteGroupTable.symmetric3()
    if label == "D4":
        return FiniteGroupTable.dihedral(4)
    if label == "Q8":
        return FiniteGroupTable.quaternion8()
    if label.startswith("Z") and label[1:].isdigit():
        n = int(label[1:])
        if n >= 1:
            return FiniteGroupTable.cyclic(n)
    raise _InputError(f"unknown group {label!r}; use Z<n>, S3, D4, or Q8")


def _augmentation_ideal(
    A: AlgebraPresentation,
) -> tuple[ModulePresentation, RationalMatrix]:
    """The kernel of the canonical augmentation, with its inclusion matrix."""
    values = A.augmentation_values()
    if values is None:
        raise ValueError("the algebra exposes no canonical augmentation")
    functional = RationalMatrix([list(values)], ncols=A.dim)
    _, kernel, _ = rank_kernel_image(functional)
    incl = RationalMatrix.from_columns(kernel, nrows=A.dim)
    moved = [L @ incl for L in _left_mult_matrices(A)]
    restricted = solve_matrix(incl, RationalMatrix.hstack(moved))
    if restricted is None:
        raise ValueError("augmentation kernel is not closed under the action")
    k = incl.ncols
    actions = [restricted.submatrix(range(k), range(i * k, i * k + k)) for i in range(A.dim)]
    return ModulePresentation(A, actions), incl


def _assembly_certificates(W) -> dict:
    """The certificates of an assembly whose identities are verified.

    ``build_wall`` and ``wall_from_json`` verify the connecting-map
    identities of every assembly they return; the total complex checks its
    boundary square.
    """
    from wallforge.wall import base_complex, total_complex

    total = total_complex(W)
    base = base_complex(W)
    return {
        "induction_identities": "verified",
        "delta_squared": "zero",
        "total_homology": _dim_list(homology_dims(total), total.hi),
        "base_homology": _dim_list(homology_dims(base), base.hi),
    }


def _truncated_certificates(Wt) -> dict:
    """The certificates of a truncated assembly: its total complex is
    quasi-isomorphic to the base, so their Betti numbers agree."""
    from wallforge.wall import augmentation_quasi_iso

    total, cert = augmentation_quasi_iso(Wt)
    betti_total = _dim_list(cert.total_homology, total.hi)
    betti_base = _dim_list(cert.base_homology, total.hi)
    if not cert.betti_match:
        raise CertificateError(
            f"total Betti numbers {betti_total} disagree with the base {betti_base}"
        )
    return {
        "delta_squared": "zero",
        "betti_total": betti_total,
        "betti_base": betti_base,
        "betti_match": True,
    }


def _wall_dump_sections(wall, truncate: int | None) -> dict:
    """The dump sections shared by the wall subcommands.

    When a truncation bound is given the columns are cut to complete
    resolutions first, which is what makes the total-versus-base homology
    comparison a theorem rather than an accident of column length.
    """
    from wallforge.wall import truncated_wall

    out = {"assembly": wall.to_json(), "certificates": _assembly_certificates(wall)}
    if truncate is None:
        out["truncated"] = None
        return out
    trunc = truncated_wall(wall, truncate)
    out["truncated"] = {
        "d_bound": truncate,
        "assembly": trunc.to_json(),
        "certificates": _truncated_certificates(trunc),
    }
    return out


def _job_wall_demo(inputs: dict) -> dict:
    from wallforge.wall import build_wall

    degrees = _as_int(inputs["degrees"], "degrees", minimum=1)
    Q = _group_by_name(inputs["group"])
    if Q.order < 2:
        raise _InputError("the demo needs a nontrivial group")
    A = AlgebraPresentation.group_algebra(Q)
    ideal, incl = _augmentation_ideal(A)
    columns = [
        free_resolution(A, ModulePresentation.regular(A), degrees),
        free_resolution(A, ideal, degrees),
    ]
    wall = build_wall(columns, [incl])
    body = _wall_dump_sections(wall, degrees - 1)
    return {
        "schema": SCHEMA,
        "kind": "wall-demo",
        "inputs": inputs,
        "group_order": Q.order,
        **body,
    }


def _job_wall_build(inputs: dict) -> dict:
    from wallforge.wall import build_wall

    job = inputs["job"]
    if not isinstance(job, dict):
        raise _InputError("the job description must be a JSON object")
    if job.get("schema", SCHEMA) != SCHEMA:
        raise _InputError(f"unsupported schema tag {job.get('schema')!r}")
    A = _parsed(AlgebraPresentation.from_json, job.get("algebra"), "algebra")
    module_docs = job.get("modules")
    if not isinstance(module_docs, list) or not module_docs:
        raise _InputError("the job needs a nonempty list of modules")
    modules = [_module_from_json(A, doc) for doc in module_docs]
    map_docs = job.get("maps", [])
    if not isinstance(map_docs, list):
        raise _InputError("the job's maps must be a list")
    maps = [_matrix_from_json(doc) for doc in map_docs]
    if len(maps) != len(modules) - 1:
        raise _InputError(
            f"{len(modules)} modules need {len(modules) - 1} maps, got {len(maps)}"
        )
    lengths = job.get("lengths")
    if not isinstance(lengths, list) or len(lengths) != len(modules):
        raise _InputError("the job needs one column length per module")
    # the scan order of generator picks and lifts is fixed; jobs may still
    # name it, as dumps of the wallforge/1 format do
    order = job.get("order", "forward")
    if order != "forward":
        raise _InputError(f"order must be 'forward', got {order!r}")
    resolutions = [
        free_resolution(A, M, _as_int(L, "column length", minimum=0))
        for M, L in zip(modules, lengths)
    ]
    wall = build_wall(resolutions, maps)
    truncate = job.get("truncate")
    if truncate is not None:
        truncate = _as_int(truncate, "truncate", minimum=0)
    body = _wall_dump_sections(wall, truncate)
    return {"schema": SCHEMA, "kind": "wall-build", "inputs": inputs, **body}


# configured crossed-product comparisons: generator-space matrices for the
# group action on each exterior algebra, keyed by (group name, rank) and then
# by the generator's index in the group table (1 generates Z<n>; in S3, 3 is
# a reflection s and 1 a rotation r)
_EXT_ACTIONS: dict[tuple[str, int], dict[int, list[list[int]]]] = {
    ("Z2", 1): {1: [[-1]]},
    ("Z4", 1): {1: [[-1]]},
    ("Z6", 1): {1: [[-1]]},
    ("S3", 1): {3: [[-1]], 1: [[1]]},
    ("Z2", 2): {1: [[0, 1], [1, 0]]},
    ("Z3", 2): {1: [[0, -1], [1, -1]]},
    ("Z4", 2): {1: [[0, -1], [1, 0]]},
    ("Z6", 2): {1: [[1, -1], [1, 0]]},
    ("S3", 2): {3: [[0, 1], [1, 0]], 1: [[0, -1], [1, -1]]},
}


def _ext_group_action(
    group: str, rank: int
) -> tuple[FiniteGroupTable, list[RationalMatrix]]:
    key = (str(group), rank)
    if key not in _EXT_ACTIONS:
        known = sorted(f"{g}/rank{r}" for g, r in _EXT_ACTIONS)
        raise _InputError(f"no configured action for {key}; known: {', '.join(known)}")
    Q = _group_by_name(group)
    generators = {
        g: RationalMatrix(grid, ncols=rank) for g, grid in _EXT_ACTIONS[key].items()
    }
    return Q, Q.representation_from_generators(generators)


def _exterior_extension(rank: int, m: RationalMatrix) -> RationalMatrix:
    """Extend a substitution of the generators to the subset basis by minors."""
    subsets = exterior_subsets(rank)
    grid = [[Fraction(0)] * len(subsets) for _ in subsets]
    for b, S in enumerate(subsets):
        for a, T in enumerate(subsets):
            if len(T) != len(S):
                continue
            grid[a][b] = m.submatrix(T, S).det() if S else Fraction(1)
    return RationalMatrix(grid, ncols=len(subsets))


def default_ext_labels(group: str, rank: int) -> list[str]:
    Q, gen_mats = _ext_group_action(group, rank)
    labels = ["trivial"]
    if any(m.det() != 1 for m in gen_mats):
        labels.append("determinant")
    if rank == 2:
        labels.append("generator-space")
    if rank == 1:
        labels.append("nilpotent")
    return labels


def _ext_module_data(
    rank: int, gen_mats: list[RationalMatrix], label: str, da: int
) -> tuple[list[RationalMatrix], list[RationalMatrix]]:
    """Base actions and group operators for one configured module."""

    def scalar_only(mdim: int) -> list[RationalMatrix]:
        ident = RationalMatrix.identity(mdim)
        zero = RationalMatrix.zeros(mdim, mdim)
        return [ident if i == 0 else zero for i in range(da)]

    if label == "trivial":
        return scalar_only(1), [RationalMatrix.identity(1) for _ in gen_mats]
    if label == "determinant":
        return scalar_only(1), [RationalMatrix([[m.det()]], ncols=1) for m in gen_mats]
    if label == "generator-space":
        return scalar_only(rank), list(gen_mats)
    if label == "nilpotent":
        if rank != 1:
            raise _InputError("the nilpotent module is configured for rank 1 only")
        base = [
            RationalMatrix.identity(2),
            RationalMatrix([[0, 1], [0, 0]], ncols=2),
        ]
        ops = [RationalMatrix.diagonal([1, m.entry(0, 0)]) for m in gen_mats]
        return base, ops
    raise _InputError(f"unknown module label {label!r}")


def _job_ext_crossed(inputs: dict) -> dict:
    rank = _as_int(inputs["rank"], "rank", minimum=1)
    if rank > 2:
        raise _InputError("configured actions stop at rank 2")
    n_max = _as_int(inputs["n_max"], "n_max", minimum=0)
    labels = inputs["modules"]
    if not isinstance(labels, list) or not labels:
        raise _InputError("need a nonempty list of module labels")
    Q, gen_mats = _ext_group_action(inputs["group"], rank)
    A = AlgebraPresentation.exterior_algebra(rank)
    action = [_exterior_extension(rank, m) for m in gen_mats]
    cp = crossed_product(A, Q, action)
    modules = []
    for label in labels:
        base, ops = _ext_module_data(rank, gen_mats, str(label), A.dim)
        modules.append(crossed_module(cp, base, ops))
    reports = []
    for label, rep in zip(labels, crossed_ext_compare(cp, modules, n_max)):
        if not rep.ok:
            raise CertificateError(
                f"Ext comparison fails for module {label!r}: "
                f"crossed {list(rep.lhs_dims)} vs invariants {list(rep.invariant_dims)}"
            )
        entry = {"module": str(label)}
        entry.update(rep.to_json())
        reports.append(entry)
    return {
        "schema": SCHEMA,
        "kind": "ext-crossed",
        "inputs": inputs,
        "algebra_dim": cp.algebra.dim,
        "reports": reports,
        "certificates": {"comparisons": "equal", "pair_count": len(reports)},
    }


def _recheck_wall(dump: dict) -> None:
    """Re-derive every wall certificate from the stored matrices, with the
    functions that wrote them."""
    from wallforge.wall import wall_from_json

    if _assembly_certificates(wall_from_json(dump["assembly"])) != dump["certificates"]:
        raise CertificateError("stored certificates do not match the matrices")
    section = dump.get("truncated")
    if section:
        Wt = wall_from_json(section["assembly"])
        if _truncated_certificates(Wt) != section["certificates"]:
            raise CertificateError("stored truncated certificates do not match the matrices")


def _recheck_ext(dump: dict) -> None:
    for rep in dump["reports"]:
        if rep["crossed_ext_dims"] != rep["invariant_dims"] or not rep["ok"]:
            raise CertificateError(
                f"module {rep['module']!r}: stored dimensions disagree"
            )


JOBS = {
    "wall-demo": _job_wall_demo,
    "wall-build": _job_wall_build,
    "ext-crossed": _job_ext_crossed,
}

RECHECKS = {
    "wall-demo": _recheck_wall,
    "wall-build": _recheck_wall,
    "ext-crossed": _recheck_ext,
}
