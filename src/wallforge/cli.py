"""Command-line front door for the workbench.

Each subcommand loads JSON descriptions, runs one verification pipeline,
and emits a self-contained dump: raw matrices, the certified claims, and
an echo of the inputs that produced them.  Dumps are deterministic
(sorted keys, recorded seeds), so re-running a job reproduces its output
byte for byte, and ``verify-replay`` can re-audit any dump later: first
it re-checks the stored certificates directly from the raw matrices
(boundary squares, connecting-map identities, homology dimensions), then
it reproduces the whole dump from the recorded inputs and compares.

Only ``arith``, ``linalg`` and ``complexes``, which every job uses, are
imported here.  Each job imports the algebra modules it runs (``tree``,
``lie``, ``bch``, ``groupalg``, ``wall``) inside its own function, so a
process pays start-up only for the subcommand it runs.

Exit codes: 0 success, 1 invalid input, 2 a failed mathematical
certificate, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from wallforge.arith import PExponent, bch_constants, p_valuation, radius_params
from wallforge.complexes import CertificateError, ChainComplex, homology_dims
from wallforge.linalg import RationalMatrix, rank_kernel_image, solve_matrix

if TYPE_CHECKING:
    from wallforge.bch import GaussPolynomial
    from wallforge.groupalg import AlgebraPresentation, FiniteGroupTable, ModulePresentation

SCHEMA = "wallforge/1"


class _UsageError(ValueError):
    """Raised in place of argparse's SystemExit so main can return 1."""


class _InputError(ValueError):
    """Job inputs that are missing, mistyped or out of the job's range."""


class _RecordedInputs(dict):
    """A dump's recorded inputs, where a missing field is an input error."""

    def __missing__(self, key):
        raise _InputError(f"missing field {key!r}")


@dataclass(frozen=True)
class JobSpec:
    """One resolved invocation: which pipeline, which files, which knobs."""

    subcommand: str
    input_paths: Tuple[str, ...] = ()
    output_path: Optional[str] = None
    options: Dict[str, object] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# small input plumbing
# ---------------------------------------------------------------------------


def _load_json(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object at top level")
    return data


def _parsed(builder, data, what: str):
    """Run a from_json style builder, folding shape errors into ValueError."""
    try:
        return builder(data)
    except (KeyError, TypeError, IndexError, ValueError, ZeroDivisionError) as exc:
        raise _InputError(f"malformed {what}: {exc!r}") from exc


def _as_int(value, what: str, minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _InputError(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise _InputError(f"{what} must be at least {minimum}, got {value}")
    return value


def _as_bool(value, what: str) -> bool:
    if type(value) is not bool:
        raise _InputError(f"{what} must be true or false, got {value!r}")
    return value


def _as_fraction(value, what: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise _InputError(f"{what} must be an integer or a fraction string, got {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise _InputError(f"{what} is not a rational number: {value!r}") from exc


def _check_prime(p: int) -> int:
    _as_int(p, "p", minimum=2)
    d = 2
    while d * d <= p:
        if p % d == 0:
            raise _InputError(f"p must be prime, got {p}")
        d += 1
    return p


def _matrix_from_json(data) -> RationalMatrix:
    return _parsed(RationalMatrix.from_json, data, "matrix")


def _module_from_json(A: AlgebraPresentation, data) -> ModulePresentation:
    from wallforge.groupalg import ModulePresentation

    def build(doc):
        actions = [RationalMatrix.from_json(m) for m in doc["actions"]]
        return ModulePresentation(A, actions)

    return _parsed(build, data, "module presentation")


def _render(dump: dict) -> str:
    return json.dumps(dump, sort_keys=True, indent=2) + "\n"


def _emit(dump: dict, out: Optional[str]) -> None:
    text = _render(dump)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _dim_list(dims: Dict[int, int], hi: int) -> List[int]:
    return [dims.get(n, 0) for n in range(hi + 1)]


def _min_valuation(m: RationalMatrix, p: int) -> Optional[int]:
    """Least entry valuation, or None for the zero matrix."""
    best: Optional[int] = None
    for _, _, x in m.nonzero_entries():
        v = int(p_valuation(x, p))
        if best is None or v < best:
            best = v
    return best


def _group_by_name(name) -> FiniteGroupTable:
    from wallforge.groupalg import FiniteGroupTable

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
) -> Tuple[ModulePresentation, RationalMatrix]:
    """The kernel of the canonical augmentation, with its inclusion matrix."""
    from wallforge.groupalg import ModulePresentation

    values = A.augmentation_values()
    if values is None:
        raise ValueError("the algebra exposes no canonical augmentation")
    functional = RationalMatrix([list(values)], ncols=A.dim)
    _, kernel, _ = rank_kernel_image(functional)
    incl = RationalMatrix.from_columns(kernel, nrows=A.dim)
    actions = []
    for i in range(A.dim):
        L = A.left_mult_matrix(A.basis_vector(i))
        restricted = solve_matrix(incl, L @ incl)
        if restricted is None:
            raise ValueError("augmentation kernel is not closed under the action")
        actions.append(restricted)
    return ModulePresentation(A, actions), incl


# ---------------------------------------------------------------------------
# job handlers; each takes a JSON-plain inputs dict and returns the full dump
# ---------------------------------------------------------------------------


def _job_ce_homology(inputs: dict) -> dict:
    from wallforge.lie import LieAlgebra, LieDataError, LieModule, ce_complex

    g = _parsed(LieAlgebra.from_json, inputs["lie"], "Lie algebra")
    mod_doc = inputs.get("module")
    if mod_doc is None:
        M = LieModule.trivial(g)
    else:
        M = _parsed(
            lambda doc: LieModule(
                g, [RationalMatrix.from_json(a) for a in doc["actions"]]
            ),
            mod_doc,
            "Lie module",
        )
    try:
        C = ce_complex(g, M)  # validates the structure constants and the action
    except LieDataError as exc:
        v = exc.violations
        if v.antisymmetry or v.jacobi:
            raise _InputError(
                "structure constants rejected: "
                f"antisymmetry {list(v.antisymmetry)}, jacobi {list(v.jacobi)}"
            ) from None
        raise _InputError(f"module action rejected: {list(v.module)}") from None
    C.require_valid()
    return {
        "schema": SCHEMA,
        "kind": "ce-homology",
        "inputs": inputs,
        "complex": C.to_json(),
        "betti": _dim_list(homology_dims(C), g.dim),
        "certificates": {"d_squared": "zero"},
    }


def _wall_dump_sections(wall, truncate: Optional[int]) -> dict:
    """Certificates shared by the wall subcommands.

    ``wall`` comes from ``build_wall``, which verifies the connecting-map
    identities of every assembly it returns; the total complex checks its
    boundary square.  When a truncation bound is given the columns are cut
    to complete resolutions first, which is what makes the total-versus-base
    homology comparison a theorem rather than an accident of column length.
    """
    from wallforge.wall import (
        augmentation_quasi_iso,
        base_complex,
        total_complex,
        truncated_wall,
    )

    total = total_complex(wall)
    base = base_complex(wall)
    out = {
        "assembly": wall.to_json(),
        "certificates": {
            "induction_identities": "verified",
            "delta_squared": "zero",
            "total_homology": _dim_list(homology_dims(total), total.hi),
            "base_homology": _dim_list(homology_dims(base), base.hi),
        },
    }
    if truncate is None:
        out["truncated"] = None
        return out
    trunc = truncated_wall(wall, truncate)
    eps, cert = augmentation_quasi_iso(trunc)
    hi = eps.source.hi
    betti_total = _dim_list(cert.total_homology, hi)
    betti_base = _dim_list(cert.base_homology, hi)
    if not cert.betti_match or betti_total != betti_base:
        raise CertificateError(
            f"total Betti numbers {betti_total} disagree with the base {betti_base}"
        )
    out["truncated"] = {
        "d_bound": truncate,
        "assembly": trunc.to_json(),
        "certificates": {
            "delta_squared": "zero",
            "betti_total": betti_total,
            "betti_base": betti_base,
            "betti_match": True,
        },
    }
    return out


def _job_wall_demo(inputs: dict) -> dict:
    from wallforge.groupalg import AlgebraPresentation, ModulePresentation, free_resolution
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
    from wallforge.groupalg import AlgebraPresentation, free_resolution
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
    order = job.get("order", "forward")
    if order not in ("forward", "reversed"):
        raise _InputError(f"order must be 'forward' or 'reversed', got {order!r}")
    resolutions = [
        free_resolution(A, M, _as_int(L, "column length", minimum=0), order=order)
        for M, L in zip(modules, lengths)
    ]
    wall = build_wall(resolutions, maps, order=order)
    truncate = job.get("truncate")
    if truncate is not None:
        truncate = _as_int(truncate, "truncate", minimum=0)
    body = _wall_dump_sections(wall, truncate)
    return {"schema": SCHEMA, "kind": "wall-build", "inputs": inputs, **body}


def _job_tree_ss(inputs: dict) -> dict:
    from wallforge.tree import FiniteSubtree, TreeCoefficientSystem, ss_chain_complex

    p = _check_prime(inputs["p"])
    radius = _as_int(inputs["radius"], "radius", minimum=0)
    fiber = _as_int(inputs["fiber_dim"], "fiber dimension", minimum=1)
    ball = FiniteSubtree.ball(p, radius)
    expected = 1 + (p + 1) * (p**radius - 1) // (p - 1)
    if ball.vertex_count != expected:
        raise CertificateError(
            f"ball of radius {radius} has {ball.vertex_count} vertices, "
            f"the count formula gives {expected}"
        )
    cs = TreeCoefficientSystem.constant(ball, dim=fiber, augmented=True)
    C, aug = ss_chain_complex(cs)
    dims = homology_dims(C)
    h0, h1 = dims.get(0, 0), dims.get(1, 0)
    if (h0, h1) != (fiber, 0):
        raise CertificateError(
            f"constant system on the ball has homology ({h0}, {h1}), "
            f"expected ({fiber}, 0)"
        )
    return {
        "schema": SCHEMA,
        "kind": "tree-ss",
        "inputs": inputs,
        "ball": ball.to_json(),
        "complex": C.to_json(),
        "augmentation": aug.component(0).to_json(),
        "certificates": {
            "vertex_count": ball.vertex_count,
            "edge_count": ball.edge_count,
            "count_formula": "matches",
            "homology": [h0, h1],
            "augmentation_square": "zero",
        },
    }


def _job_pushout_check(inputs: dict) -> dict:
    from wallforge.tree import FiniteSubtree, TreeVertex, is_convex, pushout_complex

    p = _check_prime(inputs["p"])
    radius = _as_int(inputs["radius"], "radius", minimum=0)
    copies = _as_int(inputs["copies"], "copies", minimum=1)
    convex = _as_bool(inputs["convex"], "convex")
    ambient = FiniteSubtree.ball(p, radius)
    if convex:
        shared_radius = _as_int(inputs["shared_radius"], "shared radius", minimum=0)
        if shared_radius > radius:
            raise _InputError("the shared ball must sit inside the ambient ball")
        shared = FiniteSubtree.ball(p, shared_radius)
    else:
        if radius < 1:
            raise _InputError("the non-convex control needs radius at least 1")
        nb = TreeVertex.base(p).neighbors()
        shared = FiniteSubtree.from_vertices(p, [nb[0], nb[1]])
    po = pushout_complex(ambient, shared, copies)
    dims = homology_dims(po.complex)
    h0, h1 = dims.get(0, 0), dims.get(1, 0)
    if convex:
        if not is_convex(shared):
            raise CertificateError("shared ball failed its own convexity check")
        if (h0 - 1, h1) != (0, 0):
            raise CertificateError(
                f"pushout along a convex piece has reduced homology ({h0 - 1}, {h1})"
            )
        verdict = "contractible"
    else:
        if is_convex(shared):
            raise CertificateError("control subtree is unexpectedly convex")
        if h1 < 1:
            raise CertificateError("non-convex control produced no cycle")
        verdict = "cycle-detected"
    return {
        "schema": SCHEMA,
        "kind": "pushout-check",
        "inputs": inputs,
        "complex": po.complex.to_json(),
        "cells": {"vertices": len(po.vertex_labels), "edges": len(po.edge_labels)},
        "certificates": {
            "convex": convex,
            "homology": [h0, h1],
            "reduced_homology": [h0 - 1, h1],
            "verdict": verdict,
        },
    }


def _job_cosimplicial_check(inputs: dict) -> dict:
    from wallforge.tree import FiniteSubtree, cosimplicial_row_check

    p = _check_prime(inputs["p"])
    radius = _as_int(inputs["radius"], "radius", minimum=0)
    shared_radius = _as_int(inputs["shared_radius"], "shared radius", minimum=0)
    q = _as_int(inputs["q"], "q")
    j_max = _as_int(inputs["j_max"], "j_max", minimum=0)
    if shared_radius > radius:
        raise _InputError("the shared ball must sit inside the ambient ball")
    ambient = FiniteSubtree.ball(p, radius)
    shared = FiniteSubtree.ball(p, shared_radius)
    report = cosimplicial_row_check(ambient, shared, q, j_max)
    if not report.ok:
        raise CertificateError(
            f"cosimplicial row fails: cohomology {list(report.cohomology)}, "
            f"alternation_ok {report.alternation_ok}"
        )
    return {
        "schema": SCHEMA,
        "kind": "cosimplicial-check",
        "inputs": inputs,
        "report": report.to_json(),
        "certificates": {
            "cohomology": list(report.cohomology),
            "degree_zero": report.expected_degree_zero,
            "alternation": "verified",
        },
    }


def _builtin_bch_pairs(p: int, size: int) -> List[dict]:
    """Two stock pairs of strictly upper triangular matrices in p^kappa Z."""
    _check_prime(p)
    _as_int(size, "size", minimum=2)
    kappa = bch_constants(1, p).kappa
    scale = Fraction(p) ** kappa

    def mat(entries: Dict[Tuple[int, int], int]) -> dict:
        grid = [[Fraction(0)] * size for _ in range(size)]
        for (i, j), v in entries.items():
            if j < size:
                grid[i][j] = scale * v
        return RationalMatrix(grid, ncols=size).to_json()

    shift = {(i, i + 1): 1 for i in range(size - 1)}
    mixed = {(i, i + 1): (1 if i % 2 == 0 else -1) for i in range(size - 1)}
    mixed[(0, 2)] = 1
    weighted = {(i, i + 1): i + 1 for i in range(size - 1)}
    sparse = {(0, 1): 1, (1, 2): -2}
    if size > 3:
        sparse[(0, 3)] = 1
    return [
        {"name": "superdiagonal", "x": mat(shift), "y": mat(mixed)},
        {"name": "weighted", "x": mat(weighted), "y": mat(sparse)},
    ]


def _job_bch_verify(inputs: dict) -> dict:
    from wallforge.bch import bch_evaluate_nilpotent

    p = _check_prime(inputs["p"])
    n_max = _as_int(inputs["n_max"], "n_max", minimum=1)
    pairs = inputs["pairs"]
    if not isinstance(pairs, list) or not pairs:
        raise _InputError("need a nonempty list of matrix pairs")
    kappa = bch_constants(1, p).kappa
    results = []
    for pos, pair in enumerate(pairs):
        name = str(pair.get("name", f"pair{pos}")) if isinstance(pair, dict) else ""
        if not isinstance(pair, dict) or "x" not in pair or "y" not in pair:
            raise _InputError(f"pair {pos} must carry matrices 'x' and 'y'")
        x = _matrix_from_json(pair["x"])
        y = _matrix_from_json(pair["y"])
        for label, m in (("x", x), ("y", y)):
            mv = _min_valuation(m, p)
            if mv is not None and mv < kappa:
                raise _InputError(
                    f"{name}.{label} has an entry of valuation {mv}; "
                    f"the powerful condition needs at least {kappa}"
                )
        components = bch_evaluate_nilpotent(x, y, n_max)
        rows = []
        for n in range(1, n_max + 1):
            bound = bch_constants(n, p).bound_exponent
            mv = _min_valuation(components[n - 1], p)
            if mv is not None and Fraction(mv) < bound:
                raise CertificateError(
                    f"{name}: component {n} has valuation {mv}, bound {bound}"
                )
            rows.append(
                {
                    "n": n,
                    "term": components[n - 1].to_json(),
                    "min_valuation": mv,
                    "bound": str(bound),
                }
            )
        results.append({"name": name, "components": rows})
    return {
        "schema": SCHEMA,
        "kind": "bch-verify",
        "inputs": inputs,
        "kappa": kappa,
        "results": results,
        "certificates": {"valuation_bounds": "hold", "pair_count": len(results)},
    }


def _powerful_heisenberg_json(p: int) -> dict:
    from wallforge.lie import LieAlgebra

    kappa = bch_constants(1, p).kappa
    g = LieAlgebra(3, {(0, 1): [0, 0, Fraction(p) ** kappa]})
    return g.to_json()


def _job_group_law(inputs: dict) -> dict:
    from wallforge.bch import group_law_polynomials
    from wallforge.lie import LieAlgebra

    p = _check_prime(inputs["p"])
    N = _as_int(inputs["N"], "N", minimum=1)
    g = _parsed(LieAlgebra.from_json, inputs["lie"], "Lie algebra")
    report = group_law_polynomials(g, p, N)
    if not report.valuation_ok:
        raise CertificateError("a law coefficient falls under the valuation bound")
    if not report.associativity_ok:
        raise CertificateError(f"the law is not associative modulo degree {N + 1}")
    return {
        "schema": SCHEMA,
        "kind": "group-law",
        "inputs": inputs,
        "report": report.to_json(),
        "certificates": {"valuations": "bounded", "associativity": "holds"},
    }


def _random_poly(rng: random.Random, nvars: int, degree: int, p: int) -> GaussPolynomial:
    from wallforge.bch import GaussPolynomial

    terms: Dict[Tuple[int, ...], Fraction] = {}
    for _ in range(rng.randint(2, 5)):
        mono = tuple(rng.randint(0, degree) for _ in range(nvars))
        num = rng.randint(-(p**3), p**3) or 1
        den = rng.randint(1, p**2)
        terms[mono] = Fraction(num, den)
    return GaussPolynomial(nvars, terms)


def _random_padic_integer(rng: random.Random, p: int) -> Fraction:
    den = rng.randint(1, p**2)
    while den % p == 0:
        den = rng.randint(1, p**2)
    return Fraction(rng.randint(-(p**3), p**3), den)


def _job_norms(inputs: dict) -> dict:
    """Seeded random checks: norm multiplicativity and expansion bounds.

    The seed is part of the inputs, so a replay redraws exactly the same
    polynomials and exponent vectors.
    """
    from wallforge.bch import dr_norm_and_expansion, gauss_norm

    p = _check_prime(inputs["p"])
    seed = _as_int(inputs["seed"], "seed")
    n_pairs = _as_int(inputs["pairs"], "pairs", minimum=1)
    nu_count = _as_int(inputs["nu_count"], "nu_count", minimum=0)
    nvars = _as_int(inputs["nvars"], "nvars", minimum=1)
    degree = _as_int(inputs["degree"], "degree", minimum=1)
    expansion_degree = _as_int(inputs["expansion_degree"], "expansion degree", minimum=1)
    exponent = _as_fraction(inputs["radius"], "radius exponent")
    if exponent >= 0:
        raise _InputError("the radius exponent must be negative (a radius below 1)")
    rho = PExponent.of(p, exponent)
    rng = random.Random(seed)
    pair_rows = []
    for i in range(n_pairs):
        f = _random_poly(rng, nvars, degree, p)
        g = _random_poly(rng, nvars, degree, p)
        nf = gauss_norm(f, rho, p)
        ng = gauss_norm(g, rho, p)
        nfg = gauss_norm(f * g, rho, p)
        if nfg != nf * ng:
            raise CertificateError(f"Gauss norm failed to multiply on pair {i}")
        pair_rows.append(
            {
                "f": f.to_json(),
                "g": g.to_json(),
                "norm_f": nf.to_json(),
                "norm_g": ng.to_json(),
                "norm_product": nfg.to_json(),
            }
        )
    nu_rows = []
    for _ in range(nu_count):
        nu = [_random_padic_integer(rng, p) for _ in range(rng.randint(1, 3))]
        rep = dr_norm_and_expansion(nu, rho, p, expansion_degree)
        nu_rows.append(
            {
                "nu": [str(x) for x in nu],
                "norm": rep.norm.to_json(),
                "bound": rep.bound.to_json(),
                "within_bound": rep.within_bound,
            }
        )
    return {
        "schema": SCHEMA,
        "kind": "norms",
        "inputs": inputs,
        "pairs": pair_rows,
        "expansions": nu_rows,
        "certificates": {
            "multiplicativity": "exact",
            "expansion_bound": "holds",
            "pair_count": n_pairs,
            "expansion_count": nu_count,
        },
    }


def _job_radius(inputs: dict) -> dict:
    p = _check_prime(inputs["p"])
    e = _as_int(inputs["e"], "e", minimum=1)
    q_res = _as_int(inputs["q"], "q", minimum=2)
    exponent = _as_fraction(inputs["r"], "radius exponent")
    params = radius_params(PExponent.of(p, exponent), p, e, q_res)
    return {
        "schema": SCHEMA,
        "kind": "radius",
        "inputs": inputs,
        "h": params.h,
        "ell": params.ell,
        "in_sR": params.in_sR,
        "m": params.m_witness,
        "detail": params.to_json(),
        "certificates": {
            "h": params.h,
            "ell": params.ell,
            "in_sR": params.in_sR,
            "m": params.m_witness,
        },
    }


# configured crossed-product comparisons: generator-space matrices for the
# group action on each exterior algebra, keyed by (group name, rank)
_EXT_ACTIONS: Dict[Tuple[str, int], Dict[str, List[List[int]]]] = {
    ("Z2", 1): {"g": [[-1]]},
    ("Z4", 1): {"g": [[-1]]},
    ("Z6", 1): {"g": [[-1]]},
    ("S3", 1): {"s": [[-1]], "r": [[1]]},
    ("Z2", 2): {"g": [[0, 1], [1, 0]]},
    ("Z3", 2): {"g": [[0, -1], [1, -1]]},
    ("Z4", 2): {"g": [[0, -1], [1, 0]]},
    ("Z6", 2): {"g": [[1, -1], [1, 0]]},
    ("S3", 2): {"s": [[0, 1], [1, 0]], "r": [[0, -1], [1, -1]]},
}


def _element_of_order(Q: FiniteGroupTable, k: int) -> int:
    for g in range(Q.order):
        order, h = 1, g
        while h != Q.identity:
            h = Q.mul(h, g)
            order += 1
        if order == k:
            return g
    raise ValueError(f"no element of order {k}")


def _ext_group_action(
    group: str, rank: int
) -> Tuple[FiniteGroupTable, List[RationalMatrix]]:
    key = (str(group), rank)
    if key not in _EXT_ACTIONS:
        known = sorted(f"{g}/rank{r}" for g, r in _EXT_ACTIONS)
        raise _InputError(f"no configured action for {key}; known: {', '.join(known)}")
    Q = _group_by_name(group)
    spec = _EXT_ACTIONS[key]
    generators: Dict[int, RationalMatrix] = {}
    for label, grid in spec.items():
        mat = RationalMatrix(grid, ncols=rank)
        if label == "g":
            generators[_element_of_order(Q, Q.order)] = mat
        elif label == "s":
            generators[_element_of_order(Q, 2)] = mat
        elif label == "r":
            generators[_element_of_order(Q, 3)] = mat
    return Q, Q.representation_from_generators(generators)


def _exterior_extension(rank: int, m: RationalMatrix) -> RationalMatrix:
    """Extend a substitution of the generators to the subset basis by minors."""
    subsets = sorted(
        [s for r in range(rank + 1) for s in combinations(range(rank), r)],
        key=lambda s: (len(s), s),
    )
    grid = [[Fraction(0)] * len(subsets) for _ in subsets]
    for b, S in enumerate(subsets):
        for a, T in enumerate(subsets):
            if len(T) != len(S):
                continue
            grid[a][b] = m.submatrix(T, S).det() if S else Fraction(1)
    return RationalMatrix(grid, ncols=len(subsets))


def _default_ext_labels(group: str, rank: int) -> List[str]:
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
    rank: int, gen_mats: List[RationalMatrix], label: str, da: int
) -> Tuple[List[RationalMatrix], List[RationalMatrix]]:
    """Base actions and group operators for one configured module."""

    def scalar_only(mdim: int) -> List[RationalMatrix]:
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
    from wallforge.groupalg import (
        AlgebraPresentation,
        crossed_ext_compare,
        crossed_module,
        crossed_product,
    )

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
    eps = A.augmentation_values()
    modules = []
    for label in labels:
        base, ops = _ext_module_data(rank, gen_mats, str(label), A.dim)
        modules.append(crossed_module(cp, base, ops))
    reports = []
    for label, rep in zip(labels, crossed_ext_compare(cp, modules, eps, n_max)):
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


_JOBS = {
    "ce-homology": _job_ce_homology,
    "wall-demo": _job_wall_demo,
    "wall-build": _job_wall_build,
    "tree-ss": _job_tree_ss,
    "pushout-check": _job_pushout_check,
    "cosimplicial-check": _job_cosimplicial_check,
    "bch-verify": _job_bch_verify,
    "group-law": _job_group_law,
    "norms": _job_norms,
    "radius": _job_radius,
    "ext-crossed": _job_ext_crossed,
}


# ---------------------------------------------------------------------------
# replay: re-check stored certificates, then reproduce the dump
# ---------------------------------------------------------------------------


def _recheck_ce(dump: dict) -> None:
    C = ChainComplex.from_json(dump["complex"])
    C.require_valid()
    betti = dump["betti"]
    dims = homology_dims(C)
    found = _dim_list(dims, max([0] + list(dims)))
    stored = list(betti) + [0] * (len(found) - len(betti))
    if found + [0] * (len(stored) - len(found)) != stored:
        raise CertificateError(f"stored Betti numbers {betti} do not match {found}")


def _recheck_wall(dump: dict) -> None:
    from wallforge.wall import (
        base_complex,
        total_complex,
        verify_induction_identities,
        wall_from_json,
    )

    W = wall_from_json(dump["assembly"])
    failures = verify_induction_identities(W)
    if failures:
        raise CertificateError("; ".join(failures))
    total = total_complex(W)
    certs = dump["certificates"]
    if _dim_list(homology_dims(total), total.hi) != certs["total_homology"]:
        raise CertificateError("stored total homology does not match the matrices")
    base = base_complex(W)
    if _dim_list(homology_dims(base), base.hi) != certs["base_homology"]:
        raise CertificateError("stored base homology does not match the matrices")
    section = dump.get("truncated")
    if section:
        Wt = wall_from_json(section["assembly"])
        bad = verify_induction_identities(Wt)
        if bad:
            raise CertificateError("; ".join(bad))
        t_total = total_complex(Wt)
        betti_total = _dim_list(homology_dims(t_total), t_total.hi)
        betti_base = _dim_list(homology_dims(base_complex(Wt)), t_total.hi)
        sc = section["certificates"]
        if betti_total != sc["betti_total"] or betti_base != sc["betti_base"]:
            raise CertificateError("stored truncated Betti numbers do not match")
        if betti_total != betti_base:
            raise CertificateError("truncated total and base homology disagree")


def _recheck_tree(dump: dict) -> None:
    C = ChainComplex.from_json(dump["complex"])
    C.require_valid()
    aug = RationalMatrix.from_json(dump["augmentation"])
    if not (aug @ C.diff(1)).is_zero():
        raise CertificateError("stored augmentation does not kill the boundary")
    dims = homology_dims(C)
    if [dims.get(0, 0), dims.get(1, 0)] != dump["certificates"]["homology"]:
        raise CertificateError("stored homology does not match the matrices")


def _recheck_pushout(dump: dict) -> None:
    C = ChainComplex.from_json(dump["complex"])
    C.require_valid()
    dims = homology_dims(C)
    if [dims.get(0, 0), dims.get(1, 0)] != dump["certificates"]["homology"]:
        raise CertificateError("stored homology does not match the matrices")


def _recheck_bch(dump: dict) -> None:
    p = dump["inputs"]["p"]
    _check_prime(p)
    for result in dump["results"]:
        for row in result["components"]:
            term = RationalMatrix.from_json(row["term"])
            mv = _min_valuation(term, p)
            if mv != row["min_valuation"]:
                raise CertificateError(
                    f"stored valuation {row['min_valuation']} does not match {mv}"
                )
            bound = Fraction(row["bound"])
            if mv is not None and Fraction(mv) < bound:
                raise CertificateError(f"component {row['n']} breaks its bound")


def _recheck_norms(dump: dict) -> None:
    for i, row in enumerate(dump["pairs"]):
        nf = PExponent.from_json(row["norm_f"])
        ng = PExponent.from_json(row["norm_g"])
        nfg = PExponent.from_json(row["norm_product"])
        if nfg != nf * ng:
            raise CertificateError(f"stored norms of pair {i} do not multiply")
    for i, row in enumerate(dump["expansions"]):
        norm = PExponent.from_json(row["norm"])
        bound = PExponent.from_json(row["bound"])
        if not (norm <= bound) or not row["within_bound"]:
            raise CertificateError(f"stored expansion {i} breaks its bound")


def _recheck_ext(dump: dict) -> None:
    for rep in dump["reports"]:
        if rep["crossed_ext_dims"] != rep["invariant_dims"] or not rep["ok"]:
            raise CertificateError(
                f"module {rep['module']!r}: stored dimensions disagree"
            )


_RECHECKS = {
    "ce-homology": _recheck_ce,
    "wall-demo": _recheck_wall,
    "wall-build": _recheck_wall,
    "tree-ss": _recheck_tree,
    "pushout-check": _recheck_pushout,
    "bch-verify": _recheck_bch,
    "norms": _recheck_norms,
    "ext-crossed": _recheck_ext,
}


def _replay_validate(data: dict) -> None:
    if data.get("schema") != SCHEMA:
        raise ValueError(f"missing or unsupported schema tag, expected {SCHEMA!r}")
    kind = data.get("kind")
    if kind not in _JOBS:
        raise ValueError(f"unknown dump kind {kind!r}")
    if not isinstance(data.get("inputs"), dict):
        raise ValueError("dump carries no inputs to replay")
    if not isinstance(data.get("certificates"), dict):
        raise ValueError("dump carries no certificates")


def _replay_check(data: dict, fresh: dict) -> None:
    """Re-check the stored certificates, then compare with the recomputed dump."""
    recheck = _RECHECKS.get(data["kind"])
    if recheck is not None:
        recheck(data)
    if _render(fresh) != _render(data):
        raise CertificateError(
            "recomputation from the recorded inputs does not reproduce the dump"
        )


def verify_replay(paths: Sequence[str]) -> int:
    """Re-audit dumps; 0 all good, 1 malformed dump, 2 broken certificate.

    A dump is malformed when it cannot be read, lacks its envelope, or the
    job's own input checks refuse its recorded inputs: a missing field, a
    mistyped or out-of-range value.  Any other failure, including one from
    deeper in the recomputation and a stored certificate that does not hold
    or does not parse, breaks the certificate.
    """

    def work(path: str) -> Tuple[str, str, str]:
        try:
            data = _load_json(path)
            _replay_validate(data)
        except ValueError as exc:
            return ("invalid", path, str(exc))
        try:
            fresh = _JOBS[data["kind"]](_RecordedInputs(data["inputs"]))
        except _InputError as exc:
            return ("invalid", path, str(exc))
        except Exception as exc:
            return ("fail", path, str(exc))
        try:
            _replay_check(data, fresh)
        except Exception as exc:
            return ("fail", path, str(exc))
        return ("ok", path, "")

    code = 0
    for status, path, message in map(work, paths):
        if status == "ok":
            print(f"ok {path}")
        elif status == "invalid":
            print(f"INVALID {path}: {message}")
            code = max(code, 1)
        else:
            print(f"FAIL {path}: {message}")
            code = 2
    return code


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="wallforge",
        description="exact-arithmetic certificates for complexes, walls, "
        "trees, and p-adic norms",
    )
    sub = parser.add_subparsers(dest="subcommand")

    def job(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", help="write the dump here instead of stdout")
        return p

    p = job("ce-homology", "homology of a Lie algebra with module coefficients")
    p.add_argument("--lie", required=True, help="Lie algebra JSON file")
    p.add_argument("--module", help="module JSON file (default: trivial)")

    p = job("wall-demo", "stock assembly over a group algebra, with certificates")
    p.add_argument("--group", required=True, help="Z<n>, S3, D4, or Q8")
    p.add_argument("--degrees", type=int, required=True, help="column length")

    p = job("wall-build", "assemble a wall from a JSON job description")
    p.add_argument("--input", required=True, help="job JSON file")

    p = job("tree-ss", "chain complex of a constant system on a tree ball")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--fiber-dim", type=int, default=1)

    p = job("pushout-check", "homology of glued copies of a ball")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--copies", type=int, default=2)
    p.add_argument("--shared-radius", type=int, default=0)
    p.add_argument(
        "--non-convex",
        action="store_true",
        help="glue along two vertices with no path; a cycle must appear",
    )

    p = job("cosimplicial-check", "cohomology of the iterated-pushout row")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--shared-radius", type=int, default=0)
    p.add_argument("--q", type=int, default=0, choices=(0, 1))
    p.add_argument("--j-max", type=int, default=3)

    p = job("bch-verify", "valuation bounds for log(exp x exp y) components")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--size", type=int, default=4, help="stock matrix size")
    p.add_argument("--input", help="JSON file with custom {'pairs': [...]} data")

    p = job("group-law", "truncated coordinate group law with certificates")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--N", type=int, default=4, help="truncation degree")
    p.add_argument("--lie", help="Lie algebra JSON file (default: scaled Heisenberg)")

    p = job("norms", "seeded random norm multiplicativity and expansion bounds")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs", type=int, default=50)
    p.add_argument("--nu-count", type=int, default=20)
    p.add_argument("--nvars", type=int, default=2)
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--radius", default="-1/3", help="radius exponent, e.g. -1/3")
    p.add_argument("--expansion-degree", type=int, default=5)

    p = job("radius", "integer ladder attached to a convergence radius")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--r", required=True, help="radius exponent, e.g. -1/4")
    p.add_argument("--e", type=int, default=1, help="ramification index")
    p.add_argument("--q", type=int, help="residue cardinality (default: p)")

    p = job("ext-crossed", "Ext comparison over a configured crossed product")
    p.add_argument("--rank", type=int, required=True, choices=(1, 2))
    p.add_argument("--group", required=True, help="Z2, Z3, Z4, Z6, or S3")
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--modules", help="comma-separated module labels")

    p = sub.add_parser("verify-replay", help="re-check dumps from earlier runs")
    p.add_argument("dumps", nargs="+", help="dump files to audit")

    return parser


_PATH_KEYS = {
    "ce-homology": ("lie", "module"),
    "wall-build": ("input",),
    "bch-verify": ("input",),
    "group-law": ("lie",),
}

_OPTION_KEYS = {
    "ce-homology": (),
    "wall-demo": ("group", "degrees"),
    "wall-build": (),
    "tree-ss": ("p", "radius", "fiber_dim"),
    "pushout-check": ("p", "radius", "copies", "shared_radius", "non_convex"),
    "cosimplicial-check": ("p", "radius", "shared_radius", "q", "j_max"),
    "bch-verify": ("p", "n_max", "size"),
    "group-law": ("p", "N"),
    "norms": (
        "p",
        "seed",
        "pairs",
        "nu_count",
        "nvars",
        "degree",
        "radius",
        "expansion_degree",
    ),
    "radius": ("p", "r", "e", "q"),
    "ext-crossed": ("rank", "group", "n_max", "modules"),
    "verify-replay": (),
}


def _spec_from_args(ns: argparse.Namespace) -> JobSpec:
    name = ns.subcommand
    if name == "verify-replay":
        return JobSpec(subcommand=name, input_paths=tuple(ns.dumps))
    paths = []
    for key in _PATH_KEYS.get(name, ()):
        value = getattr(ns, key, None)
        if value is not None:
            paths.append(value)
    options = {key: getattr(ns, key) for key in _OPTION_KEYS[name]}
    return JobSpec(
        subcommand=name,
        input_paths=tuple(paths),
        output_path=getattr(ns, "out", None),
        options=options,
    )


def _resolve_inputs(spec: JobSpec, docs: List[dict]) -> dict:
    """Fold loaded files and flags into the handler's self-contained inputs."""
    name = spec.subcommand
    opts = spec.options
    if name == "ce-homology":
        return {"lie": docs[0], "module": docs[1] if len(docs) > 1 else None}
    if name == "wall-build":
        return {"job": docs[0]}
    if name == "bch-verify":
        if docs:
            pairs = docs[0].get("pairs")
            if not isinstance(pairs, list):
                raise ValueError("the pairs file needs a 'pairs' list")
        else:
            pairs = _builtin_bch_pairs(opts["p"], opts["size"])
        return {"p": opts["p"], "n_max": opts["n_max"], "pairs": pairs}
    if name == "group-law":
        lie = docs[0] if docs else _powerful_heisenberg_json(_check_prime(opts["p"]))
        return {"p": opts["p"], "N": opts["N"], "lie": lie}
    if name == "pushout-check":
        return {
            "p": opts["p"],
            "radius": opts["radius"],
            "copies": opts["copies"],
            "shared_radius": opts["shared_radius"],
            "convex": not opts["non_convex"],
        }
    if name == "radius":
        q_res = opts["q"] if opts["q"] is not None else opts["p"]
        return {"p": opts["p"], "r": str(opts["r"]), "e": opts["e"], "q": q_res}
    if name == "ext-crossed":
        labels = opts["modules"]
        if labels is None:
            labels = _default_ext_labels(opts["group"], opts["rank"])
        else:
            labels = [part.strip() for part in str(labels).split(",") if part.strip()]
        return {
            "rank": opts["rank"],
            "group": opts["group"],
            "n_max": opts["n_max"],
            "modules": labels,
        }
    return dict(opts)


def dispatch(spec: JobSpec) -> int:
    """Run one job; returns the process exit code."""
    try:
        if spec.subcommand == "verify-replay":
            return verify_replay(spec.input_paths)
        docs = [_load_json(path) for path in spec.input_paths]
        inputs = _resolve_inputs(spec, docs)
        dump = _JOBS[spec.subcommand](inputs)
        _emit(dump, spec.output_path)
        return 0
    except CertificateError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


def _merge_negative_values(argv: List[str]) -> List[str]:
    """Fold ``--r -1/4`` into ``--r=-1/4`` so argparse keeps the value.

    Negative integers survive argparse's own heuristics; negative fractions
    with a slash do not, and the exponent flags take exactly those.
    """
    merged: List[str] = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in ("--r", "--radius") and i + 1 < len(argv):
            nxt = argv[i + 1]
            if len(nxt) > 1 and nxt[0] == "-" and nxt[1].isdigit():
                merged.append(f"{tok}={nxt}")
                skip = True
                continue
        merged.append(tok)
    return merged


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = _merge_negative_values(list(sys.argv[1:] if argv is None else argv))
    try:
        ns = parser.parse_args(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    if ns.subcommand is None:
        parser.print_help(sys.stderr)
        return 1
    try:
        spec = _spec_from_args(ns)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    return dispatch(spec)


if __name__ == "__main__":
    sys.exit(main())
