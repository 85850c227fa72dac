"""Tree subcommands: ``tree-ss``, ``pushout-check`` and ``cosimplicial-check``.

Each handler takes a JSON-plain inputs dict and returns the full dump; the
rechecks re-audit a stored dump from its raw matrices.  ``wallforge.cli``
imports this module the first time it runs or replays one of these jobs.
"""

from __future__ import annotations

from wallforge.cli_common import SCHEMA, _as_bool, _as_int, _check_prime, _InputError
from wallforge.complexes import CertificateError, ChainComplex, homology_dims
from wallforge.linalg import RationalMatrix
from wallforge.tree import (
    FiniteSubtree,
    TreeCoefficientSystem,
    TreeVertex,
    cosimplicial_row_check,
    is_convex,
    pushout_complex,
    ss_chain_complex,
)


def _job_tree_ss(inputs: dict) -> dict:
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


JOBS = {
    "tree-ss": _job_tree_ss,
    "pushout-check": _job_pushout_check,
    "cosimplicial-check": _job_cosimplicial_check,
}

RECHECKS = {
    "tree-ss": _recheck_tree,
    "pushout-check": _recheck_pushout,
}
