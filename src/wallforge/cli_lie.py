"""Lie and p-adic subcommands: ``ce-homology``, ``bch-verify``, ``group-law``,
``norms`` and ``radius``.

Each handler takes a JSON-plain inputs dict and returns the full dump; the
rechecks re-audit a stored dump from its raw data.  ``wallforge.cli``
imports this module the first time it runs or replays one of these jobs.
The handlers share no algebra module, so each imports what it runs inside
its own function: ``radius`` loads only ``arith``, and ``ce-homology`` never
loads it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from wallforge.cli_common import (
    SCHEMA,
    _as_int,
    _check_prime,
    _dim_list,
    _InputError,
    _matrix_from_json,
    _parsed,
)

if TYPE_CHECKING:
    import random

    from wallforge.bch import GaussPolynomial
    from wallforge.linalg import RationalMatrix


def _as_fraction(value, what: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise _InputError(f"{what} must be an integer or a fraction string, got {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise _InputError(f"{what} is not a rational number: {value!r}") from exc


def _min_valuation(m: RationalMatrix, p: int) -> int | None:
    """Least entry valuation, or None for the zero matrix."""
    from wallforge.arith import p_valuation

    best: int | None = None
    for _, _, x in m.nonzero_entries():
        v = int(p_valuation(x, p))
        if best is None or v < best:
            best = v
    return best


def _job_ce_homology(inputs: dict) -> dict:
    from wallforge.complexes import homology_dims
    from wallforge.lie import LieAlgebra, LieDataError, LieModule, ce_complex
    from wallforge.linalg import RationalMatrix

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


def builtin_bch_pairs(p: int, size: int) -> list[dict]:
    """Two stock pairs of strictly upper triangular matrices in p^kappa Z."""
    from wallforge.arith import bch_constants
    from wallforge.linalg import RationalMatrix

    _check_prime(p)
    _as_int(size, "size", minimum=2)
    kappa = bch_constants(1, p).kappa
    scale = Fraction(p) ** kappa

    def mat(entries: dict[tuple[int, int], int]) -> dict:
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
    from wallforge.arith import bch_constants
    from wallforge.bch import bch_evaluate_nilpotent
    from wallforge.complexes import CertificateError

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


def powerful_heisenberg_json(p: int) -> dict:
    from wallforge.arith import bch_constants
    from wallforge.lie import LieAlgebra

    kappa = bch_constants(1, p).kappa
    g = LieAlgebra(3, {(0, 1): [0, 0, Fraction(p) ** kappa]})
    return g.to_json()


def _job_group_law(inputs: dict) -> dict:
    from wallforge.bch import group_law_polynomials
    from wallforge.complexes import CertificateError
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

    terms: dict[tuple[int, ...], Fraction] = {}
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
    import random

    from wallforge.arith import PExponent
    from wallforge.bch import dr_norm_and_expansion, gauss_norm
    from wallforge.complexes import CertificateError

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
    from wallforge.arith import PExponent, radius_params

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


def _recheck_ce(dump: dict) -> None:
    from wallforge.complexes import CertificateError, ChainComplex, homology_dims

    C = ChainComplex.from_json(dump["complex"])
    C.require_valid()
    betti = dump["betti"]
    dims = homology_dims(C)
    found = _dim_list(dims, max([0] + list(dims)))
    stored = list(betti) + [0] * (len(found) - len(betti))
    if found + [0] * (len(stored) - len(found)) != stored:
        raise CertificateError(f"stored Betti numbers {betti} do not match {found}")


def _recheck_bch(dump: dict) -> None:
    from wallforge.complexes import CertificateError
    from wallforge.linalg import RationalMatrix

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
    from wallforge.arith import PExponent
    from wallforge.complexes import CertificateError

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


JOBS = {
    "ce-homology": _job_ce_homology,
    "bch-verify": _job_bch_verify,
    "group-law": _job_group_law,
    "norms": _job_norms,
    "radius": _job_radius,
}

RECHECKS = {
    "ce-homology": _recheck_ce,
    "bch-verify": _recheck_bch,
    "norms": _recheck_norms,
}
