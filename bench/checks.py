"""Independent checks of wallforge dumps.

Each check takes a parsed dump and the job's ``expect`` dict from
``workloads.py`` and returns a list of problems (empty when the dump is
right).  Only closed forms and the benchmark's own exact arithmetic are
used; the dump's own certificate flags are never taken on trust.
"""

from __future__ import annotations

from fractions import Fraction

import exact


def _ext_crossed(dump, expect):
    problems = []
    seen = []
    for rep in dump["reports"]:
        label = rep["module"]
        seen.append(label)
        want = expect.get(label)
        if want is None:
            problems.append(f"unexpected module {label!r}")
            continue
        if rep["crossed_ext_dims"] != want["crossed"]:
            problems.append(f"{label}: crossed {rep['crossed_ext_dims']} != {want['crossed']}")
        if rep["base_ext_dims"] != want["base"]:
            problems.append(f"{label}: base {rep['base_ext_dims']} != {want['base']}")
        if rep["invariant_dims"] != rep["crossed_ext_dims"]:
            problems.append(f"{label}: invariants differ from crossed dimensions")
    if sorted(seen) != sorted(expect):
        problems.append(f"modules {seen} != {sorted(expect)}")
    return problems


def _padded(values, n):
    return list(values) + [0] * (n - len(values))


def _wall(dump, expect):
    section = dump.get("truncated")
    if not section:
        return ["no truncated section"]
    betti = section["certificates"]["betti_total"]
    want = _padded(expect["betti"], len(betti))
    if len(want) != len(betti) or betti != want:
        return [f"truncated total Betti {betti} != base homology {expect['betti']}"]
    return []


def _homology(cx):
    """Homology dimensions of a dumped chain complex, by degree."""
    dims = {int(n): d for n, d in cx["dims"].items()}
    ranks = {int(n): exact.rank(exact.from_json(m)) for n, m in cx["diffs"].items()}
    return {n: d - ranks.get(n, 0) - ranks.get(n + 1, 0) for n, d in dims.items()}


def _incidence_problems(cx):
    """d_1 of a graph: every column holds one +1 and one -1."""
    cols = {}
    for _, j, v in cx["diffs"]["1"]["entries"]:
        cols.setdefault(j, []).append(Fraction(v))
    width = cx["diffs"]["1"]["cols"]
    if len(cols) != width or any(sorted(c) != [-1, 1] for c in cols.values()):
        return ["d_1 is not an incidence matrix"]
    return []


def _boundary_squares(cx):
    """d_(n-1) d_n = 0 for every pair of dumped differentials."""
    diffs = {int(n): m for n, m in cx["diffs"].items()}
    for n, m in diffs.items():
        if n - 1 in diffs:
            prod = exact.matmul(exact.from_json(diffs[n - 1]), exact.from_json(m), m["cols"])
            if any(any(row) for row in prod):
                return [f"d_{n - 1} d_{n} is not zero"]
    return []


def _tree_ss(dump, expect):
    c = dump["certificates"]
    v = expect["vertices"]
    problems = []
    if (c["vertex_count"], c["edge_count"]) != (v, v - 1):
        problems.append(f"ball counts {c['vertex_count']}, {c['edge_count']} != {v}, {v - 1}")
    if c["homology"] != [expect["fiber"], 0]:
        problems.append(f"homology {c['homology']} != [{expect['fiber']}, 0]")
    h = _homology(dump["complex"])
    if [h.get(0, 0), h.get(1, 0)] != [expect["fiber"], 0]:
        problems.append(f"complex has homology {h}")
    return problems + _incidence_problems(dump["complex"])


def _pushout(dump, expect):
    problems = []
    if dump["certificates"]["homology"] != expect["homology"]:
        problems.append(f"homology {dump['certificates']['homology']} != {expect['homology']}")
    if dump["cells"]["vertices"] != expect["vertices"]:
        problems.append(f"{dump['cells']['vertices']} vertices, expected {expect['vertices']}")
    h = _homology(dump["complex"])
    if [h.get(0, 0), h.get(1, 0)] != expect["homology"]:
        problems.append(f"complex has homology {h}")
    return problems + _incidence_problems(dump["complex"])


def _cosimplicial(dump, expect):
    report = dump["report"]
    problems = []
    if report["cohomology"] != expect["cohomology"]:
        problems.append(f"cohomology {report['cohomology']} != {expect['cohomology']}")
    if report["row_dims"] != expect["row_dims"]:
        problems.append(f"row dims {report['row_dims']} != {expect['row_dims']}")
    return problems


def _ce(dump, expect):
    betti = dump["betti"]
    problems = []
    if _padded(betti, len(expect["betti"])) != expect["betti"]:
        problems.append(f"Betti {betti} != {expect['betti']}")
    h = _homology(dump["complex"])
    found = [h.get(n, 0) for n in range(len(expect["betti"]))]
    if found != expect["betti"]:
        problems.append(f"complex has Betti {found}")
    return problems + _boundary_squares(dump["complex"])


def _exp_nilpotent(m):
    n = len(m)
    out, term = exact.identity(n), exact.identity(n)
    for k in range(1, n):
        term = exact.scale(exact.matmul(term, m, n), Fraction(1, k))
        out = exact.add(out, term)
    return out


def _bch(dump, expect):
    p = expect["p"]
    problems = []
    pairs = {pair["name"]: pair for pair in dump["inputs"]["pairs"]}
    for result in dump["results"]:
        pair = pairs[result["name"]]
        x, y = exact.from_json(pair["x"]), exact.from_json(pair["y"])
        n = len(x)
        total = exact.zeros(n, n)
        for row in result["components"]:
            term = exact.from_json(row["term"])
            total = exact.add(total, term)
            vals = [exact.valuation(v, p) for r in term for v in r if v]
            mv = min(vals) if vals else None
            if mv != row["min_valuation"]:
                problems.append(f"{result['name']} n={row['n']}: valuation {mv}")
            if mv is not None and mv < Fraction(row["bound"]):
                problems.append(f"{result['name']} n={row['n']}: below its bound")
        if _exp_nilpotent(total) != exact.matmul(_exp_nilpotent(x), _exp_nilpotent(y), n):
            problems.append(f"{result['name']}: exp(sum of components) != exp(x) exp(y)")
    if len(dump["results"]) != len(pairs):
        problems.append("a pair is missing from the results")
    return problems


def _group_law(dump, expect):
    """Degree 1 of the law is a + b and degree 2 is [a, b] / 2."""
    d = expect["dim"]
    want = [dict() for _ in range(d)]
    for k in range(d):
        want[k][tuple(int(i == k) for i in range(2 * d))] = Fraction(1)
        want[k][tuple(int(i == d + k) for i in range(2 * d))] = Fraction(1)
    for a, b, vec in expect["table"]:
        for k, c in enumerate(vec):
            if c:
                for i, j, s in ((a, b, 1), (b, a, -1)):
                    mono = tuple(int(t == i) + int(t == d + j) for t in range(2 * d))
                    want[k][mono] = want[k].get(mono, 0) + Fraction(s * c, 2)
    problems = []
    for k, poly in enumerate(dump["report"]["polynomials"]):
        low = {tuple(m): Fraction(c) for m, c in poly["terms"] if sum(m) <= 2}
        if low != {m: c for m, c in want[k].items() if c}:
            problems.append(f"coordinate {k}: degree <= 2 part differs from a + b + [a, b]/2")
    return problems


def _poly_mul(f, g):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _gauss_exponent(poly, p, e):
    """log_p of max |c|_p rho^deg with rho = p^e, or None for zero."""
    vals = [-exact.valuation(c, p) + e * sum(m) for m, c in poly.items()]
    return max(vals) if vals else None


def _norm_exponent(doc):
    if doc.get("zero"):
        return None
    return Fraction(doc["exp_num"], doc["exp_den"])


def _norms(dump, expect):
    p, e = expect["p"], Fraction(expect["radius"])
    problems = []
    for i, row in enumerate(dump["pairs"]):
        f = {tuple(m): Fraction(c) for m, c in row["f"]["terms"]}
        g = {tuple(m): Fraction(c) for m, c in row["g"]["terms"]}
        nf, ng = _gauss_exponent(f, p, e), _gauss_exponent(g, p, e)
        nfg = _gauss_exponent(_poly_mul(f, g), p, e)
        stored = [_norm_exponent(row[k]) for k in ("norm_f", "norm_g", "norm_product")]
        if stored != [nf, ng, nfg]:
            problems.append(f"pair {i}: stored norms {stored} != {[nf, ng, nfg]}")
        if nfg != nf + ng:
            problems.append(f"pair {i}: norms do not multiply")
    if len(dump["pairs"]) != dump["inputs"]["pairs"]:
        problems.append("pair count differs from the request")
    return problems


CHECKS = {
    "ext_crossed": _ext_crossed,
    "wall": _wall,
    "tree_ss": _tree_ss,
    "pushout": _pushout,
    "cosimplicial": _cosimplicial,
    "ce": _ce,
    "bch": _bch,
    "group_law": _group_law,
    "norms": _norms,
}


def check(job, dump):
    try:
        return CHECKS[job["check"]](dump, job["expect"])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed dump: {exc!r}"]
