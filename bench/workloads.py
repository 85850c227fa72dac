"""Seeded inputs for the benchmark workloads, built from four parts.

Each part generator takes a ``random.Random`` and a directory for input
files and returns a list of jobs; a workload is two parts, its jobs shuffled
together.  A job is a dict with the wallforge argument list
(``args``, without ``--out``), the check to run on its dump (``check``) and
what that check expects (``expect``), worked out here from closed forms and
the benchmark's own exact arithmetic, never from the program.  One job per
part is marked ``tamper``: a copy of its dump with one certificate value
changed must make ``verify-replay`` exit 2.

The seed changes the content of the inputs (scalars, basis labelling,
random matrices and polynomials, job order) but not their sizes, so the
amount of work, and with it every timing, stays the same from seed to seed.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from itertools import permutations
from math import comb

import exact


def _write(indir, name, doc):
    path = os.path.join(indir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


# ---------------------------------------------------------------------------
# ext_crossed: configured crossed products over exterior algebras
# ---------------------------------------------------------------------------

# The generator matrices of the configured rank-1 and rank-2 actions, as the
# program documents them for each (group, rank): a cyclic group acts through
# the powers of one matrix.
EXT_CASES = [
    {"group": "Z2", "order": 2, "rank": 1, "gen": [[-1]], "n_max": 4},
    {"group": "Z4", "order": 4, "rank": 1, "gen": [[-1]], "n_max": 4},
    {"group": "Z6", "order": 6, "rank": 1, "gen": [[-1]], "n_max": 4},
    # n_max 4 on rank 2 takes 13 s alone; n_max 2 keeps a round near 10 s
    {"group": "Z2", "order": 2, "rank": 2, "gen": [[0, 1], [1, 0]], "n_max": 2},
]


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _molien(case, label):
    """Coefficients of (1/|Q|) sum_g chi_W(g) / det(1 - t rho(g))."""
    gen = [[Fraction(x) for x in row] for row in case["gen"]]
    r, terms = case["rank"], case["n_max"] + 1
    total = [Fraction(0)] * terms
    power = exact.identity(r)
    for _ in range(case["order"]):
        chi = {
            "trivial": Fraction(1),
            "determinant": _det(power),
            "generator-space": sum(power[i][i] for i in range(r)),
        }[label]
        series = exact.series_inverse(exact.det_one_minus_t(power), terms)
        total = [a + chi * b for a, b in zip(total, series)]
        power = exact.matmul(power, gen, r)
    return [int(x / case["order"]) for x in total]


def ext_crossed(rng, indir):
    jobs = []
    for case in EXT_CASES:
        r = case["rank"]
        labels = ["trivial"]
        if _det([[Fraction(x) for x in row] for row in case["gen"]]) != 1:
            labels.append("determinant")
        labels.append("generator-space" if r == 2 else "nilpotent")
        rng.shuffle(labels)
        expect = {}
        for label in labels:
            if label == "nilpotent":
                crossed = [1] + [0] * case["n_max"]
                base = list(crossed)
            else:
                width = r if label == "generator-space" else 1
                crossed = _molien(case, label)
                base = [comb(n + r - 1, r - 1) * width for n in range(case["n_max"] + 1)]
            expect[label] = {"crossed": crossed, "base": base}
        jobs.append(
            {
                "name": f"ext-{r}-{case['group']}",
                "args": [
                    "ext-crossed", "--rank", str(r), "--group", case["group"],
                    "--n-max", str(case["n_max"]), "--modules", ",".join(labels),
                ],
                "check": "ext_crossed",
                "expect": expect,
                "tamper": case["group"] == "Z2" and r == 1,
            }
        )
    return jobs


# ---------------------------------------------------------------------------
# wall_assembly: staircases of resolutions over group algebras
# ---------------------------------------------------------------------------


def _cyclic(n):
    elems = list(range(n))
    return elems, (lambda a, b: (a + b) % n), 0


def _symmetric3():
    elems = sorted(permutations(range(3)))
    return elems, (lambda a, b: tuple(a[b[i]] for i in range(3))), (0, 1, 2)


class _GroupAlgebra:
    """E[Q] with the modules and maps the staircases are built from."""

    def __init__(self, group):
        elems, mul, ident = group
        self.n = n = len(elems)
        index = {g: k for k, g in enumerate(elems)}
        self.mul = [[index[mul(a, b)] for b in elems] for a in elems]
        self.id = index[ident]

    def algebra_json(self):
        n = self.n
        products = [[i, j, [[self.mul[i][j], "1"]]] for i in range(n) for j in range(n)]
        unit = [str(int(k == self.id)) for k in range(n)]
        return {"dim": n, "products": products, "unit": unit}

    def regular(self):
        acts = []
        for g in range(self.n):
            m = exact.zeros(self.n, self.n)
            for h in range(self.n):
                m[self.mul[g][h]][h] = Fraction(1)
            acts.append(m)
        return acts

    def sign_values(self):
        """Parity of left multiplication by g, a one-dimensional character."""
        out = []
        for g in range(self.n):
            order, x = 1, g
            while x != self.id:
                x, order = self.mul[x][g], order + 1
            out.append(-1 if ((self.n // order) * (order - 1)) % 2 else 1)
        return out

    def one_dim(self, values):
        return [[[Fraction(v)]] for v in values]

    def ideal(self):
        """Augmentation ideal on v_k = e_k - e_1 (k != 1), with its inclusion."""
        keep = [k for k in range(self.n) if k != self.id]
        pos = {k: i for i, k in enumerate(keep)}
        acts = []
        for g in range(self.n):
            m = exact.zeros(len(keep), len(keep))
            for k in keep:  # g.v_k = v_{gk} - v_g
                gk = self.mul[g][k]
                if gk != self.id:
                    m[pos[gk]][pos[k]] += 1
                if g != self.id:
                    m[pos[g]][pos[k]] -= 1
            acts.append(m)
        incl = exact.zeros(self.n, len(keep))
        for k in keep:
            incl[k][pos[k]] = Fraction(1)
            incl[self.id][pos[k]] = Fraction(-1)
        return acts, incl

    def right_mult(self, u):
        m = exact.zeros(self.n, self.n)
        for j in range(self.n):
            for k, c in enumerate(u):
                if c:
                    m[self.mul[j][k]][j] += c
        return m


def _scalar(rng):
    return Fraction(rng.randint(1, 5), rng.randint(1, 3)) * rng.choice([1, -1])


def _staircase(rng, E, template):
    """Base modules and maps of one staircase; shapes fixed by the template.

    A chain is a dict of modules by base degree and maps by source degree
    (a ``periodic`` chain always fills degrees 2, 1, 0); chains are summed
    block-diagonally, so the base maps compose to zero.
    """
    reg = E.regular()
    one_dims = [E.one_dim([1] * E.n), E.one_dim(E.sign_values())]
    ideal, incl = E.ideal()
    e = [Fraction(1, E.n)] * E.n  # the averaging idempotent, and 1 - e
    f = [Fraction(int(k == E.id)) - c for k, c in enumerate(e)]
    chains = []
    for kind, q in template:
        c = _scalar(rng)
        if kind == "periodic":
            first, second = rng.choice([(e, f), (f, e)])
            chains.append(
                {
                    "mods": {2: reg, 1: reg, 0: reg},
                    "maps": {
                        2: exact.scale(E.right_mult(first), c),
                        1: exact.scale(E.right_mult(second), _scalar(rng)),
                    },
                }
            )
        elif kind == "idpair":
            m = rng.choice(one_dims)
            chains.append({"mods": {q: m, q - 1: m}, "maps": {q: [[c]]}})
        elif kind == "aug":
            trivial = one_dims[0]
            chains.append({"mods": {q: reg, q - 1: trivial}, "maps": {q: [[c] * E.n]}})
        elif kind == "ideal":
            chains.append(
                {"mods": {q: ideal, q - 1: reg}, "maps": {q: exact.scale(incl, c)}}
            )
        elif kind == "const":
            chains.append({"mods": {q: rng.choice(one_dims)}, "maps": {}})
    top = max(max(ch["mods"]) for ch in chains)
    mods, dims = [], []
    for q in range(top + 1):
        parts = [ch["mods"][q] for ch in chains if q in ch["mods"]]
        sizes = [len(p[0]) for p in parts]
        mods.append(
            [exact.block([[p[g] if i == j else None for j, p in enumerate(parts)]
                          for i in range(len(parts))], sizes, sizes)
             for g in range(E.n)]
            if len(parts) > 1 else parts[0]
        )
        dims.append(sum(sizes))
    maps = []
    for q in range(1, top + 1):
        tgt = [ch for ch in chains if q - 1 in ch["mods"]]
        src = [ch for ch in chains if q in ch["mods"]]
        grid = [[cs["maps"][q] if ct is cs and q in cs["maps"] else None for cs in src]
                for ct in tgt]
        maps.append(exact.block(grid, [len(ct["mods"][q - 1][0]) for ct in tgt],
                                [len(cs["mods"][q][0]) for cs in src]))
    return mods, dims, maps


# (group, template, column lengths); the truncation bound is min(lengths) - 1,
# so every column longer than that ends in a non-free top spot
WALL_CASES = [
    ("Z2", [("periodic", 0), ("idpair", 1), ("const", 0)], [4, 3, 2]),
    ("Z2", [("ideal", 2), ("aug", 1), ("const", 2)], [3, 3, 2]),
    ("Z3", [("periodic", 0), ("idpair", 1), ("const", 0)], [3, 3, 2]),
    ("Z3", [("ideal", 2), ("aug", 1)], [3, 2, 2]),
    ("S3", [("idpair", 1), ("aug", 2)], [2, 2, 2]),
    ("S3", [("periodic", 0)], [4, 3, 2]),
]


def _base_homology(dims, maps):
    ranks = [exact.rank(m) for m in maps] + [0]
    return [dims[q] - (ranks[q - 1] if q else 0) - ranks[q] for q in range(len(dims))]


def wall_assembly(rng, indir):
    groups = {"Z2": _cyclic(2), "Z3": _cyclic(3), "S3": _symmetric3()}
    jobs = []
    for pos, (gname, template, lengths) in enumerate(WALL_CASES):
        E = _GroupAlgebra(groups[gname])
        mods, dims, maps = _staircase(rng, E, template)
        truncate = min(lengths) - 1
        doc = {
            "schema": "wallforge/1",
            "algebra": E.algebra_json(),
            "modules": [
                {"dim": d, "actions": [exact.to_json(a, d) for a in acts]}
                for d, acts in zip(dims, mods)
            ],
            "maps": [exact.to_json(m, dims[q + 1]) for q, m in enumerate(maps)],
            "lengths": lengths,
            "truncate": truncate,
        }
        jobs.append(
            {
                "name": f"wall-{pos}-{gname}",
                "args": ["wall-build", "--input", _write(indir, f"wall-{pos}.json", doc)],
                "check": "wall",
                "expect": {"betti": _base_homology(dims, maps)},
                "tamper": pos == 0,
            }
        )
    jobs.append(
        {
            "name": "wall-demo-D4",
            "args": ["wall-demo", "--group", "D4", "--degrees", "3"],
            "check": "wall",
            "expect": {"betti": [1]},
            "tamper": False,
        }
    )
    return jobs


# ---------------------------------------------------------------------------
# tree_ball: balls, pushouts and cosimplicial rows in the tree of PGL2(Q_3)
# ---------------------------------------------------------------------------


def ball_vertices(p, r):
    return 1 + (p + 1) * (p**r - 1) // (p - 1)


def tree_ball(rng, indir):
    p = 3
    shared = rng.choice([0, 1])  # either shared ball leaves the pushout the same size
    jobs = [
        {
            "name": "tree-ss-r4",
            "args": ["tree-ss", "--p", "3", "--radius", "4"],
            "check": "tree_ss",
            "expect": {"vertices": ball_vertices(p, 4), "fiber": 1},
            "tamper": False,
        },
        {
            "name": "pushout-convex",
            "args": ["pushout-check", "--p", "3", "--radius", "3", "--copies", "2",
                     "--shared-radius", str(shared)],
            "check": "pushout",
            "expect": {"homology": [1, 0],
                       "vertices": 2 * ball_vertices(p, 3) - ball_vertices(p, shared)},
            "tamper": False,
        },
        {
            "name": "pushout-non-convex",
            "args": ["pushout-check", "--p", "3", "--radius", "3", "--copies", "3",
                     "--non-convex"],
            "check": "pushout",
            "expect": {"homology": [1, 2], "vertices": 3 * (ball_vertices(p, 3) - 2) + 2},
            "tamper": True,
        },
    ]
    for q in (0, 1):
        amb, sh = ball_vertices(p, 2), ball_vertices(p, 1)
        if q == 1:
            amb, sh = amb - 1, sh - 1
        jobs.append(
            {
                "name": f"cosimplicial-q{q}",
                "args": ["cosimplicial-check", "--p", "3", "--radius", "2",
                         "--shared-radius", "1", "--q", str(q), "--j-max", "3"],
                "check": "cosimplicial",
                "expect": {
                    "cohomology": [sh, 0, 0, 0],
                    "row_dims": [(j + 1) * (amb - sh) + sh for j in range(5)],
                },
                "tamper": False,
            }
        )
    return jobs


# ---------------------------------------------------------------------------
# lie_padic: nilradical homology, BCH valuations, group laws and norms
# ---------------------------------------------------------------------------


def nilradical(k, rng, factor=1):
    """Strictly upper triangular k x k matrices, basis shuffled and signed.

    E_ij (i < j) with [E_ij, E_kl] = d_jk E_il - d_li E_kj; the seed permutes
    and re-signs the basis, which changes the structure constants but not
    the algebra.  Returns the JSON form and the bracket table.
    """
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    rng.shuffle(pairs)
    signs = [rng.choice([1, -1]) for _ in pairs]
    pos = {e: n for n, e in enumerate(pairs)}
    d = len(pairs)
    table = {}
    for a, (i, j) in enumerate(pairs):
        for b, (kk, l) in enumerate(pairs):
            if a >= b:
                continue
            vec = [0] * d
            if j == kk:
                vec[pos[(i, l)]] += signs[a] * signs[b] * signs[pos[(i, l)]]
            if l == i:
                vec[pos[(kk, j)]] -= signs[a] * signs[b] * signs[pos[(kk, j)]]
            if any(vec):
                table[(a, b)] = [factor * x for x in vec]
    brackets = [
        [a, b, [[c, str(x)] for c, x in enumerate(vec) if x]] for (a, b), vec in table.items()
    ]
    return {"dim": d, "brackets": sorted(brackets)}, table


def _kappa(p):
    return 2 if p == 2 else 1


def lie_padic(rng, indir):
    jobs = []
    for k in (4, 5):
        doc, _ = nilradical(k, rng)
        jobs.append(
            {
                "name": f"ce-n{k}",
                "args": ["ce-homology", "--lie", _write(indir, f"n{k}.json", doc)],
                "check": "ce",
                "expect": {"betti": exact.mahonian(k)},
                "tamper": False,
            }
        )
    # sl2 on the basis (a e, c h, b f) for random nonzero a, b, c
    a, b, c = _scalar(rng), _scalar(rng), _scalar(rng)
    sl2 = {"dim": 3, "brackets": [
        [0, 1, [[0, str(-2 * c)]]],
        [0, 2, [[1, str(a * b / c)]]],
        [1, 2, [[2, str(-2 * c)]]],
    ]}
    jobs.append(
        {
            "name": "ce-sl2",
            "args": ["ce-homology", "--lie", _write(indir, "sl2.json", sl2)],
            "check": "ce",
            "expect": {"betti": [1, 0, 0, 1]},
            "tamper": True,
        }
    )
    size = 10
    for p in (2, 3):
        unit = Fraction(p) ** _kappa(p)
        mats = []
        for _ in range(2):
            m = exact.zeros(size, size)
            for i in range(size):
                for j in range(i + 1, size):
                    if j == i + 1 or rng.random() < 0.3:
                        m[i][j] = unit * rng.randint(-3, 3)
            mats.append(exact.to_json(m, size))
        pairs = [{"name": "random", "x": mats[0], "y": mats[1]}]
        path = _write(indir, f"pairs-{p}.json", {"pairs": pairs})
        jobs.append(
            {
                "name": f"bch-p{p}",
                "args": ["bch-verify", "--p", str(p), "--n-max", str(size - 1),
                         "--input", path],
                "check": "bch",
                "expect": {"p": p},
                "tamper": False,
            }
        )
    p = 3
    doc, table = nilradical(4, rng, factor=p**_kappa(p))
    jobs.append(
        {
            "name": "group-law-n4",
            "args": ["group-law", "--p", str(p), "--N", "4", "--lie",
                     _write(indir, "n4-scaled.json", doc)],
            "check": "group_law",
            "expect": {"dim": doc["dim"], "table": [[a, b, v] for (a, b), v in table.items()]},
            "tamper": False,
        }
    )
    jobs.append(
        {
            "name": "norms",
            "args": ["norms", "--p", "3", "--seed", str(rng.randrange(10**6)),
                     "--pairs", "200", "--nu-count", "20"],
            "check": "norms",
            "expect": {"p": 3, "radius": "-1/3"},
            "tamper": False,
        }
    )
    return jobs


def _combined(*parts):
    def generate(rng, indir):
        jobs = [job for part in parts for job in part(rng, indir)]
        rng.shuffle(jobs)
        return jobs

    return generate


# Two workloads of two parts each: the run budget gives two workloads runs of
# about a minute but four only half that, and only the longer runs average
# out the machine's speed swings, which last about half a minute.  The parts
# keep the contrast: only ``group_modules`` does module algebra.
WORKLOADS = {
    "group_modules": _combined(ext_crossed, wall_assembly),
    "tree_lie": _combined(tree_ball, lie_padic),
}
