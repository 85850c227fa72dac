"""Spans around calls into wallforge's modules, taken from outside the program.

Run as a script, this is a drop-in for ``python -m wallforge.cli``:

    python bench/tracer.py SPANS.json JOB -- <wallforge arguments>

It imports wallforge, wraps the public functions listed in ``LAYERS`` (in the
module that defines each one and in every wallforge module that bound it by
``from ... import``), runs the command through ``wallforge.cli.main`` and
writes the spans when the command ends.  The dump bytes do not change.

A span is ``[name, start, end, parent, inner_overhead, cells, extra]``: the
tracer's own bookkeeping inside the span (``inner_overhead``) is taken off
its duration, and a span's self time is that net duration minus the net
durations of its child spans.  ``aggregate`` turns span files into the
per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from time import perf_counter

# metric group -> [(module, qualified name, measure)], where measure names how
# the wrapper fills a span's ``cells`` and ``extra`` fields
LAYERS = {
    "linalg.construct": [("linalg", "RationalMatrix.__init__", "shape_after")],
    "linalg.apply": [("linalg", "RationalMatrix.apply", "apply")],
    "linalg.matmul": [("linalg", "RationalMatrix.__matmul__", "matmul")],
    "linalg.assemble": [
        ("linalg", "RationalMatrix.block_diag", "result"),
        ("linalg", "RationalMatrix.kron", "result"),
        ("linalg", "RationalMatrix.hstack", "result"),
        ("linalg", "RationalMatrix.vstack", "result"),
    ],
    "linalg.eliminate": [
        ("linalg", "rank_kernel_image", "first_nnz"),
        ("linalg", "solve_matrix", "augmented_nnz"),
        ("linalg", "solve_vector", "augmented_nnz"),
        ("linalg", "RationalMatrix.rank", "first_nnz"),
        ("linalg", "RationalMatrix.det", "first_nnz"),
    ],
    "linalg.span": [
        ("linalg", "SpanTracker.add", "grew"),
        ("linalg", "SpanTracker.contains", None),
        ("linalg", "extend_to_basis", None),
    ],
    "linalg.subspace_solve": [("linalg", "solve_in_subspace", None)],
    "complexes.homology": [
        ("complexes", "homology", None),
        ("complexes", "homology_dims", None),
        ("complexes", "cohomology_dims", None),
    ],
    "complexes.validate": [
        ("complexes", "ChainComplex.violations", None),
        ("complexes", "ChainComplex.require_valid", None),
    ],
    "groupalg.resolution": [("groupalg", "free_resolution", "free_rank")],
    "groupalg.ext": [
        ("groupalg", "ext_dims", None),
        ("groupalg", "crossed_ext_compare", None),
    ],
    "groupalg.ext_action": [("groupalg", "ext_action_matrices", None)],
    "groupalg.crossed_product": [
        ("groupalg", "crossed_product", None),
        ("groupalg", "crossed_module", None),
    ],
    "wall.hom_basis": [("wall", "module_hom_basis", None)],
    "wall.build": [("wall", "build_wall", None), ("wall", "truncated_wall", None)],
    "wall.total": [("wall", "total_complex", None), ("wall", "base_complex", None)],
    "wall.quasi_iso": [("wall", "augmentation_quasi_iso", None)],
    "wall.identities": [("wall", "verify_induction_identities", None)],
    "tree.ball": [("tree", "FiniteSubtree.ball", None)],
    "tree.ss_complex": [("tree", "ss_chain_complex", None)],
    "tree.pushout": [("tree", "pushout_complex", None)],
    "tree.cosimplicial": [("tree", "cosimplicial_row_check", None)],
    "lie.ce_complex": [("lie", "ce_complex", None)],
    "lie.homology": [("lie", "lie_homology", None)],
    "lie.validate": [("lie", "validate_lie", None)],
    "bch.evaluate": [("bch", "bch_evaluate_nilpotent", None)],
    "bch.group_law": [("bch", "group_law_polynomials", None)],
    "bch.gauss_norm": [("bch", "gauss_norm", None)],
    "bch.expansion": [("bch", "dr_norm_and_expansion", None)],
    "arith.valuation": [("arith", "p_valuation", None)],
    "cli.serialize": [
        ("linalg", "RationalMatrix.to_json", None),
        ("linalg", "RationalMatrix.from_json", None),
        ("complexes", "ChainComplex.to_json", None),
        ("complexes", "ChainComplex.from_json", None),
        ("cli", "_render", None),
        ("cli", "_load_json", None),
    ],
}

GROUP_OF = {f"{mod}.{name}": group for group, entries in LAYERS.items() for mod, name, _ in entries}

# which per-layer metrics each group reports, besides self_s
COUNTED = {
    "linalg.construct": ("calls", "cells"),
    "linalg.apply": ("calls", "cells", "density"),
    "linalg.matmul": ("calls", "cells"),
    "linalg.assemble": ("calls", "cells"),
    "linalg.eliminate": ("calls", "cells", "density"),
    "linalg.span": ("calls", "useful_ratio"),
    "linalg.subspace_solve": ("calls",),
    "complexes.homology": ("calls",),
    "groupalg.resolution": ("calls", "free_rank"),
    "groupalg.ext_action": ("calls",),
    "wall.hom_basis": ("calls",),
    "bch.gauss_norm": ("calls",),
    "arith.valuation": ("calls",),
}

UNITS = {"calls": "calls", "cells": "cells", "density": "ratio", "useful_ratio": "ratio",
         "free_rank": "count", "self_s": "s"}


def metric_names():
    """Every per-layer metric name with its unit, in a fixed order."""
    out = []
    for group in LAYERS:
        for field in COUNTED.get(group, ()) + ("self_s",):
            out.append((f"{group}.{field}", UNITS[field]))
    return out


# ---------------------------------------------------------------------------
# recording (runs inside the traced wallforge process)
# ---------------------------------------------------------------------------


def _nonzeros(rows):
    return sum(1 for row in rows for x in row if x)


class Recorder:
    """Open-span stack and finished spans of one traced process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.overhead = 0.0  # the tracer's own time, summed
        self.nnz_cache = {}

    def nnz(self, m):
        """Nonzero entries of a matrix; cached, since apply reuses few matrices."""
        hit = self.nnz_cache.get(id(m))
        if hit is not None and hit[0] is m:
            return hit[1]
        count = _nonzeros(m.rows)
        if len(self.nnz_cache) > 512:
            self.nnz_cache.clear()
        self.nnz_cache[id(m)] = (m, count)
        return count

    def before(self, measure, args):
        """(cells, extra) known before the call."""
        if measure == "apply":
            m = args[0]
            return m.nrows * m.ncols, self.nnz(m)
        if measure == "matmul":
            a, b = args[0], args[1]
            return a.nrows * a.ncols * b.ncols, 0
        if measure == "first_nnz":
            m = args[0]
            return m.nrows * m.ncols, _nonzeros(m.rows)
        if measure == "augmented_nnz":  # solve_matrix(A, B) or solve_vector(A, b)
            a, b = args[0], args[1]
            b_rows = b.rows if hasattr(b, "rows") else [b]
            width = b.ncols if hasattr(b, "ncols") else 1
            return a.nrows * (a.ncols + width), _nonzeros(a.rows) + _nonzeros(b_rows)
        return 0, 0

    @staticmethod
    def after(measure, args, result, rec):
        if measure == "shape_after":
            rec[5] = args[0].nrows * args[0].ncols
        elif measure == "result":
            rec[5] = result.nrows * result.ncols
        elif measure == "grew":
            rec[6] = int(bool(result))
        elif measure == "free_rank":
            rec[6] = sum(result.ranks)

    def wrap(self, name, fn, measure):
        def traced(*args, **kwargs):
            t0 = perf_counter()
            cells, extra = self.before(measure, args)
            rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, 0.0, cells, extra]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            before = self.overhead
            t1 = perf_counter()
            self.overhead += t1 - t0
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = perf_counter()
                self.stack.pop()
                rec[1], rec[2], rec[4] = t1, t2, self.overhead - before
            if measure is not None:
                self.after(measure, args, result, rec)
            self.overhead += perf_counter() - t2
            return result

        return traced

    def install(self):
        """Wrap every LAYERS entry wherever wallforge binds it."""
        mods = {
            m: importlib.import_module(f"wallforge.{m}")
            for m in ("arith", "linalg", "complexes", "lie", "groupalg", "wall", "tree", "bch", "cli")
        }
        for entries in LAYERS.values():
            for mod, qual, measure in entries:
                name = f"{mod}.{qual}"
                owner_name, _, attr = qual.rpartition(".")
                if owner_name:
                    owner = getattr(mods[mod], owner_name)
                    raw = owner.__dict__[attr]
                    if isinstance(raw, (classmethod, staticmethod)):
                        wrapped = type(raw)(self.wrap(name, raw.__func__, measure))
                    else:
                        wrapped = self.wrap(name, raw, measure)
                    setattr(owner, attr, wrapped)
                    continue
                original = getattr(mods[mod], attr)
                wrapped = self.wrap(name, original, measure)
                for module in mods.values():
                    if getattr(module, attr, None) is original:
                        setattr(module, attr, wrapped)

    def write(self, path, job):
        names = sorted({rec[0] for rec in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[r[0]], round(r[1], 7), round(r[2], 7), r[3], round(r[4], 7), r[5], r[6]]
                for r in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"job": job, "names": names, "spans": rows}, fh, separators=(",", ":"))


def main(argv):
    sep = argv.index("--")
    spans_path, job = argv[0], argv[1]
    sys.path.insert(0, os.getcwd())
    recorder = Recorder()
    recorder.install()
    from wallforge.cli import main as cli_main

    code = cli_main(argv[sep + 1:])
    recorder.write(spans_path, job)
    return code


# ---------------------------------------------------------------------------
# aggregation (runs in the benchmark process)
# ---------------------------------------------------------------------------


def aggregate(span_files):
    """Per-layer metrics summed over the given span files."""
    acc = {group: {"calls": 0, "cells": 0, "extra": 0, "self_s": 0.0, "adds": 0, "grew": 0}
           for group in LAYERS}
    for path in span_files:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        names = doc["names"]
        spans = doc["spans"]
        groups = [GROUP_OF[names[s[0]]] for s in spans]
        net = [s[2] - s[1] - s[4] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += net[i]
        for i, s in enumerate(spans):
            a = acc[groups[i]]
            a["self_s"] += net[i] - child[i]
            name = names[s[0]]
            if name == "linalg.SpanTracker.add":
                a["adds"] += 1
                a["grew"] += s[6]
            if s[3] >= 0 and groups[s[3]] == groups[i]:
                continue  # nested inside its own layer: not a call into it
            a["calls"] += 1
            a["cells"] += s[5]
            a["extra"] += s[6]
    out = {}
    for group in LAYERS:
        a = acc[group]
        values = {
            "calls": a["calls"],
            "cells": a["cells"],
            "density": a["extra"] / a["cells"] if a["cells"] else 0.0,
            "useful_ratio": a["grew"] / a["adds"] if a["adds"] else 0.0,
            "free_rank": a["extra"],
            "self_s": a["self_s"],
        }
        for field in COUNTED.get(group, ()) + ("self_s",):
            out[f"{group}.{field}"] = values[field]
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
