"""Command-line front door for the workbench.

Each subcommand loads JSON descriptions, runs one verification pipeline,
and emits a self-contained dump: raw matrices, the certified claims, and
an echo of the inputs that produced them.  Dumps are deterministic
(sorted keys, recorded seeds), so re-running a job reproduces its output
byte for byte, and ``verify-replay`` can re-audit any dump later: first
it re-checks the stored certificates directly from the raw matrices
(boundary squares, connecting-map identities, homology dimensions), then
it reproduces the whole dump from the recorded inputs and compares.

This module parses arguments, resolves inputs, renders and loads dumps and
drives ``verify-replay``.  It imports no algebra module: the handlers and
rechecks live in one job module per family (``cli_tree``, ``cli_lie``,
``cli_groupalg``), imported the first time a job or a dump needs it, and
each job module imports only the algebra modules its subcommands run.  So a
process compiles and loads only what its subcommand uses, and ``--help``, a
usage error or a malformed dump loads no algebra at all.  No module imports
this one by name: under ``python -m wallforge.cli`` it runs as
``__main__``, and a second import would load a second copy.

``bench/tracer.py`` wraps ``_render`` and ``_load_json`` here by name, and
wraps the algebra functions before this module runs a job.  So those two
stay in this module and are called through its globals, and the job modules
are imported only when a job needs them, after any such wrapping, which
their ``from ... import`` lines then pick up.

Exit codes: 0 success, 1 invalid input, 2 a failed mathematical
certificate, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence

from wallforge.cli_common import SCHEMA, _check_prime, _InputError, _RecordedInputs


class _UsageError(ValueError):
    """Raised in place of argparse's SystemExit so main can return 1."""


class JobSpec:
    """One resolved invocation: which pipeline, which files, which knobs."""

    def __init__(
        self,
        subcommand: str,
        input_paths: tuple[str, ...] = (),
        output_path: str | None = None,
        options: dict[str, object] | None = None,
    ):
        self.subcommand = subcommand
        self.input_paths = input_paths
        self.output_path = output_path
        self.options = {} if options is None else options


# subcommand -> the job module holding its handler, its replay recheck and
# the helpers that build its default inputs
_FAMILIES = {
    "tree-ss": "wallforge.cli_tree",
    "pushout-check": "wallforge.cli_tree",
    "cosimplicial-check": "wallforge.cli_tree",
    "ce-homology": "wallforge.cli_lie",
    "bch-verify": "wallforge.cli_lie",
    "group-law": "wallforge.cli_lie",
    "norms": "wallforge.cli_lie",
    "radius": "wallforge.cli_lie",
    "wall-demo": "wallforge.cli_groupalg",
    "wall-build": "wallforge.cli_groupalg",
    "ext-crossed": "wallforge.cli_groupalg",
}


def _family(subcommand: str):
    """The job module of a subcommand, imported on first use."""
    # __import__ rather than importlib.import_module, whose imports
    # ``python -X importtime`` does not report
    name = _FAMILIES[subcommand]
    __import__(name)
    return sys.modules[name]


def _is_certificate_failure(exc: BaseException) -> bool:
    # CertificateError lives in wallforge.complexes; if that module was never
    # loaded, nothing can have raised one
    complexes = sys.modules.get("wallforge.complexes")
    return complexes is not None and isinstance(exc, complexes.CertificateError)


# ---------------------------------------------------------------------------
# dump files
# ---------------------------------------------------------------------------


def _load_json(path: str) -> tuple[dict, str]:
    """The JSON object in a file, and the text it was parsed from."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object at top level")
    return data, text


def _render(dump: dict) -> str:
    return json.dumps(dump, sort_keys=True, indent=2) + "\n"


def _emit(dump: dict, out: str | None) -> None:
    text = _render(dump)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# replay: re-check stored certificates, then reproduce the dump
# ---------------------------------------------------------------------------


def _replay_validate(data: dict) -> None:
    if data.get("schema") != SCHEMA:
        raise ValueError(f"missing or unsupported schema tag, expected {SCHEMA!r}")
    kind = data.get("kind")
    if kind not in _FAMILIES:
        raise ValueError(f"unknown dump kind {kind!r}")
    if not isinstance(data.get("inputs"), dict):
        raise ValueError("dump carries no inputs to replay")
    if not isinstance(data.get("certificates"), dict):
        raise ValueError("dump carries no certificates")


def _replay_check(data: dict, text: str, fresh: dict) -> None:
    """Re-check the stored certificates, then compare with the recomputed dump.

    ``text`` is the file ``data`` was parsed from.  A dump written by
    ``_emit`` matches the fresh rendering byte for byte; only a file that was
    reformatted since is rendered again from ``data``.
    """
    kind = data["kind"]
    recheck = _family(kind).RECHECKS.get(kind)
    if recheck is not None:
        recheck(data)
    rendered = _render(fresh)
    if rendered != text and rendered != _render(data):
        from wallforge.complexes import CertificateError

        raise CertificateError(
            "recomputation from the recorded inputs does not reproduce the dump"
        )


def _replay_one(path: str) -> tuple[str, str, str]:
    """``(status, path, message)`` for one dump; status is ok, invalid or fail."""
    try:
        data, text = _load_json(path)
        _replay_validate(data)
    except ValueError as exc:
        return ("invalid", path, str(exc))
    kind = data["kind"]
    try:
        fresh = _family(kind).JOBS[kind](_RecordedInputs(data["inputs"]))
    except _InputError as exc:
        return ("invalid", path, str(exc))
    except Exception as exc:
        return ("fail", path, str(exc))
    try:
        _replay_check(data, text, fresh)
    except Exception as exc:
        return ("fail", path, str(exc))
    return ("ok", path, "")


def _envelope(path: str) -> tuple[str, int]:
    """The kind and the length of a dump that passes ``_replay_validate``."""
    data, text = _load_json(path)
    _replay_validate(data)
    return data["kind"], len(text)


def _replay_all(paths: Sequence[str]) -> list[tuple[str, str, str]]:
    """``_replay_one`` of every path, in order, over the CPUs this process may use.

    With more than one worker, this process first reads and envelope-checks
    every dump and imports the job module of each that passes, so the forked
    workers of ``forkmap`` share those imports instead of each loading them;
    a dump that fails the check is settled here and loads nothing.  The rest
    are replayed largest file first, so the longest replays start early.  A
    dump whose worker died fails.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(paths)) if hasattr(os, "fork") else 1
    if workers <= 1:
        return [_replay_one(path) for path in paths]
    results: list = [None] * len(paths)
    kinds, sizes = {}, {}
    for i, path in enumerate(paths):
        try:
            kinds[i], sizes[i] = _envelope(path)
        except ValueError as exc:
            results[i] = ("invalid", path, str(exc))
    # imported only once every parsed dump is garbage, so that the modules
    # do not pin the parser's freed memory
    for kind in sorted(set(kinds.values())):
        try:
            _family(kind)
        except Exception:
            pass  # the worker's own import fails the dump, as in the serial loop
    todo = sorted(sizes, key=lambda i: -sizes[i])
    if todo:
        from wallforge.forkmap import forked_map

        replayed = forked_map(lambda i: _replay_one(paths[i]), todo, workers)
        for i, result in zip(todo, replayed):
            if result is None:
                result = ("fail", paths[i], "the worker replaying this dump died")
            results[i] = tuple(result)
    return results


def verify_replay(paths: Sequence[str]) -> int:
    """Re-audit dumps; 0 all good, 1 malformed dump, 2 broken certificate.

    A dump is malformed when it cannot be read, lacks its envelope, or the
    job's own input checks refuse its recorded inputs: a missing field, a
    mistyped or out-of-range value.  Any other failure, including one from
    deeper in the recomputation, a stored certificate that does not hold or
    does not parse, and a worker process that died replaying the dump,
    breaks the certificate.  Dumps are replayed in parallel over the CPUs in
    this process's affinity mask and reported in the order given.
    """
    code = 0
    for status, path, message in _replay_all(paths):
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


def _resolve_inputs(spec: JobSpec, docs: list[dict]) -> dict:
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
            pairs = _family(name).builtin_bch_pairs(opts["p"], opts["size"])
        return {"p": opts["p"], "n_max": opts["n_max"], "pairs": pairs}
    if name == "group-law":
        if docs:
            lie = docs[0]
        else:
            lie = _family(name).powerful_heisenberg_json(_check_prime(opts["p"]))
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
            labels = _family(name).default_ext_labels(opts["group"], opts["rank"])
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
        docs = [_load_json(path)[0] for path in spec.input_paths]
        inputs = _resolve_inputs(spec, docs)
        dump = _family(spec.subcommand).JOBS[spec.subcommand](inputs)
        _emit(dump, spec.output_path)
        return 0
    except (ValueError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        if _is_certificate_failure(exc):
            print(f"certificate failure: {exc}", file=sys.stderr)
            return 2
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Fold ``--r -1/4`` into ``--r=-1/4`` so argparse keeps the value.

    Negative integers survive argparse's own heuristics; negative fractions
    with a slash do not, and the exponent flags take exactly those.
    """
    merged: list[str] = []
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


def main(argv: Sequence[str] | None = None) -> int:
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
