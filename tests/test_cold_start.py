"""Every subcommand, and the replay of its dump, in a fresh interpreter.

In-process tests run after some test has imported every wallforge module,
so a job that forgot to import what it uses would still pass there, and
``verify-replay`` reports any exception, a ``NameError`` included, as
``FAIL``.  Here each subcommand of ``test_golden`` runs as its own
``python -m wallforge.cli`` process: its dump must hash to the pinned
value, it must load exactly the wallforge modules it needs, and a second
fresh process must replay that dump alone with exit code 0.  The front door
on its own (an import, ``--help``, a usage error, malformed dumps) must load
no algebra module at all.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wallforge
from test_golden import GOLDEN, _argvs

SRC = Path(wallforge.__file__).resolve().parents[1]

# what the front door loads whatever the subcommand; under ``python -m``
# wallforge.cli itself runs as __main__ and is never imported by name
FRONT = {"wallforge", "wallforge.cli_common"}

# the job module and the algebra modules each subcommand loads besides;
# bch builds on lie and arith, and lie, tree and groupalg on complexes and linalg
LOADS = {
    "ce-homology": {"cli_lie", "lie", "complexes", "linalg"},
    "wall-demo": {"cli_groupalg", "groupalg", "wall", "complexes", "linalg"},
    "wall-build": {"cli_groupalg", "groupalg", "wall", "complexes", "linalg"},
    "tree-ss": {"cli_tree", "tree", "arith", "complexes", "linalg"},
    "pushout-check": {"cli_tree", "tree", "arith", "complexes", "linalg"},
    "cosimplicial-check": {"cli_tree", "tree", "arith", "complexes", "linalg"},
    "bch-verify": {"cli_lie", "bch", "lie", "arith", "complexes", "linalg"},
    "group-law": {"cli_lie", "bch", "lie", "arith", "complexes", "linalg"},
    "norms": {"cli_lie", "bch", "lie", "arith", "complexes", "linalg"},
    "radius": {"cli_lie", "arith"},
    "ext-crossed": {"cli_groupalg", "groupalg", "complexes", "linalg"},
}


def _cold_run(args):
    """Run ``python -X importtime args`` fresh; returns (process, every module imported)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        cwd=SRC,
        env=env,
        capture_output=True,
        text=True,
    )
    imported = {
        line.rsplit("|", 1)[-1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return proc, imported


def _wallforge_modules(imported):
    return {name for name in imported if name == "wallforge" or name.startswith("wallforge.")}


@pytest.fixture(scope="module")
def cold_runs(tmp_path_factory):
    """Each golden subcommand and the replay of its dump, as fresh processes."""
    tmp_path = tmp_path_factory.mktemp("cold")
    argvs = _argvs(tmp_path)
    runs = {}
    for name in sorted(GOLDEN):
        out = tmp_path / f"{name}.json"
        job = _cold_run(["-m", "wallforge.cli", *argvs[name], "--out", str(out)])
        replay = _cold_run(["-m", "wallforge.cli", "verify-replay", str(out)])
        runs[name] = (out, job, replay)
    return runs


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fresh_process_dump_and_replay(name, cold_runs):
    expected = FRONT | {f"wallforge.{m}" for m in LOADS[name]}
    out, (proc, imported), (replay, replay_imported) = cold_runs[name]
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[name]
    assert _wallforge_modules(imported) == expected

    assert replay.returncode == 0, replay.stdout + replay.stderr[-2000:]
    assert replay.stdout == f"ok {out}\n"
    assert _wallforge_modules(replay_imported) == expected


def test_no_process_imports_the_front_door_by_name(cold_runs):
    # a job module that imported wallforge.cli would run a second copy of the
    # front door next to the __main__ one
    for name, (_, (_, imported), (_, replay_imported)) in cold_runs.items():
        assert "wallforge.cli" not in imported, name
        assert "wallforge.cli" not in replay_imported, name


def test_importing_the_front_door_loads_no_algebra():
    proc, imported = _cold_run(["-c", "import wallforge.cli"])
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert _wallforge_modules(imported) == FRONT | {"wallforge.cli"}
    assert "dataclasses" not in imported


def _bad_dumps(tmp_path):
    docs = {
        "not-json.json": "{",
        "no-schema.json": json.dumps({"kind": "radius", "inputs": {}, "certificates": {}}),
        "unknown-kind.json": json.dumps(
            {"schema": "wallforge/1", "kind": "nope", "inputs": {}, "certificates": {}}
        ),
        "no-inputs.json": json.dumps(
            {"schema": "wallforge/1", "kind": "tree-ss", "certificates": {}}
        ),
    }
    paths = []
    for name, text in docs.items():
        path = tmp_path / name
        path.write_text(text)
        paths.append(str(path))
    return paths


@pytest.mark.parametrize("case", ["help", "usage-error", "malformed-dumps"])
def test_front_door_alone_loads_no_algebra(case, tmp_path):
    if case == "help":
        argv, code = ["--help"], 0
    elif case == "usage-error":
        argv, code = ["tree-ss", "--p", "x"], 1
    else:
        argv, code = ["verify-replay", *_bad_dumps(tmp_path)], 1
    proc, imported = _cold_run(["-m", "wallforge.cli", *argv])
    assert proc.returncode == code, proc.stdout + proc.stderr[-2000:]
    if case == "malformed-dumps":
        lines = proc.stdout.splitlines()
        assert len(lines) == 4 and all(line.startswith("INVALID ") for line in lines)
    assert _wallforge_modules(imported) == FRONT
