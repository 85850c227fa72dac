"""Every subcommand, and the replay of its dump, in a fresh interpreter.

In-process tests run after some test has imported every wallforge module,
so a job that forgot to import what it uses would still pass there, and
``verify-replay`` reports any exception, a ``NameError`` included, as
``FAIL``.  Here each subcommand of ``test_golden`` runs as its own
``python -m wallforge.cli`` process: its dump must hash to the pinned
value, it must load only the algebra modules it needs, and a second fresh
process must replay that dump alone with exit code 0.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wallforge
from test_golden import GOLDEN, _argvs

SRC = Path(wallforge.__file__).resolve().parents[1]

# loaded by the package itself and by the cli, whatever the subcommand
CORE = {"wallforge", "wallforge.arith", "wallforge.linalg", "wallforge.complexes"}

# the algebra modules each subcommand needs; bch builds on lie
NEEDS = {
    "ce-homology": {"lie"},
    "wall-demo": {"groupalg", "wall"},
    "wall-build": {"groupalg", "wall"},
    "tree-ss": {"tree"},
    "pushout-check": {"tree"},
    "cosimplicial-check": {"tree"},
    "bch-verify": {"bch", "lie"},
    "group-law": {"bch", "lie"},
    "norms": {"bch", "lie"},
    "radius": set(),
    "ext-crossed": {"groupalg"},
}


def _cold_run(argv):
    """Run ``python -m wallforge.cli argv`` fresh; returns (process, wallforge modules)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "wallforge.cli", *argv],
        cwd=SRC,
        env=env,
        capture_output=True,
        text=True,
    )
    loaded = set()
    for line in proc.stderr.splitlines():
        if line.startswith("import time:"):
            name = line.rsplit("|", 1)[-1].strip()
            if name == "wallforge" or name.startswith("wallforge."):
                loaded.add(name)
    return proc, loaded


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fresh_process_dump_and_replay(name, tmp_path):
    expected = CORE | {f"wallforge.{m}" for m in NEEDS[name]}
    out = tmp_path / f"{name}.json"
    proc, loaded = _cold_run(_argvs(tmp_path)[name] + ["--out", str(out)])
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[name]
    assert loaded == expected

    proc, loaded = _cold_run(["verify-replay", str(out)])
    assert proc.returncode == 0, proc.stdout + proc.stderr[-2000:]
    assert proc.stdout == f"ok {out}\n"
    assert loaded == expected
