"""Byte-identity of one small dump per subcommand.

The sha256 of each dump is pinned.  Pivot columns, kernel and image bases
and particular solutions are unique for a given matrix, so a change to how
the linear algebra stores or eliminates matrices must leave every byte of
every dump unchanged.  A changed hash here means a changed dump: find out
why before touching the table.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from wallforge.cli import main
from wallforge.groupalg import AlgebraPresentation
from wallforge.lie import LieAlgebra
from wallforge.linalg import RationalMatrix

GOLDEN = {
    "ce-homology": "8da532d2c0a3c779956611137c174853aae8ae40b278a69dfad9c2fabd2c18a2",
    "wall-demo": "287b37356236f3d694a9d00834af8c8eaba6555e84013d40426090506a1e644a",
    "wall-build": "e4796b4b0ae7a9aaccb23e30fa52bd2525e6dacc7a7ab534e11c07962570657c",
    "tree-ss": "18d1a82cad65ebcdbf3b5725dee1c7cedeb615cffb6b159446bd4130b122cfd3",
    "pushout-check": "ac2b927cc9101b4ee161680273a86b284f2e8f79378253f0a45a85c7e24a1fc7",
    "cosimplicial-check": "3562fc6aeb8f30c65990b563920150e39196de064a7d6c1d48997e3ea9784a8d",
    "bch-verify": "f4fcbe5a30aeaf92de70b5cd1c75bc8faf85a13bfbeff6557a5fb2d5b136cc50",
    "group-law": "225b98377d590d9f800e3b648686ecbafda8d705708e648e83b89375366846e0",
    "norms": "5c47ab1f56f8664339e0ea299dc862b6805e16e6fdc47c9462da1d4b8079b9ed",
    "radius": "fe7069e3ac4042a600e3ace8b3adf634ff12cff8bd9c8b9c70eb4018edef06b5",
    "ext-crossed": "af47d60ccc0d1991b2ef7e2820fecd87da6f31a5438644cd2eb2d3b808c72f7f",
}


def _argvs(tmp_path):
    sl2 = tmp_path / "sl2.json"
    sl2.write_text(json.dumps(LieAlgebra.sl2().to_json()))
    regular = {
        "actions": [
            RationalMatrix.identity(2).to_json(),
            RationalMatrix([[0, 0], [1, 0]]).to_json(),
        ]
    }
    trivial = {
        "actions": [
            RationalMatrix.identity(1).to_json(),
            RationalMatrix.zeros(1, 1).to_json(),
        ]
    }
    job = tmp_path / "job.json"
    job.write_text(
        json.dumps(
            {
                "algebra": AlgebraPresentation.exterior_algebra(1).to_json(),
                "modules": [regular, trivial],
                "maps": [RationalMatrix([[0], ["1/2"]]).to_json()],
                "lengths": [3, 2],
                "truncate": 1,
            }
        )
    )
    return {
        "ce-homology": ["ce-homology", "--lie", str(sl2)],
        "wall-demo": ["wall-demo", "--group", "Z3", "--degrees", "2"],
        "wall-build": ["wall-build", "--input", str(job)],
        "tree-ss": ["tree-ss", "--p", "2", "--radius", "2", "--fiber-dim", "2"],
        "pushout-check": ["pushout-check", "--p", "2", "--radius", "2", "--shared-radius", "1"],
        "cosimplicial-check": ["cosimplicial-check", "--p", "2", "--radius", "1", "--j-max", "2"],
        "bch-verify": ["bch-verify", "--p", "3", "--n-max", "4", "--size", "4"],
        "group-law": ["group-law", "--p", "2", "--N", "3"],
        "norms": ["norms", "--p", "2", "--seed", "4", "--pairs", "2", "--nu-count", "1"],
        "radius": ["radius", "--p", "3", "--r", "-1/4", "--e", "1", "--q", "3"],
        "ext-crossed": ["ext-crossed", "--rank", "1", "--group", "Z4", "--n-max", "2"],
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_dump_bytes_are_pinned(name, tmp_path, capsys):
    out = tmp_path / f"{name}.out.json"
    assert main(_argvs(tmp_path)[name] + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[name]
