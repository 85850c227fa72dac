from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

from wallforge import arith, cli
from wallforge.cli import _merge_negative_values, main, verify_replay
from wallforge.complexes import CertificateError
from wallforge.groupalg import (
    AlgebraPresentation,
    FiniteGroupTable,
    ModulePresentation,
    standard_groups,
)
from wallforge.lie import LieAlgebra
from wallforge.linalg import RationalMatrix

from test_golden import _argvs
from wall_cases import recoordinatize_degree_0


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


def _sl2_file(tmp_path):
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(LieAlgebra.sl2().to_json()))
    return str(path)


def _bad_lie_file(tmp_path):
    bad = {"dim": 3, "brackets": [[0, 1, [[2, "1"]]], [0, 2, [[0, "1"]]]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    return str(path)


class TestParsing:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_no_subcommand_is_a_usage_error(self, capsys):
        code, _, _ = _run(capsys, [])
        assert code == 1

    def test_unknown_subcommand(self, capsys):
        code, _, err = _run(capsys, ["frobnicate"])
        assert code == 1

    def test_missing_required_flag(self, capsys):
        code, _, err = _run(capsys, ["radius", "--p", "3"])
        assert code == 1
        assert "usage error" in err

    def test_merge_negative_values(self):
        assert _merge_negative_values(["radius", "--r", "-1/4"]) == ["radius", "--r=-1/4"]
        assert _merge_negative_values(["--radius", "-1/3", "x"]) == ["--radius=-1/3", "x"]
        # non-numeric and flag-like strings pass through untouched
        assert _merge_negative_values(["--r", "--p"]) == ["--r", "--p"]
        assert _merge_negative_values(["--r"]) == ["--r"]
        assert _merge_negative_values(["--copies", "-1"]) == ["--copies", "-1"]


class TestRadius:
    def test_documented_example(self, capsys):
        dump = _run_json(capsys, ["radius", "--p", "3", "--r", "-1/4", "--e", "1", "--q", "3"])
        assert dump["h"] == 1
        assert dump["ell"] == 1
        assert dump["in_sR"] is True
        assert dump["m"] == 1

    def test_out_flag_writes_the_same_dump(self, capsys, tmp_path):
        argv = ["radius", "--p", "3", "--r", "-1/4", "--e", "1", "--q", "3"]
        dump = _run_json(capsys, argv)
        out = tmp_path / "radius.json"
        code, stdout, _ = _run(capsys, argv + ["--out", str(out)])
        assert code == 0
        assert stdout == ""
        assert json.loads(out.read_text()) == dump

    def test_residue_cardinality_defaults_to_p(self, capsys):
        dump = _run_json(capsys, ["radius", "--p", "2", "--r", "-1/2"])
        assert dump["inputs"]["q"] == 2

    def test_composite_p_rejected(self, capsys):
        code, _, err = _run(capsys, ["radius", "--p", "4", "--r", "-1/2"])
        assert code == 1
        assert "invalid input" in err

    def test_positive_exponent_rejected(self, capsys):
        code, _, _ = _run(capsys, ["radius", "--p", "3", "--r", "1/4"])
        assert code == 1


class TestCeHomology:
    def test_sl2_betti(self, capsys, tmp_path):
        dump = _run_json(capsys, ["ce-homology", "--lie", _sl2_file(tmp_path)])
        assert dump["betti"] == [1, 0, 0, 1]
        assert dump["certificates"]["d_squared"] == "zero"

    def test_two_dimensional_trivial_module_doubles_betti(self, capsys, tmp_path):
        lie = tmp_path / "heis.json"
        lie.write_text(json.dumps(LieAlgebra.heisenberg().to_json()))
        zeros = RationalMatrix.zeros(2, 2).to_json()
        mod = tmp_path / "mod.json"
        mod.write_text(json.dumps({"actions": [zeros, zeros, zeros]}))
        dump = _run_json(
            capsys, ["ce-homology", "--lie", str(lie), "--module", str(mod)]
        )
        assert dump["betti"] == [2, 4, 4, 2]

    def test_jacobi_violation_rejected(self, capsys, tmp_path):
        code, _, err = _run(capsys, ["ce-homology", "--lie", _bad_lie_file(tmp_path)])
        assert code == 1
        assert "rejected" in err

    def test_structure_constants_are_checked_once(self, capsys, tmp_path, monkeypatch):
        from wallforge import lie

        calls = []
        original = lie.validate_lie

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(lie, "validate_lie", counted)
        _run_json(capsys, ["ce-homology", "--lie", _sl2_file(tmp_path)])
        assert len(calls) == 1
        code, _, err = _run(capsys, ["ce-homology", "--lie", _bad_lie_file(tmp_path)])
        assert code == 1 and len(calls) == 2
        assert "structure constants rejected: antisymmetry [], jacobi [(0, 1, 2)]" in err

    def test_replay_of_bad_structure_constants_is_invalid(self, capsys, tmp_path):
        path = tmp_path / "ce.json"
        assert main(["ce-homology", "--lie", _sl2_file(tmp_path), "--out", str(path)]) == 0
        data = json.loads(path.read_text())
        with open(_bad_lie_file(tmp_path)) as fh:
            data["inputs"]["lie"] = json.load(fh)
        path.write_text(json.dumps(data))
        code, out, _ = _run(capsys, ["verify-replay", str(path)])
        assert code == 1
        assert "INVALID" in out and "structure constants rejected" in out

    def test_incompatible_module_rejected(self, capsys, tmp_path):
        lie = tmp_path / "heis.json"
        lie.write_text(json.dumps(LieAlgebra.heisenberg().to_json()))
        mod = tmp_path / "mod.json"
        mod.write_text(
            json.dumps(
                {
                    "actions": [
                        RationalMatrix([[0, 1], [0, 0]]).to_json(),
                        RationalMatrix([[0, 0], [1, 0]]).to_json(),
                        RationalMatrix.zeros(2, 2).to_json(),
                    ]
                }
            )
        )
        code, _, err = _run(capsys, ["ce-homology", "--lie", str(lie), "--module", str(mod)])
        assert code == 1
        assert "module action rejected: [(0, 1)]" in err

    def test_missing_file(self, capsys):
        code, _, err = _run(capsys, ["ce-homology", "--lie", "/nonexistent.json"])
        assert code == 1
        assert "cannot read" in err


class TestWallDemo:
    def test_cyclic_demo_certifies(self, capsys):
        dump = _run_json(capsys, ["wall-demo", "--group", "Z2", "--degrees", "3"])
        assert dump["certificates"]["delta_squared"] == "zero"
        assert dump["certificates"]["induction_identities"] == "verified"
        section = dump["truncated"]
        assert section["certificates"]["betti_match"] is True
        assert section["certificates"]["betti_total"] == section["certificates"]["betti_base"]

    def test_symmetric_group_demo(self, capsys):
        dump = _run_json(capsys, ["wall-demo", "--group", "S3", "--degrees", "2"])
        assert dump["group_order"] == 6
        assert dump["truncated"]["certificates"]["betti_match"] is True

    def test_each_assembly_is_verified_once(self, capsys, monkeypatch):
        from wallforge import wall

        calls = []
        original = wall.verify_induction_identities

        def counted(W):
            calls.append(W)
            return original(W)

        monkeypatch.setattr(wall, "verify_induction_identities", counted)
        dump = _run_json(capsys, ["wall-demo", "--group", "Z2", "--degrees", "3"])
        assert dump["truncated"] is not None
        # the built assembly and its truncation, each checked by its construction
        assert len(calls) == 2

    def test_each_total_complex_is_built_once(self, capsys, monkeypatch):
        from wallforge import wall

        calls = []
        original = wall.total_complex

        def counted(W):
            calls.append(W)
            return original(W)

        monkeypatch.setattr(wall, "total_complex", counted)
        dump = _run_json(capsys, ["wall-demo", "--group", "Z2", "--degrees", "3"])
        assert dump["truncated"]["certificates"]["betti_match"] is True
        # the built assembly's, and the truncation's inside the quasi-isomorphism check
        assert len(calls) == 2

    def test_augmentation_ideal_matches_the_reference(self):
        from wallforge.cli_groupalg import _augmentation_ideal

        from wall_cases import augmentation_ideal

        for Q in standard_groups(8):
            A = AlgebraPresentation.group_algebra(Q)
            ideal, incl = _augmentation_ideal(A)
            want, want_incl = augmentation_ideal(A)
            assert incl == want_incl
            assert ideal.actions == want.actions

    def test_augmentation_ideal_is_one_solve(self, monkeypatch):
        from wallforge import cli_groupalg

        calls = []
        original = cli_groupalg.solve_matrix

        def counted(A, B):
            calls.append(B.shape)
            return original(A, B)

        monkeypatch.setattr(cli_groupalg, "solve_matrix", counted)
        A = AlgebraPresentation.group_algebra(FiniteGroupTable.dihedral(4))
        cli_groupalg._augmentation_ideal(A)
        # the eight basis elements' right-hand sides side by side
        assert calls == [(8, 56)]

    def test_trivial_group_rejected(self, capsys):
        code, _, _ = _run(capsys, ["wall-demo", "--group", "Z1", "--degrees", "2"])
        assert code == 1

    def test_unknown_group(self, capsys):
        code, _, err = _run(capsys, ["wall-demo", "--group", "K4", "--degrees", "2"])
        assert code == 1
        assert "unknown group" in err


def _wall_job_file(tmp_path, **overrides):
    A = AlgebraPresentation.exterior_algebra(1)
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
    job = {
        "algebra": A.to_json(),
        "modules": [regular, trivial],
        "maps": [RationalMatrix([[0], [1]]).to_json()],
        "lengths": [3, 2],
        "truncate": 1,
    }
    job.update(overrides)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    return str(path)


class TestWallBuild:
    def test_two_column_job(self, capsys, tmp_path):
        dump = _run_json(capsys, ["wall-build", "--input", _wall_job_file(tmp_path)])
        assert dump["certificates"]["delta_squared"] == "zero"
        assert dump["truncated"]["certificates"]["betti_match"] is True

    def test_wrong_map_count(self, capsys, tmp_path):
        path = _wall_job_file(tmp_path, maps=[])
        code, _, err = _run(capsys, ["wall-build", "--input", path])
        assert code == 1
        assert "maps" in err

    def test_bad_schema_tag(self, capsys, tmp_path):
        path = _wall_job_file(tmp_path, schema="other/9")
        code, _, _ = _run(capsys, ["wall-build", "--input", path])
        assert code == 1

    def test_lengths_must_match_columns(self, capsys, tmp_path):
        path = _wall_job_file(tmp_path, lengths=[3])
        code, _, _ = _run(capsys, ["wall-build", "--input", path])
        assert code == 1

    def test_order_other_than_forward_is_invalid(self, capsys, tmp_path):
        path = _wall_job_file(tmp_path, order="reversed")
        code, out, err = _run(capsys, ["wall-build", "--input", path])
        assert code == 1 and out == ""
        assert "invalid input: order must be 'forward'" in err

    def test_replay_of_a_job_with_another_order_is_invalid(self, capsys, tmp_path):
        dump = _run_json(capsys, ["wall-build", "--input", _wall_job_file(tmp_path)])
        dump["inputs"]["job"]["order"] = "reversed"
        path = tmp_path / "reversed.json"
        path.write_text(cli._render(dump))
        code, out, _ = _run(capsys, ["verify-replay", str(path)])
        assert code == 1
        assert out.startswith(f"INVALID {path}: order must be 'forward'")

    def test_columns_without_room_fail_the_certificate(self, capsys, tmp_path):
        trivial = {
            "actions": [
                RationalMatrix.identity(1).to_json(),
                RationalMatrix.zeros(1, 1).to_json(),
            ]
        }
        path = _wall_job_file(
            tmp_path,
            modules=[trivial, trivial],
            maps=[RationalMatrix.identity(1).to_json()],
            lengths=[0, 2],
            truncate=None,
        )
        code, out, err = _run(capsys, ["wall-build", "--input", path])
        assert code == 2 and out == ""
        assert "(q=1, j=1, k=1)" in err

    def test_replay_of_a_changed_augmentation_fails(self, capsys, tmp_path):
        from wallforge.wall import wall_from_json

        dump = _run_json(capsys, ["wall-build", "--input", _wall_job_file(tmp_path)])
        aug = dump["assembly"]["columns"][1]["augmentation"]
        aug["entries"] = [[0, 1, "1"], *aug["entries"]]
        # reading the assembly already refuses it
        with pytest.raises(CertificateError, match=re.escape("identity fails at (q=1, j=0, k=1)")):
            wall_from_json(dump["assembly"])
        path = tmp_path / "changed.json"
        path.write_text(cli._render(dump))
        code, out, _ = _run(capsys, ["verify-replay", str(path)])
        assert code == 2
        assert out.startswith(f"FAIL {path}: identity fails at (q=1, j=0, k=1)")

    def test_replay_of_a_recoordinatized_free_spot_fails(self, capsys, tmp_path):
        # E[Z/2]'s trivial line; its degree-0 free spot conjugated by
        # [[1, 1], [1, -1]] keeps every identity and certificate
        A = AlgebraPresentation.group_algebra(FiniteGroupTable.cyclic(2))
        trivial = {"actions": [RationalMatrix.identity(1).to_json()] * 2}
        job = _wall_job_file(
            tmp_path, algebra=A.to_json(), modules=[trivial], maps=[], lengths=[3], truncate=None
        )
        dump = _run_json(capsys, ["wall-build", "--input", job])
        recoordinatize_degree_0(dump["assembly"]["columns"][0])
        path = tmp_path / "changed.json"
        path.write_text(cli._render(dump))
        code, out, _ = _run(capsys, ["verify-replay", str(path)])
        assert code == 2
        assert out.startswith(f"FAIL {path}: column 0 degree 0 stores")

    def test_replay_of_changed_truncated_betti_numbers_fails(self, capsys, tmp_path):
        from wallforge.cli_groupalg import _recheck_wall

        dump = _run_json(capsys, ["wall-build", "--input", _wall_job_file(tmp_path)])
        dump["truncated"]["certificates"]["betti_base"][0] += 1
        message = "stored truncated certificates do not match the matrices"
        with pytest.raises(CertificateError, match=message):
            _recheck_wall(dump)
        path = tmp_path / "changed.json"
        path.write_text(cli._render(dump))
        code, out, _ = _run(capsys, ["verify-replay", str(path)])
        assert code == 2
        assert out.startswith(f"FAIL {path}: {message}")

    def test_truncation_that_cannot_complete_a_column_is_invalid(self, capsys, tmp_path):
        A = AlgebraPresentation.group_algebra(FiniteGroupTable.cyclic(2))
        one = RationalMatrix.identity(1).to_json()
        for length in (2, 0):
            path = _wall_job_file(
                tmp_path,
                algebra=A.to_json(),
                modules=[{"actions": [one, one]}],
                maps=[],
                lengths=[length],
                truncate=length,
            )
            code, out, err = _run(capsys, ["wall-build", "--input", path])
            assert code == 1 and out == ""
            assert f"invalid input: column 0 stops at degree {length}, within the bound {length}" in err
        regular = {"actions": [m.to_json() for m in ModulePresentation.regular(A).actions]}
        path = _wall_job_file(
            tmp_path, algebra=A.to_json(), modules=[regular], maps=[], lengths=[0], truncate=0
        )
        dump = _run_json(capsys, ["wall-build", "--input", path])
        assert dump["truncated"]["certificates"]["betti_total"] == [2]

    def test_order_forward_renders_as_no_order(self, capsys, tmp_path):
        code, plain, _ = _run(capsys, ["wall-build", "--input", _wall_job_file(tmp_path)])
        assert code == 0
        named = _run_json(capsys, ["wall-build", "--input", _wall_job_file(tmp_path, order="forward")])
        # the job is recorded as given; apart from that key the bytes agree
        assert named["inputs"]["job"].pop("order") == "forward"
        assert cli._render(named) == plain


class TestTreeSS:
    def test_ball_complex(self, capsys):
        dump = _run_json(capsys, ["tree-ss", "--p", "2", "--radius", "1"])
        assert dump["certificates"]["homology"] == [1, 0]
        assert dump["certificates"]["vertex_count"] == 4
        assert dump["certificates"]["augmentation_square"] == "zero"

    def test_fiber_dimension_scales_h0(self, capsys):
        dump = _run_json(capsys, ["tree-ss", "--p", "3", "--radius", "1", "--fiber-dim", "2"])
        assert dump["certificates"]["homology"] == [2, 0]

    def test_composite_p_rejected(self, capsys):
        code, _, _ = _run(capsys, ["tree-ss", "--p", "6", "--radius", "1"])
        assert code == 1

    def test_negative_radius_rejected(self, capsys):
        code, _, _ = _run(capsys, ["tree-ss", "--p", "2", "--radius", "-1"])
        assert code == 1

    def test_failed_certificate_and_internal_fault_exit_codes(self, capsys, monkeypatch):
        from wallforge import cli_tree

        monkeypatch.setattr(cli_tree, "homology_dims", lambda C: {0: 0, 1: 1})
        code, _, err = _run(capsys, ["tree-ss", "--p", "2", "--radius", "1"])
        assert code == 2 and err.startswith("certificate failure: ")

        def broken(C):
            raise KeyError("internal")

        monkeypatch.setattr(cli_tree, "homology_dims", broken)
        code, _, err = _run(capsys, ["tree-ss", "--p", "2", "--radius", "1"])
        assert code == 3 and err.startswith("internal error: ")


class TestPushoutCheck:
    def test_convex_gluing(self, capsys):
        dump = _run_json(
            capsys,
            ["pushout-check", "--p", "2", "--radius", "2", "--shared-radius", "1", "--copies", "3"],
        )
        assert dump["certificates"]["verdict"] == "contractible"
        assert dump["certificates"]["reduced_homology"] == [0, 0]

    def test_non_convex_control(self, capsys):
        dump = _run_json(capsys, ["pushout-check", "--p", "2", "--radius", "1", "--non-convex"])
        assert dump["certificates"]["verdict"] == "cycle-detected"
        assert dump["certificates"]["homology"][1] >= 1

    def test_shared_ball_must_fit(self, capsys):
        code, _, _ = _run(
            capsys, ["pushout-check", "--p", "2", "--radius", "1", "--shared-radius", "2"]
        )
        assert code == 1

    def test_copies_must_be_positive(self, capsys):
        code, _, _ = _run(
            capsys, ["pushout-check", "--p", "2", "--radius", "1", "--copies", "0"]
        )
        assert code == 1


class TestCosimplicialCheck:
    def test_both_rows_certify(self, capsys):
        for q in ("0", "1"):
            dump = _run_json(
                capsys,
                ["cosimplicial-check", "--p", "2", "--radius", "1", "--q", q, "--j-max", "2"],
            )
            assert dump["certificates"]["alternation"] == "verified"
            coh = dump["certificates"]["cohomology"]
            assert coh[0] == dump["certificates"]["degree_zero"]
            assert all(h == 0 for h in coh[1:])

    def test_q_is_restricted(self, capsys):
        code, _, _ = _run(capsys, ["cosimplicial-check", "--p", "2", "--radius", "1", "--q", "2"])
        assert code == 1


class TestBchVerify:
    def test_builtin_pairs(self, capsys):
        dump = _run_json(capsys, ["bch-verify", "--p", "2", "--n-max", "4", "--size", "4"])
        assert dump["kappa"] == 2
        assert dump["certificates"]["valuation_bounds"] == "hold"
        assert len(dump["results"]) == 2
        for result in dump["results"]:
            for row in result["components"]:
                mv = row["min_valuation"]
                assert mv is None or Fraction(mv) >= Fraction(row["bound"])

    def test_custom_pairs_file(self, capsys, tmp_path):
        x = RationalMatrix([[0, 4, 0], [0, 0, 4], [0, 0, 0]])
        y = RationalMatrix([[0, 0, 8], [0, 0, 0], [0, 0, 0]])
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"pairs": [{"name": "t", "x": x.to_json(), "y": y.to_json()}]}))
        dump = _run_json(
            capsys, ["bch-verify", "--p", "2", "--n-max", "3", "--input", str(path)]
        )
        assert dump["results"][0]["name"] == "t"

    def test_rejects_non_powerful_pair(self, capsys, tmp_path):
        x = RationalMatrix([[0, 1], [0, 0]])
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"pairs": [{"x": x.to_json(), "y": x.to_json()}]}))
        code, _, err = _run(capsys, ["bch-verify", "--p", "2", "--input", str(path)])
        assert code == 1
        assert "valuation" in err


class TestGroupLaw:
    def test_default_lattice(self, capsys):
        dump = _run_json(capsys, ["group-law", "--p", "2", "--N", "3"])
        assert dump["certificates"] == {"valuations": "bounded", "associativity": "holds"}
        assert dump["report"]["associativity_ok"] is True

    def test_custom_abelian_lattice(self, capsys, tmp_path):
        path = tmp_path / "ab.json"
        path.write_text(json.dumps(LieAlgebra.abelian(2).to_json()))
        dump = _run_json(capsys, ["group-law", "--p", "3", "--N", "2", "--lie", str(path)])
        assert dump["report"]["valuation_ok"] is True

    def test_non_powerful_lattice_rejected(self, capsys, tmp_path):
        path = tmp_path / "heis.json"
        path.write_text(json.dumps(LieAlgebra.heisenberg().to_json()))
        code, _, _ = _run(capsys, ["group-law", "--p", "2", "--lie", str(path)])
        assert code == 1


class TestNorms:
    ARGS = [
        "norms", "--p", "2", "--seed", "9", "--pairs", "3",
        "--nu-count", "2", "--degree", "3", "--expansion-degree", "3",
    ]

    def test_seeded_run(self, capsys):
        dump = _run_json(capsys, self.ARGS)
        assert dump["certificates"]["pair_count"] == 3
        assert dump["certificates"]["expansion_count"] == 2
        assert all(row["within_bound"] for row in dump["expansions"])

    def test_runs_are_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(self.ARGS + ["--out", str(a)]) == 0
        assert main(self.ARGS + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_radius_must_be_below_one(self, capsys):
        code, _, _ = _run(capsys, ["norms", "--p", "2", "--radius", "1/3"])
        assert code == 1


class TestExtCrossed:
    def test_rank_one_flip_action(self, capsys):
        dump = _run_json(capsys, ["ext-crossed", "--rank", "1", "--group", "Z2"])
        by_label = {rep["module"]: rep for rep in dump["reports"]}
        assert by_label["trivial"]["crossed_ext_dims"] == [1, 0, 1, 0, 1]
        assert by_label["determinant"]["crossed_ext_dims"] == [0, 1, 0, 1, 0]
        assert by_label["nilpotent"]["crossed_ext_dims"] == [1, 0, 0, 0, 0]
        for rep in dump["reports"]:
            assert rep["ok"] is True
            assert rep["crossed_ext_dims"] == rep["invariant_dims"]

    def test_module_filter(self, capsys):
        dump = _run_json(
            capsys,
            ["ext-crossed", "--rank", "1", "--group", "Z4", "--n-max", "2", "--modules", "trivial"],
        )
        assert [rep["module"] for rep in dump["reports"]] == ["trivial"]
        assert dump["reports"][0]["crossed_ext_dims"] == [1, 0, 1]

    def test_unconfigured_group_rejected(self, capsys):
        code, _, err = _run(capsys, ["ext-crossed", "--rank", "2", "--group", "Q8"])
        assert code == 1
        assert "no configured action" in err

    def test_unknown_module_label(self, capsys):
        code, _, _ = _run(
            capsys, ["ext-crossed", "--rank", "1", "--group", "Z2", "--modules", "bogus"]
        )
        assert code == 1


def _make_dumps(tmp_path, capsys):
    jobs = {
        "radius": ["radius", "--p", "3", "--r", "-1/4", "--e", "1", "--q", "3"],
        "tree": ["tree-ss", "--p", "2", "--radius", "1"],
        "demo": ["wall-demo", "--group", "Z2", "--degrees", "2"],
        "norms": ["norms", "--p", "2", "--seed", "4", "--pairs", "2", "--nu-count", "1"],
    }
    paths = {}
    for name, argv in jobs.items():
        out = tmp_path / f"{name}.json"
        assert main(argv + ["--out", str(out)]) == 0
        paths[name] = out
    capsys.readouterr()
    return paths


def _wrong_json_types(value):
    """The same value as other JSON types; empty where no such swap is defined.

    A list also yields each of its items swapped in place, so the labels in
    a list of module names get their own wrong types.
    """
    if isinstance(value, bool):
        return [int(value)]
    if isinstance(value, int):
        return [float(value)]
    if isinstance(value, str):
        try:
            return [float(Fraction(value))]
        except (ValueError, ZeroDivisionError):
            return [1, [value], {"name": value}]
    if isinstance(value, list):
        swapped = [
            value[:i] + [wrong] + value[i + 1 :]
            for i, item in enumerate(value)
            for wrong in _wrong_json_types(item)
        ]
        return [json.dumps(value)] + swapped
    if isinstance(value, dict):
        return [json.dumps(value)]
    return []


def _bumped(value):
    """A different value of the same JSON type."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    return str(value) + "-tampered"


def _leaves(node, path=()):
    """``(path, value)`` for every non-container value below ``node``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [(path, node)]
    return [leaf for key, child in items for leaf in _leaves(child, path + (key,))]


def _replaced(data, path, value):
    """A deep copy of ``data`` with the value at ``path`` replaced."""
    out = json.loads(json.dumps(data))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


class TestVerifyReplay:
    def test_clean_dumps_pass(self, capsys, tmp_path):
        paths = _make_dumps(tmp_path, capsys)
        code, out, _ = _run(capsys, ["verify-replay"] + [str(p) for p in paths.values()])
        assert code == 0
        assert out.count("ok ") == len(paths)

    def test_direct_call_matches_subcommand(self, capsys, tmp_path):
        paths = _make_dumps(tmp_path, capsys)
        assert verify_replay([str(paths["radius"])]) == 0
        capsys.readouterr()

    def test_tampered_certificate_fails(self, capsys, tmp_path):
        paths = _make_dumps(tmp_path, capsys)
        data = json.loads(paths["tree"].read_text())
        data["certificates"]["homology"] = [1, 1]
        paths["tree"].write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")
        code, out, _ = _run(capsys, ["verify-replay", str(paths["tree"])])
        assert code == 2
        assert "FAIL" in out

    def test_tampered_matrix_entry_fails(self, capsys, tmp_path):
        paths = _make_dumps(tmp_path, capsys)
        text = paths["demo"].read_text()
        data = json.loads(text)
        # flip one structural matrix entry inside the stored assembly
        entries = next(
            diff["entries"]
            for col in data["assembly"]["columns"]
            for diff in col["diffs"]
            if diff["entries"]
        )
        entries[0][2] = str(Fraction(entries[0][2]) + 1)
        paths["demo"].write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")
        code, out, _ = _run(capsys, ["verify-replay", str(paths["demo"])])
        assert code == 2
        assert "FAIL" in out

    def test_tampered_scalar_fails_via_recompute(self, capsys, tmp_path):
        paths = _make_dumps(tmp_path, capsys)
        data = json.loads(paths["radius"].read_text())
        data["m"] = data["m"] + 1
        paths["radius"].write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")
        code, out, _ = _run(capsys, ["verify-replay", str(paths["radius"])])
        assert code == 2

    def test_each_dump_is_rendered_once(self, capsys, tmp_path, monkeypatch):
        paths = _make_dumps(tmp_path, capsys)
        rendered = []
        original = cli._render

        def counted(dump):
            rendered.append(dump["kind"])
            return original(dump)

        monkeypatch.setattr(cli, "_render", counted)
        code, out, _ = _run(capsys, ["verify-replay", *map(str, paths.values())])
        assert code == 0 and out.count("ok ") == len(paths)
        # only the recomputed dump: the stored one is compared as the text read
        assert len(rendered) == len(paths)

    def test_reformatted_dump_is_judged_by_its_content(self, capsys, tmp_path):
        paths = _make_dumps(tmp_path, capsys)
        files = []
        for name in ("tree", "norms", "radius"):
            data = json.loads(paths[name].read_text())
            compact = tmp_path / f"{name}.compact.json"
            compact.write_text(json.dumps(data))
            files.append(str(compact))
        # radius dumps have no recheck, so only the comparison can catch this
        data["m"] += 1
        tampered = tmp_path / "radius.tampered.json"
        tampered.write_text(json.dumps(data, indent=1))
        code, out, _ = _run(capsys, ["verify-replay", *files, str(tampered)])
        assert code == 2
        verdicts = [line.split(" ", 1)[0] for line in out.splitlines()]
        assert verdicts == ["ok", "ok", "ok", "FAIL"]

    def test_missing_input_is_invalid(self, capsys, tmp_path):
        paths = _make_dumps(tmp_path, capsys)
        data = json.loads(paths["radius"].read_text())
        del data["inputs"]["p"]
        paths["radius"].write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")
        code, out, _ = _run(capsys, ["verify-replay", str(paths["radius"])])
        assert code == 1
        assert "INVALID" in out and "missing field 'p'" in out and "FAIL" not in out

    def test_fault_inside_the_recomputation_fails(self, capsys, tmp_path, monkeypatch):
        paths = _make_dumps(tmp_path, capsys)

        def broken(*args, **kwargs):
            raise KeyError("internal")

        # the radius job reads radius_params from wallforge.arith when it runs
        monkeypatch.setattr(arith, "radius_params", broken)
        code, out, _ = _run(capsys, ["verify-replay", str(paths["radius"])])
        assert code == 2
        assert "FAIL" in out and "INVALID" not in out and "missing field" not in out

    def test_input_rejected_by_the_job_is_invalid(self, capsys, tmp_path):
        paths = _make_dumps(tmp_path, capsys)
        data = json.loads(paths["radius"].read_text())
        data["inputs"]["p"] = 4
        paths["radius"].write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")
        code, out, _ = _run(capsys, ["verify-replay", str(paths["radius"])])
        assert code == 1
        assert "INVALID" in out and "prime" in out

    def test_empty_and_junk_dumps_are_invalid(self, capsys, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("{}")
        junk = tmp_path / "junk.json"
        junk.write_text("not json at all")
        missing = tmp_path / "missing.json"
        for path in (empty, junk, missing):
            code, out, _ = _run(capsys, ["verify-replay", str(path)])
            assert code == 1
            assert "INVALID" in out

    def test_mixed_batch_reports_every_file(self, capsys, tmp_path):
        paths = _make_dumps(tmp_path, capsys)
        bad = tmp_path / "bad.json"
        data = json.loads(paths["tree"].read_text())
        data["certificates"]["homology"] = [2, 0]
        bad.write_text(json.dumps(data))
        empty = tmp_path / "empty.json"
        empty.write_text("{}")
        code, out, _ = _run(
            capsys, ["verify-replay", str(paths["radius"]), str(bad), str(empty)]
        )
        assert code == 2
        verdicts = [line.split(" ", 1)[0] for line in out.splitlines()]
        assert verdicts == ["ok", "FAIL", "INVALID"]

    def test_wrongly_typed_inputs_never_replay_ok(self, capsys, tmp_path):
        escaped = []
        for name, argv in _argvs(tmp_path).items():
            dump = tmp_path / f"{name}.json"
            assert main(argv + ["--out", str(dump)]) == 0
            data = json.loads(dump.read_text())
            for key, value in data["inputs"].items():
                for wrong in _wrong_json_types(value):
                    tampered = tmp_path / f"{name}.{key}.json"
                    bad = {**data, "inputs": {**data["inputs"], key: wrong}}
                    tampered.write_text(json.dumps(bad))
                    code, _, _ = _run(capsys, ["verify-replay", str(tampered)])
                    if code not in (1, 2):
                        escaped.append((name, key, wrong, code))
        assert escaped == []

    def test_tampered_certificates_never_replay_ok(self, capsys, tmp_path):
        escaped = []
        for name, argv in _argvs(tmp_path).items():
            dump = tmp_path / f"{name}.json"
            assert main(argv + ["--out", str(dump)]) == 0
            data = json.loads(dump.read_text())
            variants = [
                (path, wrong)
                for path, leaf in _leaves(data["certificates"])
                for wrong in _wrong_json_types(leaf) + [_bumped(leaf)]
            ]
            files = []
            for i, (path, wrong) in enumerate(variants):
                tampered = tmp_path / f"{name}.cert{i}.json"
                tampered.write_text(json.dumps(_replaced(data, ("certificates",) + path, wrong)))
                files.append(str(tampered))
            code, out, _ = _run(capsys, ["verify-replay", *files])
            lines = out.splitlines()
            assert len(lines) == len(files)
            if code not in (1, 2):
                escaped.append((name, code))
            escaped += [(name, variants[i]) for i, line in enumerate(lines) if line.startswith("ok ")]
        assert escaped == []


class TestDeterminism:
    CASES = [
        ["radius", "--p", "3", "--r", "-1/4"],
        ["tree-ss", "--p", "2", "--radius", "2"],
        ["wall-demo", "--group", "Z3", "--degrees", "2"],
        ["ext-crossed", "--rank", "1", "--group", "Z2", "--n-max", "2", "--modules", "trivial"],
    ]

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        for i, argv in enumerate(self.CASES):
            a = tmp_path / f"{i}a.json"
            b = tmp_path / f"{i}b.json"
            assert main(argv + ["--out", str(a)]) == 0
            assert main(argv + ["--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes(), argv
        capsys.readouterr()

    def test_stdout_matches_file_output(self, capsys, tmp_path):
        argv = ["radius", "--p", "2", "--r", "-1/2"]
        code, out, _ = _run(capsys, argv)
        assert code == 0
        path = tmp_path / "dump.json"
        assert main(argv + ["--out", str(path)]) == 0
        capsys.readouterr()
        assert path.read_text() == out


def test_console_script_is_installed():
    exe = shutil.which("wallforge")
    assert exe, "console script not found on PATH"
    proc = subprocess.run(
        [exe, "radius", "--p", "3", "--r", "-1/4", "--e", "1", "--q", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["h"] == 1


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "wallforge.cli", "tree-ss", "--p", "2", "--radius", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["kind"] == "tree-ss"
