"""CLI subcommands, exit codes, and file determinism."""

import argparse
import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from cayleygap import bounds as bounds_module
from cayleygap import cli as cli_module
from cayleygap import groups as groups_module
from cayleygap.cli import EXIT_ERROR, EXIT_FAIL, EXIT_PASS, main
from cayleygap.config import resolve_subset
from cayleygap.errors import NoneFound
from cayleygap.representations import _AbelianCatalog

ROOT = Path(__file__).resolve().parents[1]


def write_config(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestSpectrumCommand:
    def test_paths_agree(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "s.cfg", "group = dihedral(6)\nset = symmetric_random(3)\nseed = 2\n")
        code = main(["spectrum", "--config", cfg])
        out = capsys.readouterr().out
        assert code == EXIT_PASS
        assert "zz-path-agreement" in out and "fail" not in out

    def test_json_agreement_row_carries_its_verdict(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "s.cfg", "group = cyclic(12)\nset = [0, 1, 5]\n")
        assert main(["spectrum", "--config", cfg, "--format", "json"]) == EXIT_PASS
        (row,) = [r for r in json.loads(capsys.readouterr().out) if r["instance"] == "zz-path-agreement"]
        assert row["path"] == row["verdict"] == "pass"

    @pytest.mark.parametrize("fault", ["star", "distance"])
    def test_either_distance_fails_the_run(self, tmp_path, capsys, monkeypatch, fault):
        # the agreement row gates the eigenvalue distance and the star distance alike
        if fault == "star":
            blocks = cli_module.laplace_spectrum_blocks

            def shifted(s):
                report = blocks(s)
                star = report.star_eigenvalues.copy()
                star[3] += 1e-6
                return report._replace(star_eigenvalues=star)

            monkeypatch.setattr(cli_module, "laplace_spectrum_blocks", shifted)
        else:
            monkeypatch.setattr(cli_module, "multiset_distance", lambda a, b: 1.0)
        cfg = write_config(tmp_path, "s.cfg", "group = dihedral(6)\nset = symmetric_random(3)\nseed = 2\n")
        assert main(["spectrum", "--config", cfg]) == EXIT_FAIL
        (row,) = [line for line in capsys.readouterr().out.splitlines() if line.startswith("zz-path-agreement")]
        assert row.endswith(",fail")

    def test_paths_agree_on_two_to_the_14(self, capsys):
        # the dense split reads the law on int64 columns of 16384 elements
        code = main(["spectrum", "--config", str(ROOT / "tests/configs/spectrum-abelian2pow14.cfg")])
        (row,) = [line for line in capsys.readouterr().out.splitlines() if line.startswith("zz-path-agreement")]
        assert code == EXIT_PASS and row.endswith(",pass")

    def test_writes_file(self, tmp_path):
        cfg = write_config(tmp_path, "s.cfg", "group = cyclic(12)\nset = [0, 1, 5]\n")
        out = tmp_path / "spec.csv"
        code = main(["spectrum", "--config", cfg, "--out", str(out)])
        assert code == EXIT_PASS
        lines = out.read_text().splitlines()
        assert lines[0].startswith("instance,index")
        assert len(lines) >= 25  # dense + blocks rows


class TestBoundsCommand:
    def test_battery_passes(self, tmp_path):
        cfg = write_config(tmp_path, "b.cfg", "group = cyclic(13)\nset = random(6)\nseed = 1\n")
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--config", cfg, "--out", str(out)]) == EXIT_PASS
        text = out.read_text()
        assert "gap_vs_diameter" in text and "gap_vs_basis" in text

    def test_diameter_rows_on_a_product_of_order_10000(self, capsys):
        # the diameter and the counts read the law on int64 columns of 10000 elements
        code = main(["bounds", "--config", str(ROOT / "tests/configs/bounds-abelian100x100.cfg")])
        header, *lines = capsys.readouterr().out.splitlines()
        rows = {line.split(",")[0]: dict(zip(header.split(","), line.split(","))) for line in lines}
        assert code == EXIT_PASS
        assert [(rows[k]["d"], rows[k]["verdict"]) for k in ("01-diameter", "02-basis")] == [("198", "pass")] * 2

    def test_no_finite_diameter_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, "b.cfg", "group = cyclic(10)\nset = [2]\n")
        assert main(["bounds", "--config", cfg]) == EXIT_ERROR

    def test_empty_set_with_d_is_an_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "b.cfg", "group = cyclic(13)\nset = []\nd = 2\n")
        assert main(["bounds", "--config", cfg]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    @staticmethod
    def _rows(tmp_path, capsys, body):
        cfg = write_config(tmp_path, "b.cfg", body)
        code = main(["bounds", "--config", cfg])
        lines = capsys.readouterr().out.splitlines()[1:]
        return code, {line.split(",")[0]: line.split(",")[-1] for line in lines}

    def test_uniformity_row_needs_counts_of_one_not_g(self, tmp_path, capsys):
        # row 06's hypothesis is (B*B^-1)^(d) >= 1; g = 12 leaves out the norm row only
        body = "group = cyclic(13)\nset = random(4)\nd = 2\ng = 12\n"
        code, rows = self._rows(tmp_path, capsys, body)
        assert code == EXIT_PASS
        assert "05-fourier-norm" not in rows and rows["06-uniformity"] == "pass"

    def test_one_point_group_keeps_only_the_norm_rows(self, tmp_path, capsys):
        # rows 01-04 bound a gap, and a one-point space has no nontrivial eigenvalue
        code, rows = self._rows(tmp_path, capsys, "group = cyclic(1)\nset = full\n")
        assert code == EXIT_PASS
        assert rows == {"05-fourier-norm": "pass", "06-uniformity": "pass"}

    ALL_ROWS = {
        "01-diameter", "02-basis", "03-exceptional", "04-exceptional-star", "05-fourier-norm",
        "06-uniformity", "07-progression-basis", "08-bohr-basis", "09-bohr-basis-certified",
    }

    # rows that each verifier's own hypothesis leaves out
    @pytest.mark.parametrize(
        "body, left_out",
        [
            ("group = cyclic(12)\nset = random(5)\nd = 2\n", {"07-progression-basis", "09-bohr-basis-certified"}),
            (
                "group = cyclic(13)\nset = random(5)\nd = 1\n",
                {"05-fourier-norm", "06-uniformity", "07-progression-basis", "08-bohr-basis", "09-bohr-basis-certified"},
            ),
            ("group = cyclic(211)\nset = random(20)\nd = 2\n", {"09-bohr-basis-certified"}),
            (
                'group = permutation_closure(["(1 2 3 4 5)", "(1 2)"])\nset = symmetric_random(14)\n',
                {"05-fourier-norm", "07-progression-basis", "09-bohr-basis-certified"},
            ),
            (
                "group = dihedral(6)\nset = random(3)\nd = 2\n",
                {"05-fourier-norm", "06-uniformity", "07-progression-basis", "09-bohr-basis-certified"},
            ),
        ],
    )
    def test_rows_left_out(self, tmp_path, capsys, body, left_out):
        _, rows = self._rows(tmp_path, capsys, body)
        assert set(rows) == self.ALL_ROWS - left_out

    def test_each_count_is_convolved_once(self, tmp_path, capsys, monkeypatch):
        # one B^(2), one (B*B^-1)^(2) and one B^(4) for row 06: 1 + 3 + 3 convolutions
        # on the gather, which a gate refusing every FFT count forces here
        calls = []
        convolve = groups_module.convolve
        monkeypatch.setattr(groups_module, "convolve", lambda f, g: calls.append(1) or convolve(f, g))
        monkeypatch.setattr(bounds_module, "_count_error", lambda *args: math.inf)
        bounds_module._count.cache_clear()
        code, rows = self._rows(tmp_path, capsys, "group = cyclic(13)\nset = random(4)\nd = 2\n")
        assert code == EXIT_PASS and set(rows) == self.ALL_ROWS
        assert len(calls) == 7

    def test_each_count_takes_one_inverse_fft(self, tmp_path, capsys, monkeypatch):
        # the same three counts on Z/13 come from the catalog: one inverse each, no convolution
        inverses, convolutions = [], []
        inverse = _AbelianCatalog._inverse
        convolve = groups_module.convolve
        monkeypatch.setattr(_AbelianCatalog, "_inverse", lambda self, c: inverses.append(1) or inverse(self, c))
        monkeypatch.setattr(groups_module, "convolve", lambda f, g: convolutions.append(1) or convolve(f, g))
        bounds_module._count.cache_clear()
        code, rows = self._rows(tmp_path, capsys, "group = cyclic(13)\nset = random(4)\nd = 2\n")
        assert code == EXIT_PASS and set(rows) == self.ALL_ROWS
        assert (len(inverses), len(convolutions)) == (3, 0)


class TestBohrCommand:
    def test_battery(self, tmp_path):
        cfg = write_config(tmp_path, "bo.cfg", "group = cyclic(36)\ndelta = 0.4\nrep = 1\n")
        out = tmp_path / "bohr.csv"
        assert main(["bohr", "--config", cfg, "--out", str(out)]) == EXIT_PASS
        text = out.read_text()
        for token in ("symmetry", "sum-rule", "half-size", "doubling", "covering", "regular"):
            assert token in text

    def test_one_point_group_prints_no_records(self, tmp_path, capsys):
        # cyclic(1) has no nontrivial representation, so every Bohr row is left out
        cfg = write_config(tmp_path, "bo.cfg", "group = cyclic(1)\n")
        assert main(["bohr", "--config", cfg]) == EXIT_PASS
        assert capsys.readouterr() == ("(no records)\n", "")

    def test_uncertified_eps_rows_are_left_out(self, tmp_path, capsys):
        # cyclic(12) has a normal subgroup of index 2 <= 1/eps = 1/0.3: no eps row is certified
        cfg = ROOT / "tests" / "configs" / "bohr-cyclic12-eps.cfg"
        body = cfg.read_text().replace("eps = 0.3\n", "")
        plain, with_eps = tmp_path / "plain.csv", tmp_path / "eps.csv"
        assert main(["bohr", "--config", write_config(tmp_path, "a.cfg", body), "--out", str(plain)]) == EXIT_PASS
        assert main(["bohr", "--config", str(cfg), "--out", str(with_eps)]) == EXIT_PASS
        assert capsys.readouterr().err == ""
        assert with_eps.read_bytes() == plain.read_bytes()
        assert len(plain.read_text().splitlines()) == 1 + 67

    @pytest.mark.parametrize("eps", ["0", "0.7", "-0.2"])
    def test_eps_outside_its_range_is_error(self, tmp_path, capsys, eps):
        # bad input, not an uncertified hypothesis: the run ends with exit 2 and no report
        cfg = write_config(tmp_path, "bo.cfg", f"group = cyclic(13)\ndelta = 0.3\neps = {eps}\n")
        out = tmp_path / "bohr.csv"
        assert main(["bohr", "--config", cfg, "--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: eps must lie in (0, 1/2], got {float(eps)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("group", ["cyclic(1)", "cyclic(13)"])
    def test_eps_outside_its_range_is_error_on_every_group(self, tmp_path, capsys, group):
        # the trivial group has no representation to make an eps row of, and still checks eps
        cfg = write_config(tmp_path, "bo.cfg", f"group = {group}\ndelta = 0.3\neps = 0.9\n")
        assert main(["bohr", "--config", cfg]) == EXIT_ERROR
        assert capsys.readouterr() == ("", "error: eps must lie in (0, 1/2], got 0.9\n")

    def test_eps_in_range_on_the_trivial_group_has_no_rows(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bo.cfg", "group = cyclic(1)\ndelta = 0.3\neps = 0.5\n")
        assert main(["bohr", "--config", cfg]) == EXIT_PASS
        assert capsys.readouterr() == ("(no records)\n", "")

    def test_no_regular_radius_fails_that_row_alone(self, tmp_path, monkeypatch):
        found = cli_module.bohr_mod.find_regular

        def find_regular(rep, delta):
            if rep.label == "chi5":
                raise NoneFound(f"no regular radius in [{delta}, {2 * delta}] for {rep.label}")
            return found(rep, delta)

        monkeypatch.setattr(cli_module.bohr_mod, "find_regular", find_regular)
        cfg = write_config(tmp_path, "bo.cfg", "group = cyclic(12)\ndelta = 0.3\n")
        out = tmp_path / "bohr.csv"
        assert main(["bohr", "--config", cfg, "--out", str(out)]) == EXIT_FAIL
        rows = {row[0]: row for row in list(csv.reader(out.read_text().splitlines()))[1:]}
        assert len(rows) == 67
        assert rows["chi5-06-regular"][4:] == ["inf", "0.6", "fail"]
        assert [key for key, row in rows.items() if row[-1] != "pass"] == ["chi5-06-regular"]
        assert rows["chi1-06-regular"][4:] == ["0.3", "0.6", "pass"]

    def test_eps_rows_on_an_abelian_group_above_the_enumeration_cap(self, tmp_path):
        cfg = write_config(tmp_path, "bo.cfg", "group = cyclic(211)\ndelta = 0.3\neps = 0.2\n")
        out = tmp_path / "bohr.csv"
        assert main(["bohr", "--config", cfg, "--out", str(out)]) == EXIT_PASS
        rows = [line.split(",") for line in out.read_text().splitlines() if "-07-eps-size," in line]
        assert len(rows) == 210 and all(row[-1] == "pass" for row in rows)

    def test_eps_rows_left_out_above_the_normal_subgroup_cap(self, tmp_path):
        # dihedral(101) has order 202, above the nonabelian enumeration cap of 200
        body = "group = dihedral(101)\ndelta = 0.3\n"
        plain, with_eps = tmp_path / "plain.csv", tmp_path / "eps.csv"
        assert main(["bohr", "--config", write_config(tmp_path, "a.cfg", body), "--out", str(plain)]) == EXIT_PASS
        cfg = write_config(tmp_path, "b.cfg", body + "eps = 0.2\n")
        assert main(["bohr", "--config", cfg, "--out", str(with_eps)]) == EXIT_PASS
        assert with_eps.read_bytes() == plain.read_bytes()
        assert len(plain.read_text().splitlines()) == 1 + 307

    def test_stacks_over_the_dense_budget_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bo.cfg", "group = cyclic(100003)\ndelta = 0.3\n")
        assert main(["bohr", "--config", cfg]) == EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "dense budget" in err[0]

    def test_not_cataloged_is_error(self, tmp_path):
        cfg = write_config(
            tmp_path, "bo.cfg", 'group = permutation_closure(["(1 2 3 4 5)", "(1 2 3)"])\ndelta = 0.4\n'
        )
        assert main(["bohr", "--config", cfg]) == EXIT_ERROR


class TestScanCommand:
    def test_both_directions(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "sc.cfg",
            "group = cyclic(61)\nset = random(20)\nseed = 3\nd = 2\ndelta = 0.3\ndirection = both\n",
        )
        out = tmp_path / "scan.csv"
        assert main(["scan", "--config", cfg, "--out", str(out)]) == EXIT_PASS
        text = out.read_text()
        assert "gap_vs_progression_mass" in text and "progression_mass_vs_gap" in text

    def test_exhaustive_flag(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "sc.cfg",
            "group = cyclic(401)\nset = random(60)\nseed = 3\nd = 2\ndelta = 0.2\ndirection = forward\n",
        )
        out = tmp_path / "scan.csv"
        assert main(["scan", "--config", cfg, "--out", str(out)]) == EXIT_PASS
        assert "sampled" in out.read_text()
        assert main(["scan", "--config", cfg, "--out", str(out), "--exhaustive"]) == EXIT_PASS
        assert "exhaustive" in out.read_text()

    @pytest.mark.parametrize(
        "argv",
        [["spectrum", "--config", "b.cfg"], ["bounds", "--config", "b.cfg"],
         ["bohr", "--config", "b.cfg"], ["experiment", "sidon"]],
    )
    def test_exhaustive_flag_is_scan_only(self, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--exhaustive"])
        assert exc.value.code == 2

    def test_composite_modulus_is_error(self, tmp_path):
        cfg = write_config(tmp_path, "sc.cfg", "group = cyclic(12)\nset = random(4)\n")
        assert main(["scan", "--config", cfg]) == EXIT_ERROR


class TestExperimentCommand:
    @pytest.mark.parametrize(
        "name,body",
        [
            ("triple-free", "group = cyclic(13)\nseed = 0\n"),
            ("sidon", "N = 61\nk = 2\nseed = 0\n"),
            ("additive-basis", "N = 101\nseed = 0\n"),
            ("interval-union", "N = 101\nc1 = 2\nC = 3\nseed = 0\n"),
        ],
    )
    def test_runs_and_deterministic(self, tmp_path, name, body):
        cfg = write_config(tmp_path, "e.cfg", body)
        out1 = tmp_path / "run1.csv"
        out2 = tmp_path / "run2.csv"
        assert main(["experiment", name, "--config", cfg, "--out", str(out1)]) == EXIT_PASS
        assert main(["experiment", name, "--config", cfg, "--out", str(out2)]) == EXIT_PASS
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize(
        "name,body,message",
        [
            # LambdaResampleFail: no size-1 set keeps the double-sum misses below N/4
            ("interval-union", "N = 1009\nc1 = 0.01\nC = 1\n", "in 100 tries"),
            # NotABasis: on N = 2 the uncovered set is above N/4
            ("additive-basis", "N = 2\n", "above N/4"),
        ],
    )
    def test_typed_failure_exits_2(self, tmp_path, capsys, name, body, message):
        cfg = write_config(tmp_path, "e.cfg", body)
        assert main(["experiment", name, "--config", cfg, "--out", str(tmp_path / "e.csv")]) == EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]

    def test_unknown_experiment(self, tmp_path):
        assert main(["experiment", "nope"]) == EXIT_ERROR

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, "e.cfg", "N = 61\nk = 2\nseed = 0\n")
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        main(["experiment", "sidon", "--config", cfg, "--out", str(out1)])
        main(["experiment", "sidon", "--config", cfg, "--seed", "5", "--out", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()

    def test_json_format(self, tmp_path):
        import json

        cfg = write_config(tmp_path, "e.cfg", "N = 61\nk = 2\nseed = 0\n")
        out = tmp_path / "r.json"
        assert main(["experiment", "sidon", "--config", cfg, "--format", "json", "--out", str(out)]) == EXIT_PASS
        payload = json.loads(out.read_text())
        assert isinstance(payload, list) and payload


class TestReportDeterminism:
    @pytest.mark.parametrize(
        "command,body",
        [
            ("spectrum", "group = dihedral(6)\nset = symmetric_random(3)\nseed = 2\n"),
            ("bounds", "group = cyclic(13)\nset = random(6)\nseed = 1\n"),
            ("bohr", "group = cyclic(36)\ndelta = 0.4\nrep = 1\n"),
            ("scan", "group = cyclic(61)\nset = random(20)\nseed = 3\nd = 2\ndelta = 0.3\n"),
        ],
    )
    def test_byte_identical_reruns(self, tmp_path, command, body):
        cfg = write_config(tmp_path, "cfg", body)
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert main([command, "--config", cfg, "--out", str(out1)]) == EXIT_PASS
        assert main([command, "--config", cfg, "--out", str(out2)]) == EXIT_PASS
        assert out1.read_bytes() == out2.read_bytes()


    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--config", "{cfg}"],
            ["bohr", "--config", "{cfg}"],
            ["experiment", "sidon", "--config", "{cfg}"],
        ],
    )
    def test_stdout_matches_file(self, tmp_path, capsys, argv, fmt):
        body = "group = cyclic(13)\nset = random(6)\nseed = 1\ndelta = 0.4\nrep = 1\nN = 61\nk = 2\n"
        cfg = write_config(tmp_path, "cfg", body)
        argv = [a.format(cfg=cfg) for a in argv] + ["--format", fmt]
        out = tmp_path / f"report.{fmt}"
        assert main(argv + ["--out", str(out)]) == EXIT_PASS
        capsys.readouterr()
        assert main(argv) == EXIT_PASS
        assert capsys.readouterr().out == out.read_text(encoding="utf-8")


class TestConfigErrors:
    def test_missing_config_file(self):
        assert main(["scan", "--config", "/nonexistent/x.cfg"]) == EXIT_ERROR

    def test_bad_group_descriptor(self, tmp_path):
        cfg = write_config(tmp_path, "x.cfg", "group = tetrahedral(9)\n")
        assert main(["spectrum", "--config", cfg]) == EXIT_ERROR

    def test_bad_set_spec(self, tmp_path):
        cfg = write_config(tmp_path, "x.cfg", "group = cyclic(12)\nset = banana\n")
        assert main(["spectrum", "--config", cfg]) == EXIT_ERROR

    @pytest.mark.parametrize("command", ["spectrum", "bounds"])
    @pytest.mark.parametrize(
        "group",
        ["cyclic(4294967296)", "abelian_product([65536, 65536])", "abelian_product([65536, 65536, 65536, 65536])"],
    )
    def test_group_over_the_dense_budget_exits_2(self, tmp_path, capsys, command, group):
        """Refused when it is built: no wrapped order, and no 32 GiB index vector."""
        cfg = write_config(tmp_path, "x.cfg", f"group = {group}\nset = [1]\n")
        assert main([command, "--config", cfg]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: the int64 indices of a group of order") and "dense budget" in err

    @pytest.mark.parametrize(
        "command, body",
        [
            ("spectrum", 'group = cyclic("a")\n'),
            ("spectrum", "group = cyclic(None)\n"),
            ("spectrum", "group = cyclic(2.5)\n"),
            ("spectrum", "group = dihedral(3.7)\n"),
            ("spectrum", "group = abelian_product([2.5, 3])\n"),
            ("spectrum", "group = multiplication_table([[0, 1.5], [1, 0]])\n"),
            ("spectrum", "group = cyclic(12)\nset = [0, 1.5]\n"),
            ("spectrum", 'group = permutation_closure(["(1 1 2)"])\n'),
            ("spectrum", 'group = permutation_closure(["(1 2)(2 3)"])\n'),
            ("bohr", "group = cyclic(13)\nrep = 99\n"),
            ("bohr", "group = cyclic(13)\nrep = -1\n"),
            ("bohr", "group = cyclic(13)\nrep = 1.7\n"),
            ("bohr", "group = cyclic(13)\nrep = 0\n"),
            ("scan", "group = cyclic(13)\ndirection = sideways\n"),
            ("scan", "group = cyclic(13)\nd = 2.5\n"),
            ("bounds", "group = cyclic(13)\nset = random(4)\nd = 2.5\n"),
            ("bounds", "group = cyclic(13)\nset = random(4)\nd = -1\n"),
            ("bounds", "group = cyclic(13)\nset = random(4)\nd = 0\n"),
            ("bounds", "group = cyclic(13)\nset = random(4)\nk = 0\n"),
            ("bounds", "group = cyclic(13)\nset = random(4)\nk = 1.5\n"),
            ("bounds", "group = cyclic(13)\nset = random(4)\ng = x\n"),
            ("bounds", "group = cyclic(13)\nset = random(4)\ng = -1\n"),
            ("bounds", "group = cyclic(13)\nset = random(4)\ng = 0\n"),
            # a bool is no integer: each would otherwise run, as Z/1, Z/1 x Z/3, a transposition, d = 1, {1, 2}
            ("spectrum", "group = cyclic(True)\n"),
            ("spectrum", "group = abelian_product([True, 3])\n"),
            ("spectrum", "group = permutation_closure([[True, False, 2]])\n"),
            ("bounds", "group = cyclic(13)\nset = random(4)\nd = True\n"),
            ("spectrum", "group = cyclic(13)\nset = [True, 2]\n"),
        ],
    )
    def test_malformed_input_exits_2_without_traceback(self, tmp_path, capsys, command, body):
        cfg = write_config(tmp_path, "x.cfg", body)
        assert main([command, "--config", cfg]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(("error: ", "config error: ")) and "Traceback" not in err


    @pytest.mark.parametrize(
        "name, body",
        [
            ("sidon", "N = 61.7\n"),
            ("sidon", "k = 2.9\n"),
            ("sidon", "N = 0\n"),
            ("sidon", "seed = 1.5\n"),
            ("sidon", "seed = -1\n"),
            ("additive-basis", "N = 211.5\n"),
            ("interval-union", "N = x\n"),
        ],
    )
    def test_experiment_sizes_and_seed_are_integers(self, tmp_path, capsys, name, body):
        cfg = write_config(tmp_path, "x.cfg", body)
        assert main(["experiment", name, "--config", cfg]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("config error: ")


    @pytest.mark.parametrize(
        "argv, body",
        [
            # |B|^(2d) and |B|^d overflow a float inside the checks
            (["bounds"], "group = cyclic(13)\nset = random(4)\nd = 600\n"),
            (["scan"], "group = cyclic(13)\nset = random(4)\nd = 100000\n"),
            # 1e400 parses as inf, which no real-valued key accepts
            (["experiment", "interval-union"], "N = 1009\nc1 = 1e400\n"),
            (["bohr"], "group = cyclic(13)\ndelta = 1e400\n"),
        ],
    )
    def test_config_sized_numbers_exit_2_without_traceback(self, tmp_path, capsys, argv, body):
        cfg = write_config(tmp_path, "x.cfg", body)
        assert main([*argv, "--config", cfg]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, body, key",
        [
            (["bohr"], "group = cyclic(13)\ndelta = True\n", "delta"),
            (["bohr"], "group = cyclic(13)\neps = -1e400\n", "eps"),
            (["scan"], "group = cyclic(13)\nset = random(4)\ndelta = nan\n", "delta"),
            (["experiment", "sidon"], "c_k = True\n", "c_k"),
            (["experiment", "interval-union"], "C = 1e400\n", "C"),
            # an infinite g would give rows 03 and 04 a nan bound and a fail
            (["bounds"], "group = cyclic(13)\nset = random(4)\ng = 1e400\n", "g"),
            (["bounds"], "group = cyclic(13)\nset = random(4)\ng = True\n", "g"),
        ],
    )
    def test_real_keys_are_finite_numbers(self, tmp_path, capsys, argv, body, key):
        cfg = write_config(tmp_path, "x.cfg", body)
        assert main([*argv, "--config", cfg]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith(f"config error: {key} must be a finite real number")

    @pytest.mark.parametrize(
        "spec", ["random(50)", "random(-3)", "symmetric_random(0)", "symmetric_random(14)", "interval(3, 40)", "interval(3, -1)"]
    )
    def test_set_sizes_outside_the_group_are_refused(self, tmp_path, capsys, spec):
        cfg = write_config(tmp_path, "x.cfg", f"group = cyclic(13)\nset = {spec}\n")
        assert main(["spectrum", "--config", cfg]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith(f"config error: set {spec!r}: size")

    @pytest.mark.parametrize(
        "spec, size", [("random(13)", 13), ("random(0)", 0), ("symmetric_random(13)", 13), ("interval(5, 13)", 13), ("interval(5, 0)", 0)]
    )
    def test_set_sizes_at_the_ends_are_drawn(self, spec, size):
        group = groups_module.make_group("cyclic(13)")
        assert resolve_subset(group, spec, 0).size == size

    @pytest.mark.parametrize("command", ["spectrum", "bounds", "scan"])
    @pytest.mark.parametrize("seed", ["1.5", "-1", "x"])
    def test_config_seed_is_a_nonnegative_integer(self, tmp_path, capsys, command, seed):
        cfg = write_config(tmp_path, "x.cfg", f"group = cyclic(13)\nset = random(4)\nseed = {seed}\n")
        assert main([command, "--config", cfg]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error: seed must be") and "Traceback" not in err

    @pytest.mark.parametrize(
        "body, key, first, again",
        [
            ("group = cyclic(13)\nd = 2\nset = random(4)\nd = 3\n", "d", 2, 4),
            ("group = cyclic(13)\nset = random(4)\n# set = full\n\nset = [1, 2]\n", "set", 2, 5),
            ("group = cyclic(13)\nseed=1\n seed = 1\n", "seed", 2, 3),
        ],
    )
    def test_repeated_key_is_a_config_error(self, tmp_path, capsys, body, key, first, again):
        cfg = write_config(tmp_path, "x.cfg", body)
        assert main(["bounds", "--config", cfg]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == f"config error: config line {again}: key {key!r} repeats line {first}\n"

    @pytest.mark.parametrize("command", [["spectrum"], ["bohr"], ["experiment", "sidon"]])
    @pytest.mark.parametrize("seed", ["-3", "1.5", "x"])
    def test_seed_flag_is_a_nonnegative_integer(self, tmp_path, capsys, command, seed):
        cfg = write_config(tmp_path, "x.cfg", "group = cyclic(13)\nset = random(4)\n")
        with pytest.raises(SystemExit) as exc:
            main([*command, "--config", cfg, "--seed", seed])
        assert exc.value.code == EXIT_ERROR
        assert f"argument --seed: must be an integer >= 0, got {seed!r}" in capsys.readouterr().err


class TestImports:
    """A CLI run never imports ``numpy.ma``: numpy's unique pulls it in on its
    first call, so one stray call costs every run that import.  Nor does the
    CLI import load ``dataclasses`` or ``json``: the records are NamedTuples
    and only JSON reports import ``json``.  No run imports ``numpy.random``."""

    PROBE = (
        "import contextlib, io, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import numpy\n"
        "eager = 'numpy.ma' in sys.modules\n"
        "from cayleygap.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[2:])\n"
        "print(eager, code, 'numpy.ma' in sys.modules)\n"
    )

    @pytest.mark.parametrize(
        "command, stem",
        [
            ("bohr", "bohr-cyclic199"),
            ("bounds", "bounds-s5"),
            ("spectrum", "spectrum-cyclic1200"),  # both take the coupled inversion split
            ("spectrum", "spectrum-abelian12x15"),
            ("scan", "scan-cyclic293"),
            ("experiment sidon", "experiment-sidon"),
        ],
    )
    def test_cli_run_never_imports_numpy_ma(self, command, stem):
        root = Path(__file__).resolve().parents[1]
        config = root / "perfbench" / "configs" / f"{stem}.cfg"
        argv = [str(root / "src"), *command.split(), "--config", str(config), "--seed", "0"]
        result = subprocess.run(
            [sys.executable, "-I", "-c", self.PROBE, *argv], capture_output=True, text=True, check=True
        )
        eager, code, imported = result.stdout.split()
        if eager == "True":
            pytest.skip("this numpy imports numpy.ma with numpy itself")
        assert (code, imported) == (str(EXIT_PASS), "False")


    GUARD = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import numpy\n"
        "loaded = set(sys.modules)\n"
        "import cayleygap.cli\n"
        "print(sorted({'dataclasses', 'json'} & (set(sys.modules) - loaded)))\n"
    )

    RANDOM_PROBE = (
        "import contextlib, io, os, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import numpy\n"
        "eager = 'numpy.random' in sys.modules\n"
        "from cayleygap.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main([*sys.argv[2:], '--out', os.devnull])\n"
        "print(eager, code, 'numpy.random' in sys.modules)\n"
    )

    @pytest.mark.parametrize(
        "config",
        [
            *sorted(f"perfbench/configs/{p.name}" for p in (ROOT / "perfbench" / "configs").glob("*.cfg")),
            "tests/configs/scan-cyclic10007.cfg",  # the sampled scan's 2 x 100 000 draws
            "tests/configs/spectrum-dihedral500-classes.cfg",  # an explicit index list draws nothing
        ],
    )
    def test_cli_run_never_imports_numpy_random(self, config):
        """Sets, orders and scan draws come from ``SeededStream``, so no run
        loads ``numpy.random`` (and the ``secrets``/OpenSSL imports behind it)."""
        kind, _, name = Path(config).stem.partition("-")
        command = ["experiment", name] if kind == "experiment" else [kind]
        result = subprocess.run(
            [sys.executable, "-I", "-c", self.RANDOM_PROBE, str(ROOT / "src"), *command, "--config", str(ROOT / config)],
            capture_output=True, text=True, check=True,
        )
        eager, code, imported = result.stdout.split()
        if eager == "True":
            pytest.skip("this numpy imports numpy.random with numpy itself")
        assert (code, imported) == (str(EXIT_PASS), "False")

    def test_cli_import_loads_neither_dataclasses_nor_json(self):
        """Against what ``import numpy`` alone loads, so a numpy that imports
        either module itself does not fail the guard."""
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-I", "-c", self.GUARD, str(src)], capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "[]"


class TestCollector:
    """Only the CLI entry module moves the import graph to the permanent
    generation with ``gc.freeze``; ``import cayleygap`` freezes nothing and
    leaves the collector on or off as the caller had it."""

    PROBE = (
        "import gc, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "module, state = sys.argv[2:]\n"
        "if state == 'off':\n"
        "    gc.disable()\n"
        "__import__(module)\n"
        "print(gc.isenabled(), gc.get_freeze_count() > 0)\n"
    )

    @pytest.mark.parametrize(
        "module, state, expected",
        [
            ("cayleygap.cli", "on", "True True"),
            ("cayleygap", "on", "True False"),
            ("cayleygap", "off", "False False"),
        ],
    )
    def test_import_leaves_the_collector_as_found(self, module, state, expected):
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-I", "-c", self.PROBE, str(src), module, state],
            capture_output=True, text=True, check=True,
        )
        assert result.stdout.strip() == expected


def _benchmark_argv(config: Path) -> list[str]:
    """The argv the benchmark runs on ``config``, whose stem is <command>-<name>."""
    kind, _, name = config.stem.partition("-")
    command = ["experiment", name] if kind == "experiment" else [kind]
    return [*command, "--config", f"perfbench/configs/{config.name}", "--seed", "0", "--out", "report.csv"]


class TestParser:
    """``main`` builds only the subparser it runs; its parse, help and usage
    errors are those of the parser with all five."""

    NAMES = [name for name, _ in cli_module.COMMANDS]
    CHOICES = "{spectrum,bounds,bohr,scan,experiment}"
    BOUNDS = "perfbench/configs/bounds-s5.cfg"  # parsing opens no file
    ARGVS = [
        *map(_benchmark_argv, sorted((ROOT / "perfbench" / "configs").glob("*.cfg"))),
        *([name, "--help"] for name in NAMES),
        ["bounds"],
        ["experiment"],
        ["bounds", "--config", BOUNDS, "--seed", "-1"],
        ["bounds", "--config", BOUNDS, "--format", "xml"],
        ["bounds", "--config", BOUNDS, "extra"],  # the top-level parser reports it, with its own usage
        ["scan", "--config", BOUNDS, "--exhaustive", "--format", "json"],
        ["spectrum", "--config", BOUNDS, "--exhaustive"],
    ]

    @staticmethod
    def _parse(parser, argv, capsys):
        try:
            args, code = parser.parse_args(argv), None
        except SystemExit as exc:
            args, code = None, exc.code
        return (args, code, *capsys.readouterr())

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_one_subparser_parses_as_all_five(self, argv, capsys):
        one = self._parse(cli_module.build_parser(argv[0]), argv, capsys)
        assert one == self._parse(cli_module.build_parser(), argv, capsys)

    @pytest.mark.parametrize("argv", [[], ["-h"], ["bogus"], ["--seed", "0", "bounds"]])
    def test_no_subcommand_lists_all_five(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == (0 if argv == ["-h"] else EXIT_ERROR)
        assert f"usage: cayleygap [-h] {self.CHOICES} ..." in out + err

    def test_a_run_adds_only_its_subparser(self, tmp_path, monkeypatch, capsys):
        added = []
        add_parser = argparse._SubParsersAction.add_parser

        def counted(action, name, **kwargs):
            added.append(name)
            return add_parser(action, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
        cfg = write_config(tmp_path, "x.cfg", "group = cyclic(13)\nset = [1, 12]\n")
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "report.csv")]) == EXIT_PASS
        assert added == ["bounds"]
        with pytest.raises(SystemExit):
            main(["--help"])
        assert added == ["bounds", *self.NAMES]
