"""CLI behaviour: formats, exit codes, determinism, golden output."""

import json
import math
import os
import sys
from pathlib import Path

import pytest

from sdirac.cli import dumps_canonical, main, parse_k_values, worker_count
from sdirac.operators import charpoly_exact

DATA = Path(__file__).parent / "data"


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out.read_bytes()


class TestParseK:
    def test_single(self):
        assert parse_k_values("5") == [5]

    def test_list(self):
        assert parse_k_values("1,3,7") == [1, 3, 7]

    def test_range_skips_even(self):
        assert parse_k_values("1..6") == [1, 3, 5]
        assert parse_k_values("2..9") == [3, 5, 7, 9]

    def test_even_in_list_is_error(self):
        with pytest.raises(ValueError):
            parse_k_values("1,4,7")

    def test_bad_inputs(self):
        for bad in ("0", "-3", "a..b", "3..1", "1..2..3", "x"):
            with pytest.raises(ValueError):
                parse_k_values(bad)

    def test_repeated_k_is_error(self):
        for bad in ("3,3", "1,5,3,5"):
            with pytest.raises(ValueError, match="listed twice"):
                parse_k_values(bad)

    @pytest.mark.parametrize("command", ["spectrum", "verify"])
    def test_repeated_k_exits_2(self, command, capsys):
        assert main([command, "-k", "3,3"]) == 2
        assert capsys.readouterr().out == ""

    def test_range_without_odd_k_is_error(self):
        with pytest.raises(ValueError):
            parse_k_values("2..2")

    @pytest.mark.parametrize("command", ["spectrum", "charpoly", "verify"])
    def test_empty_selection_exits_2(self, command, capsys):
        assert main([command, "-k", "2..2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


class TestWorkerCount:
    # Pure arithmetic: no pool is started here.
    def test_large_request_is_capped(self):
        cpus = os.cpu_count() or 1
        assert worker_count(10**6, 1000) == min(cpus, 1000)
        assert worker_count(10**6, 1) == 1

    def test_auto_and_explicit(self):
        cpus = os.cpu_count() or 1
        assert worker_count(0, 50) == min(cpus, 50)
        assert worker_count(1, 50) == 1
        assert worker_count(2, 50) == min(2, cpus)


class TestSpectrumCommand:
    def test_json_single_k(self, tmp_path, capsys):
        code = main(["spectrum", "-k", "5", "--format", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["k"] == 5
        assert report["m"] == 3
        assert report["basis"] == "L-circ"
        assert report["eigenvalues"] == pytest.approx([-6.0, 0.0, 6.0], abs=1e-10)
        assert report["kernel_dim"] == 1
        assert report["charpoly"] == [0, -36, 0, 1]
        assert report["p_diag"] == [32, 8, -40]
        assert report["signed_det"] == 0
        assert all(report["checks"].values())

    def test_csv_k1(self, capsys):
        assert main(["spectrum", "-k", "1", "--format", "csv"]) == 0
        assert capsys.readouterr().out == "1,1,0,0.0\n"

    def test_csv_row_shape(self, capsys):
        assert main(["spectrum", "-k", "3,7", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        k, kdim, det, eigs = lines[0].split(",")
        assert (k, kdim, det) == ("3", "0", "6")
        vals = [float(v) for v in eigs.split(";")]
        assert vals == pytest.approx([-math.sqrt(6), math.sqrt(6)], abs=1e-12)

    def test_even_k_rejected(self, capsys):
        assert main(["spectrum", "-k", "4"]) == 2
        assert "k must be odd" in capsys.readouterr().err

    def test_table_format(self, capsys):
        assert main(["spectrum", "-k", "5", "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "eigenvalues" in out and "5" in out

    def test_json_roundtrip_bytes(self, tmp_path):
        _, raw = run_to_file(tmp_path, "r.json", ["spectrum", "-k", "1..9", "--format", "json"])
        parsed = json.loads(raw)
        re_ser = "[\n" + ",\n".join(dumps_canonical(d) for d in parsed) + "\n]\n"
        assert re_ser.encode() == raw

    def test_deterministic_across_runs_and_jobs(self, tmp_path):
        _, a = run_to_file(tmp_path, "a.json", ["spectrum", "-k", "1..15", "--format", "json", "--jobs", "1"])
        _, b = run_to_file(tmp_path, "b.json", ["spectrum", "-k", "1..15", "--format", "json", "--jobs", "1"])
        _, c = run_to_file(tmp_path, "c.json", ["spectrum", "-k", "1..15", "--format", "json", "--jobs", "4"])
        assert a == b == c
        _, x = run_to_file(tmp_path, "x.csv", ["spectrum", "-k", "1..15", "--format", "csv", "--jobs", "1"])
        _, y = run_to_file(tmp_path, "y.csv", ["spectrum", "-k", "1..15", "--format", "csv", "--jobs", "4"])
        assert x == y

    def test_golden_file(self, tmp_path):
        _, got = run_to_file(tmp_path, "g.json", ["spectrum", "-k", "1..7", "--format", "json"])
        assert got == (DATA / "spectrum_k1_7.json").read_bytes()

    def test_bad_tolerance(self, capsys):
        assert main(["spectrum", "-k", "3", "--tol-match", "-1"]) == 2


class TestCharpolyCommand:
    @pytest.mark.parametrize(
        "k,expected", [("3", "[-6, 0, 1]"), ("5", "[0, -36, 0, 1]"), ("1", "[0, 1]")]
    )
    def test_examples(self, k, expected, capsys):
        assert main(["charpoly", "-k", k]) == 0
        assert capsys.readouterr().out == expected + "\n"

    def test_integers_beyond_the_str_digit_limit(self, capsys):
        # from k ~ 1965 the coefficients pass CPython's 4300-digit limit,
        # which main lifts for the whole process (Python >= 3.10.7)
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        try:
            assert main(["charpoly", "-k", "1999"]) == 0
            out = capsys.readouterr().out
            assert json.loads(out) == list(charpoly_exact(1999).coeffs)
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)

    def test_multiple_k_one_line_each(self, capsys):
        assert main(["charpoly", "-k", "1..5"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "[0, 1]",
            "[-6, 0, 1]",
            "[0, -36, 0, 1]",
        ]


class TestVerifyCommand:
    def test_small_range_passes(self, capsys):
        assert main(["verify", "-k", "1..7"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        lines = out.splitlines()
        assert all(line.startswith("PASS ") for line in lines)
        # 4 global checks + 15 per-k checks for each of 4 values of k
        assert len(lines) == 4 + 15 * 4

    def test_single_named_check(self, capsys):
        assert main(["verify", "-k", "3", "--check", "spectra-coincide"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("PASS spectra-coincide k=3")

    @pytest.mark.parametrize("mode", ["float", "exact", "both"])
    def test_assembly_match_beyond_float_factorials(self, mode, capsys):
        # k = 197 is the first k whose squared normalization factors
        # overflow a float
        argv = ["verify", "-k", "197", "--check", "assembly-match", "--mode", mode]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("PASS assembly-match k=197 ")

    def test_assembly_match_tolerance_scales_with_the_entries(self, capsys):
        # the residual is about one ulp of the largest entry, 1.8e-12 here
        argv = ["verify", "-k", "887,1001", "--check", "assembly-match", "--mode", "float"]
        assert main(argv) == 0
        assert main(argv + ["--tol-match", "1e-20"]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == ["PASS", "PASS", "FAIL", "FAIL"]

    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    def test_tol_match_must_be_finite_and_positive(self, tol, capsys):
        # nan failed working code and inf passed anything
        argv = ["verify", "-k", "5", "--check", "assembly-match", "--tol-match", tol]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tol-match" in captured.err

    def test_unknown_check_rejected(self, capsys):
        assert main(["verify", "-k", "3", "--check", "nonsense"]) == 2
        assert "unknown check" in capsys.readouterr().err

    def test_even_k_rejected(self):
        assert main(["verify", "-k", "2"]) == 2


class TestOptionsPerCommand:
    @pytest.mark.parametrize(
        "argv",
        [
            ["charpoly", "-k", "3", "--format", "csv"],
            ["charpoly", "-k", "3", "--mode", "float"],
            ["charpoly", "-k", "3", "--check", "nonsense"],
            ["charpoly", "-k", "3", "--jobs", "9"],
            ["charpoly", "-k", "3", "--tol-match", "1e-12"],
            ["spectrum", "-k", "3", "--check", "nonsense"],
            ["verify", "-k", "3", "--format", "json"],
            ["verify", "-k", "3", "--tol-eig", "1e-10"],
            ["spectrum", "-k", "3", "--tol-eig", "1e-10"],
        ],
    )
    def test_option_the_command_does_not_read_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_options_each_command_reads(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        assert main(["charpoly", "-k", "3", "--out", out]) == 0
        spectrum = ["--format", "csv", "--mode", "float", "--jobs", "1", "--tol-match", "1e-9"]
        assert main(["spectrum", "-k", "3", "--out", out] + spectrum) == 0
        verify = ["--check", "symmetry", "--mode", "float", "--jobs", "1", "--tol-match", "1e-9"]
        assert main(["verify", "-k", "3", "--out", out] + verify) == 0


class TestOutputFile:
    def test_out_writes_file(self, tmp_path):
        code, raw = run_to_file(tmp_path, "s.csv", ["spectrum", "-k", "1", "--format", "csv"])
        assert code == 0
        assert raw == b"1,1,0,0.0\n"

    def test_unwritable_path_is_internal_error(self, capsys):
        code = main(["spectrum", "-k", "1", "--out", "/nonexistent-dir/x.json"])
        assert code == 1
        assert "internal error" in capsys.readouterr().err
