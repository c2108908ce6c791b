"""CLI behaviour: formats, exit codes, determinism, golden output."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from sdirac import checks, cli, hermite, intertwine, operators, su2
from sdirac.cli import main, parse_k_values, worker_count
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
        assert list(parse_k_values("1..6")) == [1, 3, 5]
        assert list(parse_k_values("2..9")) == [3, 5, 7, 9]

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
    @staticmethod
    def usable_cpus():
        """The CPUs this process may run on."""
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1

    def test_large_request_is_capped(self):
        cpus = self.usable_cpus()
        assert worker_count(10**6, 1000) == min(cpus, 1000)
        assert worker_count(10**6, 1) == 1

    def test_auto_and_explicit(self):
        cpus = self.usable_cpus()
        assert worker_count(0, 50) == min(cpus, 50)
        assert worker_count(1, 50) == 1
        assert worker_count(2, 50) == min(2, cpus)

    def test_auto_counts_the_cpus_of_the_affinity_mask(self, monkeypatch):
        # as under `taskset -c 0`: one CPU, so --jobs 0 starts no pool
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert worker_count(0, 98) == 1
        assert worker_count(2, 98) == 1


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
        re_ser = "[\n" + ",\n".join(map(json.dumps, parsed)) + "\n]\n"
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
        # the float assembly tolerance is a constant, not an option
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "-k", "3", "--tol-match", "-1"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_reports_are_written_as_they_complete(self, monkeypatch):
        # when the report of k is computed, every smaller k is on stdout
        written, out, worker = {}, io.StringIO(), cli.build_report

        def recording(k):
            written[k] = out.getvalue().count('{"k": ')
            return worker(k)

        monkeypatch.setattr(cli, "build_report", recording)
        with contextlib.redirect_stdout(out):
            assert main(["spectrum", "-k", "1..7", "--jobs", "1"]) == 0
        assert written == {1: 0, 3: 1, 5: 2, 7: 3}
        assert out.getvalue() == (DATA / "spectrum_k1_7.json").read_text()

    def test_a_failure_mid_sweep_leaves_the_reports_before_it(self, monkeypatch, capsys):
        worker = cli.build_report

        def failing(k):
            if k == 5:
                raise RuntimeError("no report")
            return worker(k)

        monkeypatch.setattr(cli, "build_report", failing)
        assert main(["spectrum", "-k", "1..7", "--jobs", "1"]) == 1
        captured = capsys.readouterr()
        golden = (DATA / "spectrum_k1_7.json").read_text()
        assert captured.out == golden[: golden.index(',\n{"k": 5, ')]
        assert "internal error: no report" in captured.err


    def test_spectrum_195_stdout_is_pinned(self, capsys):
        # sha256 of `spectrum -k 1..195 --jobs 1` stdout: 98 reports whose
        # eigenvalues print as their shortest repr
        assert main(["spectrum", "-k", "1..195", "--jobs", "1"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "d8b908092f510fb0202215e016923e9742410396f5be5a225cfc57a8936e52ca"

    def test_charpoly_beyond_the_str_digit_limit(self, capsys):
        # the report of k = 1999 holds coefficients past CPython's
        # 4300-digit int -> str limit, which main lifts for the process
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        try:
            assert main(["spectrum", "-k", "1999"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert max(len(str(abs(c))) for c in report["charpoly"]) > 4300
            assert report["charpoly"] == list(charpoly_exact(1999).coeffs)
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)


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
    def test_golden_output(self, capsys):
        # all checks; the residual column is part of the bytes
        assert main(["verify", "-k", "1..15"]) == 0
        assert capsys.readouterr().out == (DATA / "verify_k1_15_both.txt").read_text()

    def test_verify_99_stdout_is_pinned(self, capsys):
        # sha256 of `verify -k 1..99 --jobs 1` stdout, every check on every
        # odd k <= 99 with its residual column (md5 prefix 33bab42cce5f)
        assert main(["verify", "-k", "1..99", "--jobs", "1"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "1806630ea71a15315a8ba90874d5af81e00773295e6568364d65a5807585257d"

    def test_float_large_k_stdout_is_pinned(self, capsys):
        # sha256 of the benchmark's float-large-k command for seed 1: the
        # seven float-path checks on k = 993, 2007, 2991
        names = ("symmetry", "spectra-coincide", "p-eigenvalues", "kernel-rule")
        names += ("charpoly-parity", "det-product", "norm-bound")
        argv = ["verify", "-k", "993,2007,2991", "--jobs", "1"]
        assert main(argv + [arg for name in names for arg in ("--check", name)]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "a2326d3fb39eef08a88b3e0357a52d0687ab5d12e4a943a6b6f715bafb0cb3d9"

    @pytest.mark.parametrize("name", ["kernel-rule", "det-product"])
    def test_wrong_determinant_fails_with_a_residual(self, name, monkeypatch, capsys):
        # the last factor of det D_7 = (-30)(-42)(1) moves to 0: a kernel
        # where m = 4 is even, and one wrong factor; one exact defect each
        monkeypatch.setattr(operators, "det_factors", lambda k: [-30, -42, 0])
        assert main(["verify", "-k", "7", "--check", name]) == 3
        assert capsys.readouterr().out == f"FAIL {name} k=7 residual=1.000e+00\n"

    @pytest.mark.parametrize(
        "name,field,index",
        [("su2-bracket", "r", 2), ("su2-weights", "w", 3), ("su2-structure", "s", 2), ("hom-oracle", "w", 5),
         ("equivariance", "w", 5)],
    )
    def test_one_corrupted_rep_entry_fails_with_a_residual(self, name, field, index, monkeypatch, capsys):
        # one stored integer of the rep at k = 7 moves by 1: W[3] or W[5],
        # the weight of h_1, or entry 2 of the super-diagonal of R or S.
        # Each check prints FAIL with a nonzero exact defect.
        def corrupted(k):
            rep = su2.build_rep(k)
            (rep.w if field == "w" else getattr(rep, field)[1])[index] += 1
            return rep

        monkeypatch.setattr(operators, "build_rep", corrupted)
        assert main(["verify", "-k", "7", "--check", name]) == 3
        line = capsys.readouterr().out
        assert line.startswith(f"FAIL {name} k=7 ")
        assert float(line.split("residual=")[1]) > 0

    def test_halved_eigenvalues_fail_norm_bound_with_their_slack(self, monkeypatch, capsys):
        # at k = 7 the spectral radius 10.41 halves to 5.205, below
        # a_{7,1} = sqrt(30) = 5.477: the slack (5.205 - 5.477) / 6.477 is
        # the measured defect
        spectrum = operators.spectrum
        monkeypatch.setattr(operators, "spectrum", lambda block: 0.5 * spectrum(block))
        assert main(["verify", "-k", "7", "--check", "norm-bound"]) == 3
        assert capsys.readouterr().out == "FAIL norm-bound k=7 residual=-4.201e-02\n"

    def test_deterministic_across_jobs(self, tmp_path):
        argv = ["verify", "-k", "1..31", "--jobs"]
        assert run_to_file(tmp_path, "1.txt", argv + ["1"]) == run_to_file(tmp_path, "2.txt", argv + ["2"])

    def test_workers_are_given_a_window_of_k(self, monkeypatch, capsys):
        # a long range keeps two k a worker submitted ahead of the one it
        # writes, not the whole range.  The fake pool starts no process: a
        # k runs when its result is read.
        import concurrent.futures

        pending, most = [], []

        class Future:
            def __init__(self, fn, args):
                self.fn, self.args = fn, args

            def result(self):
                pending.remove(self)
                return self.fn(*self.args)

        class Pool:
            def __init__(self, max_workers):
                assert max_workers == 2

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                pending.append(Future(fn, args))
                most.append(len(pending))
                return pending[-1]

        argv = ["verify", "-k", "1..401", "--check", "symmetry", "--jobs"]
        assert main(argv + ["1"]) == 0
        serial = capsys.readouterr().out
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(cli, "worker_count", lambda jobs, n_items: 2)
        assert main(argv + ["2"]) == 0
        assert capsys.readouterr().out == serial
        assert len(most) == 201 and max(most) == 4 and not pending

    def test_lines_are_written_as_each_k_completes(self, monkeypatch):
        # when the checks of k start, the global lines and those of every
        # smaller k are on stdout
        written, out, worker = {}, io.StringIO(), cli.run_k

        def recording(k, names):
            written[k] = out.getvalue().count("\n")
            return worker(k, names)

        monkeypatch.setattr(cli, "run_k", recording)
        with contextlib.redirect_stdout(out):
            assert main(["verify", "-k", "1..7", "--jobs", "1"]) == 0
        assert written == {1: 4, 3: 19, 5: 34, 7: 49}
        assert out.getvalue().splitlines() == (DATA / "verify_k1_15_both.txt").read_text().splitlines()[:64]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_a_failure_mid_sweep_leaves_the_lines_before_it(self, jobs, monkeypatch, capsys):
        check = checks.PER_K_REGISTRY["norm-bound"]

        def failing(ctx):
            if ctx.k == 5:
                raise RuntimeError("no bound")
            return check(ctx)

        monkeypatch.setitem(checks.PER_K_REGISTRY, "norm-bound", failing)
        assert main(["verify", "-k", "1..7", "--jobs", jobs]) == 1
        captured = capsys.readouterr()
        golden = (DATA / "verify_k1_15_both.txt").read_text()
        assert captured.out == golden[: golden.index("PASS su2-bracket k=5 ")]
        assert captured.err == "internal error: no bound\n"

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

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_global_checks_alone_walk_no_k(self, jobs, monkeypatch, capsys):
        # 5e7 odd k and no per-k check: one line at once, no k is walked and
        # no worker started.  A walk would call run_k, which fails here at
        # once rather than after minutes.
        def walked(k, names):
            raise AssertionError(f"k={k} was walked")

        monkeypatch.setattr(cli, "run_k", walked)
        start = time.perf_counter()
        assert main(["verify", "-k", "1..100000001", "--check", "oscillator", "--jobs", jobs]) == 0
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().out == "PASS oscillator k=* residual=0.000e+00\n"

    @staticmethod
    def _assembly_route_passes(k, route, monkeypatch, capsys):
        """assembly-match passes at k by the float route alone ("float",
        the exact identities passed by fiat), by the exact route alone
        ("exact", the float mismatch zeroed) or by both."""
        if route == "float":
            monkeypatch.setattr(checks, "assembly_matches_exact", lambda k, coeffs=None: True)
        elif route == "exact":
            monkeypatch.setattr(checks, "assembly_mismatch_float", lambda k, coeffs, blocks: 0.0)
        code = main(["verify", "-k", str(k), "--check", "assembly-match"])
        return code == 0 and capsys.readouterr().out.startswith(f"PASS assembly-match k={k} ")

    @pytest.mark.parametrize("route", ["float", "exact", "both"])
    def test_assembly_match_beyond_float_factorials(self, route, monkeypatch, capsys):
        # k = 197 is the first k whose squared normalization factors
        # overflow a float
        assert self._assembly_route_passes(197, route, monkeypatch, capsys)

    @pytest.mark.parametrize("k,route", [(1999, "float"), (1999, "exact"), (1999, "both"), (3999, "float")])
    def test_assembly_match_at_large_k(self, k, route, monkeypatch, capsys):
        assert self._assembly_route_passes(k, route, monkeypatch, capsys)

    def test_assembly_match_tolerance_scales_with_the_entries(self, monkeypatch, capsys):
        # the residual is about one ulp of the largest entry, 1.8e-12 here
        argv = ["verify", "-k", "887,1001", "--check", "assembly-match"]
        assert main(argv) == 0
        monkeypatch.setattr(checks, "TOL_MATCH", 1e-20)
        assert main(argv) == 3
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == ["PASS", "PASS", "FAIL", "FAIL"]

    def test_unknown_check_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "-k", "3", "--check", "nonsense"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid choice: 'nonsense'" in captured.err

    def test_value_error_inside_a_check_is_internal(self, monkeypatch, capsys):
        def broken(ctx):
            raise ValueError("matrix is not Hermitian")

        monkeypatch.setitem(checks.PER_K_REGISTRY, "symmetry", broken)
        assert main(["verify", "-k", "3", "--check", "symmetry"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: matrix is not Hermitian\n"

    def test_even_k_rejected(self):
        assert main(["verify", "-k", "2"]) == 2

    @pytest.mark.parametrize(
        "argv,name",
        [
            (["verify", "-k", "4576505", "--check", "hom-oracle"], "hom-oracle"),
            (["verify", "-k", "1,4576505", "--check", "equivariance"], "equivariance"),
            (["verify", "-k", "4576505", "--check", "assembly-match"], "assembly-match"),
            (["verify", "-k", "4576505"], "su2-bracket"),
            (["spectrum", "-k", "4576505"], "assembly-match"),
            (["verify", "-k", "4576505", "--check", "p-eigenvalues"], "p-eigenvalues"),
            (["verify", "-k", "454047", "--check", "charpoly-eigs"], "charpoly-eigs"),
            (["verify", "-k", "4576505", "--check", "kernel-rule"], "kernel-rule"),
            (["verify", "-k", "4576505", "--check", "symmetry"], "symmetry"),
            (["charpoly", "-k", "4576505"], "charpoly"),
            (["verify", "-k", "4576505", "--check", "su2-bracket"], "su2-bracket"),
            (["verify", "-k", "4576505", "--check", "su2-weights"], "su2-weights"),
            (["verify", "-k", "4576505", "--check", "su2-structure"], "su2-structure"),
            (["verify", "-k", "4576505", "--check", "hom-dim"], "hom-dim"),
        ],
    )
    def test_k_past_a_guard_is_refused_as_input(self, argv, name, capsys):
        # refused before any k is built
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {name} takes k <= {checks.K_LIMITS[name]}: ")

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
    @pytest.mark.parametrize("command,name", [("spectrum", "assembly-match"), ("verify", "su2-bracket")])
    def test_range_past_a_guard_is_refused_before_it_is_listed(self, command, name):
        # listing the 5e8 odd k of the range would take about 20 GB; the
        # child's address space is capped 1 GiB above its size after import,
        # so a range that is listed fails rather than fills the machine
        code = f"""
import os, resource, sys, time
from sdirac.cli import main
size = int(open("/proc/self/statm").read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
resource.setrlimit(resource.RLIMIT_AS, (size + 2**30, resource.getrlimit(resource.RLIMIT_AS)[1]))
start = time.perf_counter()
code = main(["{command}", "-k", "1..1000000000"])
print(time.perf_counter() - start, file=sys.stderr)
sys.exit(code)
"""
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        message, seconds = proc.stderr.splitlines()
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert message.startswith(f"error: {name} takes k <= {checks.K_LIMITS[name]}: ")
        assert float(seconds) < 1.0

    def test_every_per_k_check_has_a_limit(self):
        # every k the CLI accepts is bounded: each per-k check and the
        # charpoly command has a K_LIMITS entry, and nothing else has one
        assert set(checks.K_LIMITS) == {*checks.PER_K_CHECKS, "charpoly"}

    def test_k_limits_are_those_of_the_guards(self):
        # each limit is the last odd k at which its stated integer bound
        # holds; at the next odd k it fails
        def largest_square(k):  # 2l(m^2 - l^2) peaks at l = m / sqrt(3)
            l = round((k + 1) / 2 / math.sqrt(3))
            return max(operators.a_coeff(k, j).square for j in range(l - 2, l + 3))

        def m(k):
            return (k + 1) // 2

        assert len(set(checks.K_LIMITS.values())) == 2
        k = checks.K_LIMITS["charpoly-eigs"]  # its count's float64 squares
        assert k == checks.COUNT_MAX_K and largest_square(k) < 2**53 <= largest_square(k + 2)
        for name in set(checks.K_LIMITS) - {"charpoly-eigs"}:
            k = checks.K_LIMITS[name]  # int64 squares a_{k,l}^2
            assert k == operators.A_SQUARES_MAX_K and largest_square(k) < 2**63 <= largest_square(k + 2)
        # the int64 products of assembly-match, taken here in Python ints
        # over every l, peak at the largest square
        k = operators.A_SQUARES_MAX_K
        down, up = (x.tolist() for x in operators.unnormalized_coeffs(k))
        num, den = (x.tolist() for x in intertwine.scale_sq_ratio(k))
        down, up = down[1:], up[:-1]
        products = (map(int.__mul__, down, up), map(int.__mul__, down, num), map(int.__mul__, up, den))
        assert max(map(max, products)) == largest_square(k) < 2**63
        # below every limit a rep entry (<= k) times a level (<= m), twice
        # over in definition_coeffs, stays below 2**53, and every level the
        # intertwiner checks read, l <= k + 2, has a weight
        k = max(checks.K_LIMITS.values())
        assert 2 * k * m(k) < 2**53
        assert k + 2 < hermite.WEIGHT_LEVELS and (hermite.WEIGHT_LEVELS + 1) ** 2 < 2**53


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
            # prefixes of an option's name are not read as the option
            ["verify", "-k", "5", "--check", "assembly-match", "--tol", "1e-30"],
            ["spectrum", "-k", "3", "--form", "csv"],
            # every check runs its full route; the float tolerance is a constant
            ["verify", "-k", "5", "--mode", "float"],
            ["spectrum", "-k", "5", "--tol-match", "1e-9"],
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
        spectrum = ["--format", "csv", "--jobs", "1"]
        assert main(["spectrum", "-k", "3", "--out", out] + spectrum) == 0
        verify = ["--check", "symmetry", "--jobs", "1"]
        assert main(["verify", "-k", "3", "--out", out] + verify) == 0


class TestReadmeOptionTable:
    """The README's option table marks with a check the options each
    command takes; it must name exactly the parser's."""

    README = Path(__file__).parent.parent / "README.md"

    @staticmethod
    def readme_table(readme):
        """The table headed ``| option |`` in the markdown ``readme``, from
        its header to the next blank line: command -> the flags it marks."""
        lines = readme.splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("| option |"))
        end = next((i for i in range(start, len(lines)) if not lines[i].strip()), len(lines))
        # cells split at each "|" that is not escaped as "\|"
        rows = [re.split(r"(?<!\\)\|", line)[1:-1] for line in lines[start:end]]
        header = [cell.strip(" `") for cell in rows[0]]
        table = {command: set() for command in header[1:]}
        for row in rows[2:]:
            option, *marks = (cell.strip() for cell in row)
            flags = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", option.split("<")[0]))
            for command, mark in zip(header[1:], marks):
                if mark == "✓":
                    table[command] |= flags
        return table

    @staticmethod
    def parser_options():
        parser = cli._build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
        return {
            name: {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
            for name, sub in commands.items()
        }

    def test_table_names_the_options_of_each_command(self):
        assert self.readme_table(self.README.read_text(encoding="utf-8")) == self.parser_options()

    def test_another_table_above_changes_nothing(self):
        readme = self.README.read_text(encoding="utf-8")
        other = "| flag | `spectrum` | `verify` |\n|---|---|---|\n| `--seed N` | ✓ | ✓ |\n\n"
        at = readme.index("| option |")
        assert self.readme_table(readme[:at] + other + readme[at:]) == self.readme_table(readme)


class TestOutputFile:
    def test_out_writes_file(self, tmp_path):
        code, raw = run_to_file(tmp_path, "s.csv", ["spectrum", "-k", "1", "--format", "csv"])
        assert code == 0
        assert raw == b"1,1,0,0.0\n"

    def test_unwritable_path_is_internal_error(self, capsys):
        code = main(["spectrum", "-k", "1", "--out", "/nonexistent-dir/x.json"])
        assert code == 1
        assert "internal error" in capsys.readouterr().err


def test_closed_stdout_exits_1_quietly():
    # `sdirac spectrum -k 1..195 | head -c 10`: the 414 KB of output
    # outgrow the pipe's buffer, so a write meets the closed pipe, and the
    # command exits 1 (I/O failure) with nothing on stderr
    argv = [sys.executable, "-m", "sdirac.cli", "spectrum", "-k", "1..195", "--jobs", "1"]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(10) == b'[\n{"k": 1,'
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert proc.returncode == 1
    assert "internal error" not in err and "Exception ignored" not in err


def test_import_loads_no_exact_fraction_or_pool_modules():
    # every run pays for what `import sdirac.cli` loads: nothing of the
    # package uses fractions or decimal, and the process pool is imported
    # only when --jobs asks for a second worker
    code = "import sys, sdirac.cli; print(sorted({'fractions', 'decimal', 'concurrent.futures'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
