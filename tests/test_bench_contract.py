"""The names of ``sdirac`` that the benchmark under ``bench/`` calls, with
the argument shapes it passes (``bench/layers.py``, ``bench/selftest.py``,
``bench/run.py``).  The benchmark is kept fixed between its own changes, so
a rename or a changed signature here would break it silently."""

import ast
import importlib
import json
import re
from pathlib import Path

import numpy as np

from sdirac import checks, cli, hermite, intertwine, su2, tridiag
from sdirac import operators as op

K = 5
REFERENCE = Path(__file__).parent.parent / "bench" / "reference.json"


def test_operators_calls():
    d, dt = op.assemble_closed_form(K)
    assert op.spectrum(op.assemble_closed_form(K)[0]).tolist() == [-6.0, 0.0, 6.0]
    assert d.entries.nbytes + dt.entries.nbytes == 2 * 3 * 3 * 16
    assert op.p_operator(K) == op.p_diag_closed(K) == (32, 8, -40)
    assert len(op.assemble_from_definition(K)) == 2
    assert op.assembly_matches_exact(K)
    assert op.build_report(K)["k"] == K
    assert op.charpoly_exact(K).coeffs == (0, -36, 0, 1)
    m = (K + 1) // 2
    off = np.array([op.a_coeff(K, l).value for l in range(1, m)])
    assert np.array_equal(tridiag.eigvalsh_tridiagonal(np.zeros(m), off), [-6.0, 0.0, 6.0])


def test_rep_and_intertwiner_calls():
    rep = su2.build_rep(K)
    assert [a.shape for a in rep.as_arrays()] == [(K + 1, K + 1)] * 3
    assert su2.check_bracket(rep, mode="exact") and su2.check_bracket(rep, mode="float")
    for l in range(K + 3):
        intertwine.hom_space_oracle(K, l, rep=rep)
    for l in range((K + 1) // 2):
        intertwine.equivariance_residual(K, l)
    hermite.weight_on_Wl(K)


def test_checks_and_cli_names():
    assert checks.spectrum is op.spectrum
    for name in checks.GLOBAL_CHECKS + checks.PER_K_CHECKS:
        results = checks.run_checks([K], names=[name])
        assert len(results) == 1 and results[0].ok
    assert cli.dumps_canonical({"k": K, "m": 3}) == '{"k": 5, "m": 3}'


def test_every_module_the_tracer_names_imports():
    # bench/tracer.py imports each module of its MODULES by name, so a
    # module it names stays importable, code or none
    tracer = (Path(__file__).parent.parent / "bench" / "tracer.py").read_text()
    names = ast.literal_eval(re.search(r"^MODULES = (\(.*\))$", tracer, re.M).group(1))
    for name in names:
        importlib.import_module(f"sdirac.{name}")


def test_check_names_match_the_reference():
    # the benchmark fails an operation for each verify line or report flag
    # it misses, so a renamed or folded check would lower its ok_frac
    reference = json.loads(REFERENCE.read_text())
    assert list(checks.GLOBAL_CHECKS) == reference["verify_checks"]["global"]
    assert list(checks.PER_K_CHECKS) == reference["verify_checks"]["per_k"]
    for report in reference["spectrum"].values():
        assert sorted(op.CHECK_NAMES) == sorted(report["checks"])
