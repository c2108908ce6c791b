"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import time

import numpy as np
import pytest

from sdirac.cli import main
from sdirac.checks import check_grading, check_ladder_commutator, check_linearity, check_oscillator
from sdirac.intertwine import hom_space, hom_space_oracle
from sdirac.operators import (
    a_coeff,
    assemble_closed_form,
    assembly_matches_exact,
    assembly_mismatch_float,
    charpoly_exact,
    definition_coeffs,
    p_diag_closed,
    spectrum,
)
from sdirac.su2 import build_rep


def _report(num, name, detail=""):
    print(f"ACCEPTANCE {num} {name}: PASS {detail}".rstrip())


def test_criterion_1_assembly_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(1, 32, 2):
        assert assembly_matches_exact(k), f"exact assembly equivalence failed at k={k}"
        dev = assembly_mismatch_float(k, definition_coeffs(k), assemble_closed_form(k))
        worst = max(worst, dev)
        assert dev <= 1e-12, f"float assembly deviation {dev} at k={k}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"assembly equivalence took {elapsed:.1f}s"
    _report(1, "assembly-equivalence", f"(max float dev {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_spectral_corollaries():
    t0 = time.perf_counter()
    for k in range(1, 100, 2):
        d, dt = assemble_closed_form(k)
        eig_d = spectrum(d)
        eig_dt = spectrum(dt)
        assert np.max(np.abs(eig_d + eig_d[::-1])) <= 1e-10, f"symmetry at k={k}"
        assert np.max(np.abs(eig_d - eig_dt)) <= 1e-10, f"coincidence at k={k}"
        c0 = charpoly_exact(k).coeffs[0]
        kdim = 1 if c0 == 0 else 0
        assert kdim == ((k + 1) // 2) % 2, f"kernel rule at k={k}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"spectral corollaries took {elapsed:.1f}s"
    _report(2, "spectral-corollaries", f"({elapsed:.2f}s)")


def test_criterion_3_p_operator_closed_form():
    for k in range(1, 100, 2):
        d, dt = assemble_closed_form(k)
        p = 1j * (dt.entries @ d.entries - d.entries @ dt.entries)
        off = p - np.diag(np.diag(p))
        assert np.max(np.abs(off)) < 1e-10, f"commutator not diagonal at k={k}"
        diag = np.diag(p)
        assert np.max(np.abs(diag.imag)) < 1e-10
        rounded = tuple(int(round(x)) for x in diag.real)
        m = (k + 1) // 2
        closed = tuple((k + 1) ** 2 - 3 * (2 * l + 1) ** 2 - 1 for l in range(m))
        alt = tuple(2 * (a_coeff(k, l + 1).square - a_coeff(k, l).square) for l in range(m))
        assert rounded == closed == alt, f"second-order diagonal at k={k}"
    _report(3, "p-operator-closed-form")


def test_criterion_4_determinant_magnitude():
    checked = 0
    for k in range(1, 100, 2):
        m = (k + 1) // 2
        if m % 2 != 0:
            continue
        c0 = charpoly_exact(k).coeffs[0]
        prod = 1
        for r in range(1, m // 2 + 1):
            prod *= a_coeff(k, 2 * r - 1).square
        assert abs(c0) == prod, f"determinant magnitude at k={k}"
        checked += 1
    assert checked == 25  # k = 3, 7, 11, ..., 99
    _report(4, "determinant-magnitude", f"({checked} cases)")


def test_criterion_5_small_k_spectra():
    eig3 = spectrum(assemble_closed_form(3)[0])
    assert np.max(np.abs(eig3 - [-math.sqrt(6), math.sqrt(6)])) <= 1e-12
    eig5 = spectrum(assemble_closed_form(5)[0])
    assert np.max(np.abs(eig5 - [-6.0, 0.0, 6.0])) <= 1e-10
    assert charpoly_exact(3).coeffs == (-6, 0, 1)
    assert charpoly_exact(5).coeffs == (0, -36, 0, 1)
    _report(5, "small-k-spectra")


def test_criterion_6_hom_space_oracle():
    for k in range(22):
        rep = build_rep(k)
        for l in range(k + 3):
            assert hom_space(k, l) == hom_space_oracle(k, l, rep=rep), (k, l)
        # the invariant block of V_k (x) W has dimension (k+1)^2/2 for odd k
        expected = (k + 1) ** 2 // 2 if k % 2 == 1 else 0
        assert (k + 1) * sum(hom_space(k, l) for l in range(k + 2)) == expected, k
    _report(6, "hom-space-oracle")


def test_criterion_7_clifford_property_suite():
    for check in (check_ladder_commutator, check_grading, check_linearity, check_oscillator):
        result = check()
        assert result.ok and result.residual == 0.0, result
    _report(7, "clifford-property-suite")


def test_criterion_8_unboundedness_trend():
    t0 = time.perf_counter()
    for k in range(1, 200, 2):
        d, _ = assemble_closed_form(k)
        mx = float(np.max(np.abs(spectrum(d))))
        a1 = a_coeff(k, 1)
        lower = (k - 1) // 2
        assert a1.square >= lower * lower, f"a_k1 bound at k={k}"
        assert mx >= a1.value - 1e-9 * (1 + a1.value), f"spectral radius at k={k}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"unboundedness sweep took {elapsed:.1f}s"
    _report(8, "unboundedness-trend", f"({elapsed:.2f}s)")


def test_criterion_9_cli_determinism(tmp_path):
    def run(name, jobs):
        out = tmp_path / name
        code = main(
            ["spectrum", "-k", "1..31", "--format", "json", "--jobs", str(jobs), "--out", str(out)]
        )
        assert code == 0
        return out.read_bytes()

    first = run("a.json", 1)
    second = run("b.json", 1)
    eight = run("c.json", 8)
    assert first == second, "repeated runs differ"
    assert first == eight, "--jobs 1 vs --jobs 8 differ"
    _report(9, "cli-determinism", f"({len(first)} bytes)")
