"""Tests for the per-k context shared by the checks and the report."""

import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from sdirac import checks, cli, intertwine, operators, su2
from sdirac.checks import PER_K_CHECKS, check_charpoly_eigs, check_coincide, run_checks
from sdirac.operators import DiracMatrix, KContext, build_report

COUNTED = {
    "build_rep": su2.build_rep,
    "charpoly_exact": operators.charpoly_exact,
    "spectrum": operators.spectrum,
    "assemble_closed_form": operators.assemble_closed_form,
}


@pytest.fixture
def calls(monkeypatch):
    """Counts calls to the COUNTED functions through every module that
    holds them."""
    counts = Counter()
    for module in (su2, intertwine, operators, checks, cli):
        for name, fn in COUNTED.items():
            if getattr(module, name, None) is fn:
                def counted(*args, _fn=fn, _name=name, **kwargs):
                    counts[_name] += 1
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
    return counts


class TestBuiltOncePerK:
    @pytest.mark.parametrize("k", [1, 7, 9])
    def test_run_checks(self, calls, k):
        results = run_checks([k])
        assert len(results) == 4 + len(PER_K_CHECKS)
        assert all(r.ok for r in results)
        assert calls == {name: 1 for name in COUNTED}

    def test_run_checks_several_k(self, calls):
        assert all(r.ok for r in run_checks([3, 5, 11]))
        assert calls == {name: 3 for name in COUNTED}

    @pytest.mark.parametrize("mode", ["float", "exact", "both"])
    @pytest.mark.parametrize("k", [1, 7])
    def test_build_report(self, calls, k, mode):
        assert all(build_report(k, mode=mode).checks.values())
        assert calls == {name: 1 for name in COUNTED}


class TestReport:
    def test_beyond_float_factorials(self):
        # the squared normalization factors overflow a float from k = 197
        report = build_report(197)
        assert report.m == 99
        assert all(report.checks.values())
        assert report.kernel_dim == 1 and report.eigenvalues[49] == 0.0

    def test_flags_are_the_registry_checks(self):
        registry = checks.per_k_checks()
        ctx = KContext(13)
        expected = {name: registry[name](ctx).ok for name in operators.CHECK_NAMES}
        assert build_report(13).checks == expected


class TestSpectraCoincide:
    def test_passes_with_zero_residual(self):
        result = check_coincide(KContext(21))
        assert result.ok and result.residual == 0.0

    def test_band_deviation_is_the_residual(self):
        ctx = KContext(9)
        d, dt = ctx.blocks
        band = {o: diag.copy() for o, diag in dt.band.items()}
        band[1][1] *= 1 + 1e-15
        band[-1][1] = np.conj(band[1][1])
        ctx.blocks = (d, DiracMatrix(9, band))
        result = check_coincide(ctx)
        assert not result.ok
        assert result.residual == abs(abs(band[1][1]) - d.band[1][1].real) > 0


    def test_bands_must_be_identical(self):
        # the blocks stay exactly unitarily equivalent; only what the
        # eigensolver would see differs, by one ulp
        ctx = KContext(9)
        (d0, b0), (d1, b1) = ctx.bands
        moved = b1.copy()
        moved[2] = np.nextafter(moved[2], np.inf)
        ctx.bands = ((d0, b0), (d1, moved))
        result = check_coincide(ctx)
        assert not result.ok
        assert result.residual == moved[2] - b0[2] > 0


class TestBandMemory:
    def test_float_checks_build_no_dense_block(self):
        k = 1999
        m = (k + 1) // 2
        ctx = KContext(k)
        registry = checks.per_k_checks()
        tracemalloc.start()
        try:
            results = [registry[name](ctx) for name in ("symmetry", "spectra-coincide", "p-eigenvalues", "norm-bound")]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r.ok for r in results)
        assert peak < m * m * 16  # one dense complex128 block


class TestCharpolyCertificate:
    @pytest.mark.parametrize("k", [3, 7, 21])
    def test_sign_at_matches_fraction_horner(self, k):
        cp = operators.charpoly_exact(k)
        rng = np.random.default_rng(k)
        for _ in range(40):
            num, den = int(rng.integers(-10**6, 10**6)), int(rng.integers(1, 10**4))
            value = sum(Fraction(num, den) ** i * c for i, c in enumerate(cp.coeffs))
            assert cp.sign_at(num, den) == (value > 0) - (value < 0)

    def test_root_gives_zero_sign(self):
        assert operators.charpoly_exact(5).sign_at(12, 2) == 0  # p5 = x(x^2 - 36)

    @pytest.mark.parametrize("k", [5, 31])
    def test_rejects_a_moved_eigenvalue(self, k):
        ctx = KContext(k)
        assert check_charpoly_eigs(ctx).ok
        eigs = ctx.eigenvalues.copy()
        eigs[-1] *= 1 + 1e-11
        ctx.eigenvalues = eigs
        assert not check_charpoly_eigs(ctx).ok
