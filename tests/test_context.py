"""Tests for the per-k context shared by the checks and the report."""

import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from sdirac import checks, cli, intertwine, operators, su2
from sdirac.checks import ALL_CHECKS, PER_K_CHECKS, check_charpoly_eigs, check_coincide, run_checks
from sdirac.operators import DiracMatrix, KContext, build_report

COUNTED = {
    "build_rep": su2.build_rep,
    "charpoly_exact": operators.charpoly_exact,
    "spectrum": operators.spectrum,
    "assemble_closed_form": operators.assemble_closed_form,
    "p_diag_closed": operators.p_diag_closed,
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

    @pytest.mark.parametrize("part", ["float", "exact", "both"])
    @pytest.mark.parametrize("k", [1, 7])
    def test_build_report(self, calls, k, part):
        # then the report's float fields match a fresh solve, its exact
        # fields a fresh charpoly, and ("both") the two halves agree
        report = build_report(k)
        assert all(report["checks"].values())
        assert calls == {name: 1 for name in COUNTED}
        x = np.array(report["eigenvalues"])
        if part == "float":
            assert np.array_equal(x, operators.spectrum(operators.assemble_closed_form(k)[0]))
        elif part == "exact":
            cp = operators.charpoly_exact(k)
            assert report["charpoly"] == list(cp.coeffs) and report["m"] == cp.m
            assert (report["kernel_dim"], report["signed_det"]) == (int(cp.coeffs[0] == 0), (-1) ** cp.m * cp.coeffs[0])
        else:
            assert report["m"] == len(x) and report["kernel_dim"] == np.count_nonzero(x == 0.0)
            assert report["abs_det"] == pytest.approx(np.prod(np.abs(x)), rel=1e-12)


DET_CHECKS = ("kernel-rule", "charpoly-parity", "det-product")


class TestDeterminantChecks:
    @pytest.mark.parametrize("k", [1001, 4001])
    def test_build_no_charpoly(self, calls, k):
        results = run_checks([k], names=DET_CHECKS)
        assert [(r.name, r.ok, r.residual) for r in results] == [(name, True, 0.0) for name in DET_CHECKS]
        assert calls["charpoly_exact"] == 0
        ctx = KContext(k)
        assert all(checks.PER_K_REGISTRY[name](ctx).ok for name in DET_CHECKS)
        assert "charpoly" not in vars(ctx) and "det" in vars(ctx)

    @pytest.mark.parametrize("block,entry", [(0, 5e-324), (1, -2.5j), (1, 3.0)])
    def test_nonzero_diagonal_fails_parity(self, block, entry):
        # the smallest subnormal already breaks p_j(-x) = (-1)^j p_j(x)
        ctx = KContext(9)
        blocks = list(ctx.blocks)
        band = {o: diag.copy() for o, diag in blocks[block].band.items()}
        band[0][3] = entry
        blocks[block] = DiracMatrix(9, band)
        ctx.blocks = tuple(blocks)
        result = checks.check_charpoly_parity(ctx)
        assert not result.ok and result.residual == abs(entry)

    @pytest.mark.parametrize(
        "k,patch",
        [(5, lambda det: 1), (7, lambda det: 0), (7, lambda det: det + 1), (2989, lambda det: -1),
         (2991, lambda det: 0), (2991, lambda det: det + 1)],
    )
    def test_patched_determinant_fails(self, k, patch):
        # m = 3, 4, 1495, 1496.  det-product fails on every wrong value;
        # kernel-rule only when the kernel changes.  At k = 2991 det has
        # 22,675 bits, more than a float holds, and the residual is a count
        ctx = KContext(k)
        true = ctx.det
        ctx.det = patch(true)
        det_product = checks.check_det_product(ctx)
        assert (det_product.ok, det_product.residual) == (False, 1.0)
        moved = (true == 0) != (ctx.det == 0)
        kernel = checks.check_kernel_rule(ctx)
        assert (kernel.ok, kernel.residual) == (not moved, float(moved))

    @pytest.mark.parametrize("k,l", [(3, 1), (7, 3), (2991, 1), (2991, 1495)])
    def test_wrong_square_fails_det_product(self, k, l, monkeypatch):
        # a_squares wrong wherever it is read: the determinant is built of
        # it, and det-product compares with the closed ladder form of the
        # squares, so one odd-indexed square off by 1 fails the check
        squares = operators.a_squares

        def off_by_one(k):
            sq = squares(k)
            sq[l] += 1
            return sq

        for module in (operators, checks):
            monkeypatch.setattr(module, "a_squares", off_by_one)
        result = checks.check_det_product(KContext(k))
        assert (result.ok, result.residual) == (False, 1.0)


class TestOddK:
    @pytest.mark.parametrize("name", ALL_CHECKS)
    def test_every_check_rejects_a_k_that_is_not_odd_and_positive(self, name):
        for k in (4, 0, -3):
            with pytest.raises(ValueError, match="odd"):
                run_checks([k], names=[name])


class TestReport:
    def test_beyond_float_factorials(self):
        # the squared normalization factors overflow a float from k = 197
        report = build_report(197)
        assert report["m"] == 99
        assert all(report["checks"].values())
        assert report["kernel_dim"] == 1 and report["eigenvalues"][49] == 0.0

    def test_flags_are_the_registry_checks(self):
        ctx = KContext(13)
        expected = {name: checks.PER_K_REGISTRY[name](ctx).ok for name in operators.CHECK_NAMES}
        assert build_report(13)["checks"] == expected


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
        # one off-diagonal entry and its conjugate moved by about one ulp:
        # two band entries differ
        assert not result.ok
        assert result.residual == 2.0

    def test_one_flipped_sign_fails_verify(self, monkeypatch, capsys):
        # the sign of one superdiagonal entry of the second block flips:
        # one band entry differs, so verify exits 3 with a defect of 1
        assemble = operators.assemble_closed_form

        def flipped(k):
            d, dt = assemble(k)
            dt.band[1][2] *= -1
            return d, dt

        monkeypatch.setattr(operators, "assemble_closed_form", flipped)
        assert cli.main(["verify", "-k", "7", "--check", "spectra-coincide"]) == 3
        assert capsys.readouterr().out == "FAIL spectra-coincide k=7 residual=1.000e+00\n"


class TestBandMemory:
    def test_float_checks_build_no_dense_block(self):
        k = 1999
        m = (k + 1) // 2
        ctx = KContext(k)
        tracemalloc.start()
        try:
            names = ("symmetry", "spectra-coincide", "p-eigenvalues", "norm-bound")
            results = [checks.PER_K_REGISTRY[name](ctx) for name in names]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r.ok for r in results)
        assert peak < m * m * 16  # one dense complex128 block


def delta(m):
    """The certificate's relative half-width, 4 m eps."""
    return 4 * m * np.finfo(np.float64).eps


def certified(ctx, route):
    """Whether ctx's eigenvalues pass the count certificate alone
    ("float") or the whole charpoly-eigs check, count and exact tie
    ("both")."""
    return checks._count_certificate(ctx)[0] if route == "float" else check_charpoly_eigs(ctx).ok


class TestCharpolyCertificate:
    @pytest.mark.parametrize("k", [3, 7, 21])
    def test_sign_at_matches_fraction_horner(self, k):
        cp = operators.charpoly_exact(k)
        rng = np.random.default_rng(k)
        short = [float(np.ldexp(rng.integers(-2**16, 2**16), int(e))) for e in rng.integers(-20, 8, 20)]
        for x in [0.0, *rng.normal(scale=30, size=20), *short]:
            value = sum(Fraction(x) ** i * c for i, c in enumerate(cp.coeffs))
            assert cp.sign_at(x) == (value > 0) - (value < 0)

    def test_root_gives_zero_sign(self):
        cp = operators.charpoly_exact(5)  # p5 = x(x^2 - 36)
        assert cp.sign_at(6.0) == cp.sign_at(-6.0) == cp.sign_at(0.0) == 0
        assert cp.sign_at(6.5) == 1 and cp.sign_at(-6.5) == -1

    @pytest.mark.parametrize("k", [5, 31])
    def test_rejects_a_moved_eigenvalue(self, k):
        ctx = KContext(k)
        assert check_charpoly_eigs(ctx).ok
        eigs = ctx.eigenvalues.copy()
        eigs[-1] *= 1 + 1e-11
        ctx.eigenvalues = eigs
        assert not check_charpoly_eigs(ctx).ok

    @pytest.mark.parametrize("route", ["float", "exact", "both"])
    @pytest.mark.parametrize("k", [31, 199, 1001])
    def test_rejects_a_move_of_ten_delta(self, k, route):
        # "exact": the exact charpoly changes sign across the count's
        # bracket of each tested eigenvalue, so the bracket holds a true
        # root, and no longer does once the eigenvalue moves by 10 delta.
        # Each move takes the mirror eigenvalue along, so the spectrum
        # stays antisymmetric; "both" then fails through the count, as
        # the tie's dyadic brackets are wider than 10 delta |x|
        ctx = KContext(k)
        eigs = ctx.eigenvalues
        m = len(eigs)
        tested = (0, m // 3, m - 1)

        def passes():
            if route != "exact":
                return certified(ctx, route)
            lo, hi = checks._count_certificate(ctx)[1:]
            return all(ctx.charpoly.sign_at(lo[i]) * ctx.charpoly.sign_at(hi[i]) <= 0 for i in tested)

        assert passes()
        for i in tested:
            for sign in (-1, 1):
                moved = eigs.copy()
                moved[i] += sign * 10 * delta(m) * abs(moved[i])
                moved[m - 1 - i] = -moved[i]
                ctx.eigenvalues = moved
                assert not passes()

    @pytest.mark.parametrize("route", ["float", "both"])
    @pytest.mark.parametrize("k", [15, 201])
    def test_rejects_swapped_or_duplicated_eigenvalues(self, k, route):
        ctx = KContext(k)
        eigs = ctx.eigenvalues
        i = len(eigs) - 3
        swapped, duplicated = eigs.copy(), eigs.copy()
        swapped[[i, i + 1]] = swapped[[i + 1, i]]
        duplicated[i + 1] = duplicated[i]
        for wrong in (swapped, duplicated):
            ctx.eigenvalues = wrong
            assert not certified(ctx, route)

    @pytest.mark.parametrize("k", [5, 33, 201])
    def test_rejects_a_displaced_zero(self, k):
        ctx = KContext(k)
        eigs = ctx.eigenvalues
        mid = len(eigs) // 2
        assert len(eigs) % 2 == 1 and eigs[mid] == 0.0
        for shift in (10 * checks._ZERO_HALF_WIDTH, -1e-9, 1e-3):
            moved = eigs.copy()
            moved[mid] = shift
            ctx.eigenvalues = moved
            assert not certified(ctx, "float")
            assert not certified(ctx, "both")

    @pytest.mark.parametrize("k", [7, 97])
    def test_exact_tie_rejects_another_charpoly(self, k):
        # q's coefficient below the leading one doubled: the roots move,
        # and the count's brackets of the true eigenvalues no longer hold them
        ctx = KContext(k)
        q, parity = ctx.charpoly.q, ctx.charpoly.parity
        ctx.charpoly = operators.CharPoly((*q[:-2], 2 * q[-2], q[-1]), parity)
        ok, lo, hi = checks._count_certificate(ctx)
        assert ok
        assert not checks._exact_tie(ctx, lo, hi)[0]
        assert not check_charpoly_eigs(ctx).ok

    def test_exact_tie_needs_disjoint_brackets(self):
        # two sign changes prove two roots only across disjoint brackets;
        # these overlap in a gap that holds no eigenvalue, so the count passes
        ctx = KContext(15)
        x = ctx.eigenvalues
        lo, hi = x - 1e-9 * np.abs(x), x + 1e-9 * np.abs(x)
        assert checks._exact_tie(ctx, lo, hi)[0]
        middle = 0.5 * (x[-2] + x[-1])
        hi[-2], lo[-1] = middle * 1.001, middle * 0.999
        assert not checks._exact_tie(ctx, lo, hi)[0]

    def test_count_and_exact_tie_agree_up_to_399(self):
        for k in range(1, 400, 2):
            ctx = KContext(k)
            counted, lo, hi = checks._count_certificate(ctx)
            assert "charpoly" not in vars(ctx)  # the count builds no charpoly
            tied, tie_lo, tie_hi = checks._exact_tie(ctx, lo, hi)
            assert counted and tied, k
            # the dyadic brackets of the tie hold the float brackets
            x = ctx.eigenvalues
            assert np.all(tie_lo <= lo) and np.all(tie_hi >= hi)
            assert checks._worst_margin(x, tie_lo, tie_hi) >= checks._worst_margin(x, lo, hi)

    @pytest.mark.parametrize("k", [1001, 4001])
    def test_float_path_envelope(self, k):
        # the count alone: with the exact tie, k = 4001 takes about 10 s
        ctx = KContext(k)
        ok, lo, hi = checks._count_certificate(ctx)
        assert ok and 0 < checks._worst_margin(ctx.eigenvalues, lo, hi) < 1e-6
        assert "charpoly" not in vars(ctx)
        assert all(r.ok for r in run_checks([k], names=["symmetry", "norm-bound"]))

    def test_squares_beyond_double_precision_fail(self, monkeypatch):
        # the count would round such a square: it is refused, not counted;
        # K_LIMITS keeps every k of the CLI below it
        ctx = KContext(7)
        ctx.eigenvalues
        monkeypatch.setattr(checks, "a_squares", lambda k: np.full((k + 3) // 2, 2**53, dtype=np.int64))
        with pytest.raises(ValueError, match=r"2\*\*53"):
            checks._count_certificate(ctx)
        with pytest.raises(ValueError, match=r"2\*\*53"):
            check_charpoly_eigs(ctx)
