"""Tests for the assembled operator blocks and their spectral data."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from sdirac import checks, operators
from sdirac.operators import (
    DiracMatrix,
    KContext,
    a_coeff,
    a_squares,
    assemble_closed_form,
    assemble_from_definition,
    assembly_matches_exact,
    assembly_mismatch_float,
    charpoly_exact,
    check_commutator,
    definition_coeffs,
    p_diag_closed,
    p_operator,
    signed_det,
    spectrum,
    unnormalized_coeffs,
)
from sdirac.su2 import build_rep

SQRT6 = math.sqrt(6)


class TestACoeff:
    def test_k3_l1(self):
        assert a_coeff(3, 1) == (6, pytest.approx(SQRT6, rel=1e-15))

    @pytest.mark.parametrize("k", [1, 5, 9])
    def test_l0_vanishes(self, k):
        assert a_coeff(k, 0) == (0, 0.0)

    def test_k5(self):
        assert a_coeff(5, 1).square == 16
        assert a_coeff(5, 1).value == 4.0
        assert a_coeff(5, 2).square == 20

    def test_top_index_vanishes(self):
        # l = (k+1)/2 annihilates the second factor
        assert a_coeff(9, 5).square == 0

    def test_range_errors(self):
        with pytest.raises(ValueError):
            a_coeff(3, 3)
        with pytest.raises(ValueError):
            a_coeff(4, 1)


class TestASquares:
    # the one table of the squares, int64, against the scalar a_coeff's
    # Python ints
    def test_equals_a_coeff_for_small_k(self):
        for k in range(1, 400, 2):
            m = (k + 1) // 2
            assert a_squares(k).tolist() == [a_coeff(k, l).square for l in range(m + 1)], k

    @pytest.mark.parametrize("k", [454_045, operators.A_SQUARES_MAX_K])
    def test_equals_a_coeff_at_the_top_and_the_peak(self, k):
        # 2l(m^2 - l^2) peaks at l = m / sqrt(3)
        m = (k + 1) // 2
        peak = round(m / math.sqrt(3))
        squares = a_squares(k)
        assert squares.dtype == np.int64 and squares.shape == (m + 1,)
        for l in (m, *range(peak - 2, peak + 3)):
            assert squares[l].item() == a_coeff(k, l).square, l
        # det-product's int64 ladder form down(l) up(l-1) of the same squares
        down, up = unnormalized_coeffs(k)
        for l in (m - 1, *range(peak - 2, peak + 3)):
            assert (down[l : l + 1] * up[l - 1 : l]).item() == a_coeff(k, l).square, l

    def test_refuses_k_past_int64(self):
        with pytest.raises(ValueError, match="int64"):
            a_squares(operators.A_SQUARES_MAX_K + 2)


class TestClosedForm:
    def test_k1_is_zero_matrix(self):
        d, dt = assemble_closed_form(1)
        assert d.m == 1 and dt.m == 1
        assert np.array_equal(d.entries, np.zeros((1, 1)))
        assert np.array_equal(dt.entries, np.zeros((1, 1)))

    def test_k3_entries(self):
        d, dt = assemble_closed_form(3)
        assert np.allclose(d.entries, [[0, SQRT6], [SQRT6, 0]], atol=1e-15)
        assert np.allclose(dt.entries, [[0, -1j * SQRT6], [1j * SQRT6, 0]], atol=1e-15)

    def test_hermitian_tridiagonal(self):
        for k in (5, 13):
            d, dt = assemble_closed_form(k)
            for mat in (d.entries, dt.entries):
                assert np.array_equal(mat, mat.conj().T)
                assert np.count_nonzero(mat - np.triu(np.tril(mat, 1), -1)) == 0
                assert np.count_nonzero(np.diag(mat)) == 0

    @pytest.mark.parametrize("k", [0, 2, -3])
    def test_rejects_even_or_negative(self, k):
        with pytest.raises(ValueError):
            assemble_closed_form(k)


class TestFirstPrinciples:
    def test_k3_unnormalized_ladder(self):
        (down_d, up_d), (down_dt, up_dt) = definition_coeffs(3)
        # D(L_{3,0}) = 3 L_{3,1};  D(L_{3,1}) = 2 L_{3,0}
        assert down_d.dtype == up_dt.dtype == np.complex128
        assert list(down_d) == [0, 2]
        assert list(up_d) == [3]  # no raising column at l = m-1 = 1
        assert list(down_dt) == [0, -2j]
        assert list(up_dt) == [3j]

    def test_k3_float_ladder(self):
        # the ladder normalized in floats: 2 sqrt(3/2) and 3 sqrt(2/3) are
        # both a_{3,1} = sqrt(6) up to roundoff
        d, dt = assemble_from_definition(3)
        a = np.sqrt(6)
        assert np.allclose(d.entries, [[0, a], [a, 0]], rtol=1e-15, atol=0)
        assert np.allclose(dt.entries, [[0, -1j * a], [1j * a, 0]], rtol=1e-15, atol=0)

    @pytest.mark.parametrize("in_check", [True, False])
    @pytest.mark.parametrize("side,j", [(0, 4), (1, 5)])
    def test_column_off_its_level_is_rejected(self, side, j, in_check):
        # k = 7: row j0 = 4 + l; sub[4] is the lowering entry of l = 1 and
        # sup[5] the raising entry of l = 1.  Doubling an entry of e2 there
        # leaves a part of the column on the other neighbouring level.  The
        # assembly-match check reads its coefficients from the context's rep.
        rep = build_rep(7)
        band = [d.copy() for d in rep.s]
        band[side][j] *= 2
        rep = dataclasses.replace(rep, s=tuple(band))
        ctx = KContext(7)
        ctx.rep = rep
        with pytest.raises(AssertionError, match="adjacent Hermite level"):
            checks.check_assembly(ctx) if in_check else definition_coeffs(7, rep=rep)

    @pytest.mark.parametrize("value", [2**20, 2**53 + 1])
    def test_exact_route_refuses_entries_outside_the_guard(self, value):
        # raise the raising entries of l = 1 at k = 7, R sup[5] and -S sup[5],
        # to ``value``, which keeps the column on its adjacent level.  An
        # operand at 2**20 could make a product round, and 2**53 + 1 rounds
        # on conversion to a double.  The coefficients, and so the
        # assembly-match check, refuse both rather than round.
        rep = build_rep(7)
        r, s = ([d.copy() for d in pair] for pair in (rep.r, rep.s))
        r[1][5], s[1][5] = value, -value
        rep = dataclasses.replace(rep, r=tuple(r), s=tuple(s))
        ctx = KContext(7)
        ctx.rep = rep
        for route in (lambda: definition_coeffs(7, rep=rep), lambda: checks.check_assembly(ctx)):
            with pytest.raises(ValueError, match="outside"):
                route()

    def test_k1_single_cell(self):
        d, dt = assemble_from_definition(1)
        assert np.array_equal(d.entries, np.zeros((1, 1)))
        assert np.array_equal(dt.entries, np.zeros((1, 1)))

    def test_exact_route_checks_the_normalization(self, monkeypatch):
        num, den = operators.scale_sq_ratio(9)
        monkeypatch.setattr(operators, "scale_sq_ratio", lambda k: (num, den + 1))
        assert not assembly_matches_exact(9)

    @pytest.mark.parametrize("k", [1, 3, 5, 9, 17])
    def test_matches_closed_form(self, k):
        assert assembly_mismatch_float(k, definition_coeffs(k), assemble_closed_form(k)) <= 1e-12
        assert assembly_matches_exact(k)

    def test_unnormalized_coeffs(self):
        down, up = unnormalized_coeffs(3)
        assert (down.tolist(), up.tolist()) == ([0, 2], [3, 4])
        assert down.dtype == up.dtype == np.int64
        assert unnormalized_coeffs(9)[0][0] == 0
        with pytest.raises(ValueError):
            unnormalized_coeffs(4)

    @pytest.mark.parametrize("k", [3, 7, 15, 31])
    def test_coefficient_product_identity(self, k):
        # down(l) * up(l-1) recovers the squared off-diagonal
        down, up = unnormalized_coeffs(k)
        for l in range(1, (k - 1) // 2 + 1):
            assert down[l] * up[l - 1] == a_coeff(k, l).square


class TestExactRouteAtTheTopOfItsRange:
    # k = 1,048,575, the largest k assembly-match takes: the int64 products
    # of the exact route reach k^3 / 8, about 2**57
    K = checks.K_LIMITS["assembly-match"]

    def test_assembly_matches_exact(self, monkeypatch):
        coeffs = definition_coeffs(self.K)
        assert assembly_matches_exact(self.K, coeffs=coeffs)
        # the largest products change with den at the last level, so a
        # wrapped product would show here
        num, den = operators.scale_sq_ratio(self.K)
        den[-1] += 1
        monkeypatch.setattr(operators, "scale_sq_ratio", lambda k: (num, den))
        assert not assembly_matches_exact(self.K, coeffs=coeffs)

    def test_p_diag_closed(self):
        k, m = self.K, (self.K + 1) // 2
        closed = p_diag_closed(k)
        assert len(closed) == m
        for l in (0, m // 2, m - 1):
            want = (k + 1) ** 2 - 3 * (2 * l + 1) ** 2 - 1
            assert closed[l] == want == 2 * (a_coeff(k, l + 1).square - a_coeff(k, l).square)
            assert type(closed[l]) is int


class TestCharPoly:
    def test_small_k(self):
        assert charpoly_exact(1).coeffs == (0, 1)
        assert charpoly_exact(3).coeffs == (-6, 0, 1)
        assert charpoly_exact(5).coeffs == (0, -36, 0, 1)

    def test_stores_the_parity_half(self):
        # p = x^parity q(x^2): only q and the parity are stored
        assert charpoly_exact(3) == operators.CharPoly((-6, 1), 0)
        assert charpoly_exact(5) == operators.CharPoly((-36, 1), 1)
        assert [charpoly_exact(k).m for k in (1, 3, 5, 7)] == [1, 2, 3, 4]

    def test_monic(self):
        for k in (7, 21, 49):
            assert charpoly_exact(k).coeffs[-1] == 1

    @pytest.mark.parametrize("k", list(range(1, 32, 2)))
    def test_parity_structure(self, k):
        cp = charpoly_exact(k)
        for i, c in enumerate(cp.coeffs):
            if (i - cp.m) % 2 != 0:
                assert c == 0

    @pytest.mark.parametrize(
        "k, digest",
        [
            (1001, "765e20ed5d3bb7eff1858cc66c1dfa05cde71137f091e67212023890194513cc"),
            (1999, "71afb26b94c776620f9f53ffa838b21daa93d2187c5be959078412ccc5f04782"),
        ],
    )
    def test_large_k_coefficients_are_pinned(self, k, digest):
        # sha256 of the coefficients in hex, odd m = 501 and even m = 1000
        coeffs = ",".join(map(hex, charpoly_exact(k).coeffs))
        assert hashlib.sha256(coeffs.encode()).hexdigest() == digest

    def test_matches_numpy_charpoly(self):
        # float cross-check against the characteristic polynomial of the
        # assembled matrix
        for k in (7, 11):
            cp = charpoly_exact(k)
            d, _ = assemble_closed_form(k)
            ref = np.poly(d.entries.real.astype(float))[::-1]  # ascending
            exact = np.array(cp.coeffs, dtype=float)
            assert np.allclose(ref, exact, rtol=0, atol=1e-10 * np.max(np.abs(exact)))


class TestSpectrum:
    def test_k3(self):
        eigs = spectrum(assemble_closed_form(3)[0])
        assert np.allclose(eigs, [-SQRT6, SQRT6], atol=1e-12)

    def test_k5(self):
        eigs = spectrum(assemble_closed_form(5)[0])
        assert np.allclose(eigs, [-6, 0, 6], atol=1e-10)

    def test_k1(self):
        assert spectrum(assemble_closed_form(1)[0]).tolist() == [0.0]

    def test_second_block_same_spectrum(self):
        for k in (9, 21):
            d, dt = assemble_closed_form(k)
            assert np.array_equal(spectrum(d), spectrum(dt))

    def test_rejects_non_hermitian(self):
        zero = np.zeros(2, dtype=complex)
        asymmetric = {-1: np.array([2.0 + 0j]), 0: zero, 1: np.array([1.0 + 0j])}
        complex_diagonal = {-1: np.array([1j]), 0: np.array([0, 1e-6j]), 1: np.array([-1j])}
        for band in (asymmetric, complex_diagonal):
            with pytest.raises(ValueError, match="Hermitian"):
                spectrum(DiracMatrix(3, band))
        assert np.allclose(spectrum(DiracMatrix(3, {-1: np.array([1j]), 0: zero, 1: np.array([-1j])})), [-1, 1])

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, np.inf)])
    def test_rejects_non_finite_entries(self, offset, value):
        # nan and inf fail the Hermitian tolerance, even against themselves
        band = {-1: np.array([1j]), 0: np.zeros(2, dtype=complex), 1: np.array([-1j])}
        band[offset] = np.full(band[offset].shape, value, dtype=complex)
        if offset:
            band[-offset] = band[offset].conj()
        with pytest.raises(ValueError, match="Hermitian"):
            spectrum(DiracMatrix(3, band))

    def test_rejects_nonzero_diagonal(self):
        # Hermitian, but the eigensolver takes only a zero diagonal
        band = {-1: np.array([1j]), 0: np.array([0, 0.5 + 0j]), 1: np.array([-1j])}
        with pytest.raises(ValueError, match="diag must be zero"):
            spectrum(DiracMatrix(3, band))

    def test_one_ulp_of_asymmetry_fails(self):
        # the mirrored spectrum is exactly antisymmetric; symmetry requires 0
        ctx = KContext(31)
        eigs = ctx.eigenvalues.copy()
        top = eigs[-1]
        eigs[-1] = np.nextafter(top, np.inf)
        ctx.eigenvalues = eigs
        result = checks.check_symmetry(ctx)
        assert not result.ok and result.residual == np.spacing(top)


class TestDiracMatrix:
    @pytest.mark.parametrize("k", list(range(1, 42, 2)) + [999])
    def test_entries_equal_dense_reference(self, k):
        m = (k + 1) // 2
        d_ref = np.zeros((m, m), dtype=complex)
        dt_ref = np.zeros((m, m), dtype=complex)
        for l in range(1, m):
            v = a_coeff(k, l).value
            d_ref[l - 1, l] = d_ref[l, l - 1] = v
            dt_ref[l - 1, l], dt_ref[l, l - 1] = -1j * v, 1j * v
        d, dt = assemble_closed_form(k)
        assert np.array_equal(d.entries, d_ref) and np.array_equal(dt.entries, dt_ref)

    def test_rejects_wrong_band_length(self):
        zero = np.zeros(3, dtype=complex)
        good = {-1: np.ones(2, dtype=complex), 0: zero, 1: np.ones(2, dtype=complex)}
        assert DiracMatrix(5, good).m == 3
        bad = [{**good, o: np.zeros(length, dtype=complex)} for o, length in ((-1, 3), (0, 2), (1, 1), (2, 1))]
        bad.append({o: good[o] for o in (0, 1)})
        for band in bad:
            with pytest.raises(ValueError, match="of lengths 2, 3, 2"):
                DiracMatrix(5, band)


class TestUnitaryEquivalence:
    @pytest.mark.parametrize("k", [1, 3, 5, 31, 99])
    def test_exact_conjugation(self, k):
        result = checks.check_coincide(KContext(k))
        assert result.ok and result.residual == 0.0


class TestPOperator:
    def test_small_k(self):
        assert p_operator(1) == (0,)
        assert p_operator(3) == (12, -12)
        assert p_operator(5) == (32, 8, -40)

    @pytest.mark.parametrize("k", [7, 19, 45])
    def test_trace_free(self, k):
        # sum over l of the diagonal vanishes (commutator trace)
        assert sum(p_operator(k)) == 0

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_fail_without_raising(self, offset, bad):
        # no nan or inf rounds to a closed-form integer
        d, dt = assemble_closed_form(5)
        d.band[offset][0] = bad
        with np.errstate(invalid="ignore"):  # inf * 0 in the band product
            assert check_commutator((d, dt), p_diag_closed(5))[0] is False
        assert check_commutator(assemble_closed_form(5), p_diag_closed(5))[0] is True

    def test_closed_form_off_by_one_fails(self):
        blocks = assemble_closed_form(5)
        for l in range(3):
            closed = list(p_diag_closed(5))
            closed[l] += 1
            assert check_commutator(blocks, closed)[0] is False

    @pytest.mark.parametrize("k", [227023, 1048575])
    def test_passes_where_entries_round_off_the_integers(self, k):
        # from k = 227,023 the band product's entries pass 2**52 and may
        # round to an integer next to the closed form: by 1 at this k, by
        # 76 at 1,048,575, within the scaled bound
        ok, off = check_commutator(assemble_closed_form(k), p_diag_closed(k))
        assert ok and off == 0.0

    def test_entry_off_by_twice_the_bound_fails(self):
        k = 227023
        blocks = assemble_closed_form(k)
        s = np.abs(blocks[0].band[1]) ** 2
        bound = 16 * 2.0**-53 * (np.append(0.0, s) + np.append(s, 0.0))
        for l in (0, int(np.argmax(bound)), len(bound) - 1):
            for sign in (-1, 1):
                closed = list(p_diag_closed(k))
                closed[l] += sign * math.ceil(2 * bound[l])
                assert check_commutator(blocks, closed)[0] is False

    def test_one_ulp_off_a_block_entry_fails(self):
        # one superdiagonal entry of the first block and its mirror one ulp
        # up: the two products of the bracket no longer cancel, and the
        # off-diagonal residual, 4.5e-13 here, is not the exact 0 required
        ctx = KContext(31)
        d, dt = ctx.blocks
        band = {o: diag.copy() for o, diag in d.band.items()}
        for o in (-1, 1):
            band[o][5] = np.nextafter(band[o][5].real, np.inf)
        ctx.blocks = (DiracMatrix(31, band), dt)
        result = checks.check_p_eigenvalues(ctx)
        assert not result.ok and result.residual == pytest.approx(4.547e-13, rel=1e-3)


class TestKernelAndDeterminant:
    @pytest.mark.parametrize("k,expected", [(1, 1), (3, 0), (5, 1), (7, 0)])
    def test_kernel_examples(self, k, expected):
        ctx = KContext(k)
        assert int(ctx.det == 0) == expected and checks.check_kernel_rule(ctx).ok

    def test_kernel_parity_sweep(self):
        for k in range(1, 100, 2):
            assert int(signed_det(k) == 0) == ((k + 1) // 2) % 2
            assert checks.check_kernel_rule(KContext(k)).ok

    def test_abs_det_examples(self):
        # the products of the odd-indexed squares a_{k,1}^2 a_{k,3}^2 ...
        assert abs(signed_det(3)) == 6
        assert abs(signed_det(7)) == 30 * 42
        assert abs(signed_det(11)) == 70 * 162 * 110

    def test_signed_det(self):
        assert signed_det(3) == -6  # size-2 zero-diagonal block
        assert signed_det(7) == 1260
        assert signed_det(5) == 0

    @staticmethod
    def continuant(k):
        # reference: D_0 = 1, D_1 = 0, D_j = -a_{k,j-1}^2 D_(j-2), left to
        # right, on the Python-int squares of a_coeff (an int64 square would
        # overflow against the growing continuant)
        prev, det = 1, 0
        for l in range(1, (k + 1) // 2):
            prev, det = det, -a_coeff(k, l).square * prev
        return det

    def test_signed_det_is_the_left_to_right_continuant(self):
        for k in [*range(1, 400, 2), 131_071]:
            assert signed_det(k) == self.continuant(k), k

    def test_signed_det_is_the_charpoly_constant_term(self):
        # the O(m) continuant against (-1)^m p(0) of the exact charpoly
        for k in [*range(1, 400, 2), 1001, 1999]:
            cp = charpoly_exact(k)
            assert signed_det(k) == (-1) ** cp.m * cp.coeffs[0], k

    def test_determinant_routes_build_no_charpoly(self, monkeypatch):
        def refused(k):
            raise AssertionError("charpoly built")

        monkeypatch.setattr(operators, "charpoly_exact", refused)
        ctx = KContext(2991)
        assert signed_det(2991) == ctx.det != 0 and checks.check_kernel_rule(ctx).ok
        assert KContext(2989).det == 0 and checks.check_kernel_rule(KContext(2989)).ok


class TestNormGrowth:
    def test_small_sweep(self):
        # the spectral radius of each first block, and a_{k,1} >= (k-1)/2
        ctxs = {k: KContext(k) for k in (1, 3, 5)}
        radius = {k: float(np.max(np.abs(c.eigenvalues))) for k, c in ctxs.items()}
        assert all(checks.check_norm_bound(c).ok for c in ctxs.values())
        assert radius[1] == 0.0 and a_coeff(1, 1).value == 0.0
        assert radius[3] == pytest.approx(SQRT6, abs=1e-12)
        assert a_coeff(3, 1).value == pytest.approx(SQRT6, rel=1e-15)
        assert radius[5] == pytest.approx(6, abs=1e-10)
        assert a_coeff(5, 1).value == 4.0
        assert all(a_coeff(k, 1).value >= (k - 1) // 2 for k in ctxs)

    def test_bound_predicate(self):
        # a_{5,1} = 4: the spectral radius 6 passes with slack 2/5, and one
        # more than 1e-9 (1 + 4) below 4 fails; the slack is the residual
        cases = [(6.0, True, 0.4), (4.0, True, 0.0), (4.0 - 4.9e-9, True, -9.8e-10), (4.0 - 5.1e-9, False, -1.02e-9),
                 (3.9, False, -0.02)]
        for radius, ok, slack in cases:
            ctx = KContext(5)
            ctx.eigenvalues = np.array([-radius, 0.0, radius])
            result = checks.check_norm_bound(ctx)
            assert result.ok == ok and result.residual == pytest.approx(slack, rel=1e-6, abs=0.0), radius
