"""Tests for the su(2) generator matrices on homogeneous polynomials."""

import dataclasses

import numpy as np
import pytest

from sdirac.checks import check_su2_bracket
from sdirac.operators import KContext
from sdirac.su2 import RepMatrices, bracket_defect, build_rep, check_bracket


def replaced(rep, field, side, j, value):
    """``rep`` with entry j of side ``side`` (0 sub, 1 sup) of the band
    pair ``field`` ("r" or "s") set to ``value``."""
    pair = [d.copy() for d in getattr(rep, field)]
    pair[side][j] = value
    return dataclasses.replace(rep, **{field: tuple(pair)})


class TestBuildRep:
    def test_k1_weight_matrix(self):
        rep = build_rep(1)
        assert rep.w.tolist() == [-1, 1] and rep.w.dtype == np.int64
        assert rep.as_arrays()[0][0, 1] == 0

    def test_k1_raising_lowering(self):
        e1 = build_rep(1).as_arrays()[1]
        # e1 p_{1,0} = -p_{1,1} and e1 p_{1,1} = +p_{1,0}: column c of e1
        # holds the image of p_{1,c}
        assert e1[:, 0].tolist() == [0, -1] and e1[:, 1].tolist() == [1, 0]

    def test_k0_trivial(self):
        rep = build_rep(0)
        assert rep.w.tolist() == [0]
        assert all(d.size == 0 for d in (*rep.r, *rep.s))
        assert all(np.array_equal(a, np.zeros((1, 1))) for a in rep.as_arrays())

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            build_rep(-1)

    def test_float_view(self):
        e0, e1, e2 = build_rep(1).as_arrays()
        assert np.array_equal(e0, np.diag([-1j, 1j]))
        assert np.array_equal(e1, np.array([[0, 1], [-1, 0]], dtype=complex))
        assert np.array_equal(e2, np.array([[0, -1j], [-1j, 0]]))

    @pytest.mark.parametrize("k", range(10))
    def test_bands_match_dense_formulas(self, k):
        # e0 p_j = i(2j-k) p_j, e1 p_j = (j-k) p_(j+1) + j p_(j-1),
        # e2 p_j = i(j-k) p_(j+1) - i j p_(j-1); column j is the image of p_j
        e0, e1, e2 = (np.zeros((k + 1, k + 1), dtype=complex) for _ in range(3))
        for j in range(k + 1):
            e0[j, j] = 1j * (2 * j - k)
            if j < k:
                e1[j + 1, j], e2[j + 1, j] = j - k, 1j * (j - k)
            if j > 0:
                e1[j - 1, j], e2[j - 1, j] = j, -1j * j
        rep = build_rep(k)
        for a, b in zip(rep.as_arrays(), (e0, e1, e2)):
            assert np.array_equal(a, b)
        assert all(d.dtype == np.int64 for band in rep.bands() for d in band.values())


class TestBrackets:
    @pytest.mark.parametrize("k", [1, 7])
    def test_examples(self, k):
        assert check_bracket(build_rep(k), mode="exact")

    @pytest.mark.parametrize("k", range(8))
    def test_dense_complex_brackets(self, k):
        # the complex matrices (i W, R, i S) satisfy the brackets, so the
        # integer identities [W,R] = 2S, [W,S] = 2R, [R,S] = 2W carry the
        # factors of i (i * i = -1) correctly
        e0, e1, e2 = build_rep(k).as_arrays()
        assert np.array_equal(e0 @ e1 - e1 @ e0, 2 * e2)
        assert np.array_equal(e0 @ e2 - e2 @ e0, -2 * e1)
        assert np.array_equal(e1 @ e2 - e2 @ e1, 2 * e0)

    def test_all_k_up_to_31(self):
        for k in range(32):
            rep = build_rep(k)
            assert check_bracket(rep, mode="exact"), k
            assert check_bracket(rep, mode="float"), k

    def test_detects_broken_rep(self):
        rep = build_rep(1)
        broken = RepMatrices(1, rep.w, rep.r, tuple(np.zeros_like(d) for d in rep.s))
        assert not check_bracket(broken, mode="exact")
        assert not check_bracket(broken, mode="float")

    @pytest.mark.parametrize("k", [1, 6])
    def test_detects_scaled_complement(self, k):
        # doubling e1 and e2 keeps [e0,e1] = 2 e2 and [e0,e2] = -2 e1 and
        # breaks only [e1,e2] = 2 e0
        rep = build_rep(k)
        r, s = (tuple(2 * d for d in pair) for pair in (rep.r, rep.s))
        broken = RepMatrices(k, rep.w, r, s)
        assert not check_bracket(broken, mode="exact")
        assert not check_bracket(broken, mode="float")
        # [2R, 2S] - 2W = 6W, largest at |W| = k
        assert bracket_defect(broken) == 6 * k

    @pytest.mark.parametrize("k", [2, 7])
    @pytest.mark.parametrize("which", ["e0", "e1-sub", "e2-sup"])
    def test_detects_one_wrong_entry(self, k, which):
        rep = build_rep(k)
        if which == "e0":
            w = rep.w.copy()
            w[-1] += 1
            broken = dataclasses.replace(rep, w=w)
        elif which == "e1-sub":
            broken = replaced(rep, "r", 0, 0, rep.r[0][0] + 1)
        else:
            broken = replaced(rep, "s", 1, k - 1, rep.s[1][k - 1] + 1)
        assert not check_bracket(broken, mode="exact")
        assert not check_bracket(broken, mode="float")
        assert bracket_defect(broken) > 0

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            check_bracket(build_rep(1), mode="symbolic")

    def test_int64_overflow_is_refused(self):
        # c = 2**63 - 1 has c*c = 1 modulo 2**64, so R and S scaled by c keep
        # every bracket identity in wrapped int64 arithmetic, while
        # [cR, cS] - 2W = 2(c*c - 1)W.  4 c (c + 1) reaches 2**63, so the
        # int64 route refuses the scaled rep, a defect of inf, instead of
        # passing it; it raises no error.
        c = 2**63 - 1
        rep = build_rep(1)
        r, s = (tuple(c * d for d in pair) for pair in (rep.r, rep.s))
        broken = RepMatrices(1, rep.w, r, s)
        assert all(d.dtype == np.int64 for d in (*r, *s))
        assert bracket_defect(broken) == np.inf and not check_bracket(broken)
        # M = 1518500249 is the largest modulus with 4 M (M + 1) < 2**63:
        # weights -+M give [R, S] - 2W = 2W_1 - 2W, of modulus 2(M - 1)
        big = 1518500249
        assert 4 * big * (big + 1) < 2**63 <= 4 * (big + 1) * (big + 2)
        edge = RepMatrices(1, np.array([-big, big]), rep.r, rep.s)
        assert bracket_defect(edge) == 2 * (big - 1)
        assert bracket_defect(RepMatrices(1, edge.w * (big + 1) // big, rep.r, rep.s)) == np.inf

    def test_entry_past_the_bound_fails_su2_bracket(self):
        # the refusal is the check's verdict, residual inf, not an error
        rep = build_rep(7)
        sup = rep.r[1].copy()
        sup[-1] = 2**53 + 1
        ctx = KContext(7)
        ctx.rep = dataclasses.replace(rep, r=(rep.r[0], sup))
        result = check_su2_bracket(ctx)
        assert (result.ok, result.residual) == (False, np.inf)

    def test_int64_route_below_the_bound(self):
        # the largest stored modulus M = k keeps 4 M (M + 1) far below 2**63
        rep = build_rep(99)
        assert bracket_defect(rep) == 0 and type(bracket_defect(rep)) is np.int64


class TestStructure:
    @pytest.mark.parametrize("k", [1, 2, 5, 12, 31])
    def test_weights_simple_and_diagonal(self, k):
        e0 = build_rep(k).as_arrays()[0]
        assert np.array_equal(np.diag(e0), 1j * (2 * np.arange(k + 1) - k))
        assert np.count_nonzero(e0 - np.diag(np.diag(e0))) == 0
        assert len(set(np.diag(e0).tolist())) == k + 1

    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_e1_real_e2_imaginary_tridiagonal(self, k):
        _, e1, e2 = build_rep(k).as_arrays()
        off_band = np.abs(np.subtract.outer(np.arange(k + 1), np.arange(k + 1))) != 1
        assert not e1[off_band].any() and not e2[off_band].any()
        assert not e1.imag.any() and not e2.real.any()
