"""Tests for the su(2) generator matrices on homogeneous polynomials."""

import numpy as np
import pytest

from sdirac.exact import QQi
from sdirac.su2 import RepMatrices, build_rep, check_bracket


class TestBuildRep:
    def test_k1_weight_matrix(self):
        rep = build_rep(1)
        assert rep.e0 == (QQi(0, -1), QQi(0, 1))
        assert rep.dense()[0][0][1] == QQi(0, 0)

    def test_k1_raising_lowering(self):
        e1 = build_rep(1).dense()[1]
        # e1 p_{1,0} = -p_{1,1} and e1 p_{1,1} = +p_{1,0}: column c of e1
        # holds the image of p_{1,c}
        images = [tuple(e1[r][c] for r in range(2)) for c in range(2)]
        assert images == [(QQi(0, 0), QQi(-1, 0)), (QQi(1, 0), QQi(0, 0))]

    def test_k0_trivial(self):
        rep = build_rep(0)
        assert rep.e0 == (QQi(0, 0),)
        assert rep.e1 == rep.e2 == ((), ())
        assert rep.dense() == (((QQi(0, 0),),),) * 3

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
        got = build_rep(k).as_arrays()
        for a, b in zip(got, (e0, e1, e2)):
            assert np.array_equal(a, b)
        assert all(
            np.array_equal(np.array(m, dtype=complex), a)
            for m, a in zip(build_rep(k).dense(), got)
        )


class TestBrackets:
    @pytest.mark.parametrize("k", [1, 7])
    def test_examples(self, k):
        assert check_bracket(build_rep(k), mode="exact")

    def test_all_k_up_to_31(self):
        for k in range(32):
            rep = build_rep(k)
            assert check_bracket(rep, mode="exact"), k
            assert check_bracket(rep, mode="float", tol=1e-13), k

    def test_detects_broken_rep(self):
        rep = build_rep(1)
        zero = tuple(tuple(QQi(0, 0) for _ in diag) for diag in rep.e2)
        broken = RepMatrices(1, rep.e0, rep.e1, zero)
        assert not check_bracket(broken, mode="exact")
        assert not check_bracket(broken, mode="float")

    @pytest.mark.parametrize("k", [1, 6])
    def test_detects_scaled_complement(self, k):
        # doubling e1 and e2 keeps [e0,e1] = 2 e2 and [e0,e2] = -2 e1 and
        # breaks only [e1,e2] = 2 e0
        rep = build_rep(k)
        e1, e2 = (tuple(tuple(2 * x for x in diag) for diag in band) for band in (rep.e1, rep.e2))
        broken = RepMatrices(k, rep.e0, e1, e2)
        assert not check_bracket(broken, mode="exact")
        assert not check_bracket(broken, mode="float")

    @pytest.mark.parametrize("k", [2, 7])
    @pytest.mark.parametrize("which", ["e0", "e1-sub", "e2-sup"])
    def test_detects_one_wrong_entry(self, k, which):
        rep = build_rep(k)
        bump = QQi(0, 1)
        if which == "e0":
            broken = RepMatrices(k, rep.e0[:-1] + (rep.e0[-1] + bump,), rep.e1, rep.e2)
        elif which == "e1-sub":
            sub, sup = rep.e1
            broken = RepMatrices(k, rep.e0, ((sub[0] + 1,) + sub[1:], sup), rep.e2)
        else:
            sub, sup = rep.e2
            broken = RepMatrices(k, rep.e0, rep.e1, (sub, sup[:-1] + (sup[-1] + bump,)))
        assert not check_bracket(broken, mode="exact")
        assert not check_bracket(broken, mode="float")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            check_bracket(build_rep(1), mode="symbolic")


class TestStructure:
    @pytest.mark.parametrize("k", [1, 2, 5, 12, 31])
    def test_weights_simple_and_diagonal(self, k):
        e0 = build_rep(k).dense()[0]
        weights = set()
        for r in range(k + 1):
            for c in range(k + 1):
                if r == c:
                    assert e0[r][c] == QQi(0, 2 * r - k)
                    weights.add(2 * r - k)
                else:
                    assert not e0[r][c]
        assert len(weights) == k + 1

    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_e1_real_e2_imaginary_tridiagonal(self, k):
        _, e1, e2 = build_rep(k).dense()
        for r in range(k + 1):
            for c in range(k + 1):
                if abs(r - c) != 1:
                    assert not e1[r][c]
                    assert not e2[r][c]
                else:
                    assert e1[r][c].im == 0
                    assert e2[r][c].re == 0
