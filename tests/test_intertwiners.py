"""Tests for the equivariant-map spaces and their normalization."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from sdirac import checks
from sdirac.checks import check_equivariance, check_hom_oracle
from sdirac.cli import main
from sdirac.hermite import weight_on_Wl
from sdirac.intertwine import equivariance_residual, hom_space, hom_space_oracle, scale_sq_ratio
from sdirac.operators import KContext
from sdirac.su2 import build_rep


def dense_nullity(a) -> int:
    """Reference: textbook dense Gaussian elimination over all columns."""
    rows = [list(row) for row in a]
    n_cols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            if not rows[r][col]:
                continue
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return n_cols - rank


def with_wrong_weight(k: int, j: int):
    """The rep of degree k with weight W[j] replaced by its neighbour's."""
    rep = build_rep(k)
    w = rep.w.copy()
    w[j] = 2 * j - k + 2
    return dataclasses.replace(rep, w=w)


class TestHomSpace:
    def test_k3_l0_generator(self):
        # the generator's support (k+1)/2 + l = 2: p_{3,2} -> h_0, whose
        # weight 2 * 2 - 3 is that of h_0
        assert hom_space(3, 0) == 1
        assert build_rep(3).w[2] == weight_on_Wl(0) == 1
        assert equivariance_residual(3, 0)

    def test_even_k_trivial(self):
        assert hom_space(2, 0) == 0

    def test_l_out_of_window(self):
        assert hom_space(3, 2) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            hom_space(-1, 0)
        with pytest.raises(ValueError):
            hom_space(3, -1)


class TestOracle:
    @pytest.mark.parametrize(
        "k,l,expected", [(3, 1, 1), (5, 3, 0), (4, 0, 0), (3, 0, 1), (21, 10, 1)]
    )
    def test_examples(self, k, l, expected):
        assert hom_space_oracle(k, l) == expected

    def test_matches_weight_matching_small_range(self):
        for k in range(10):
            for l in range(k + 3):
                assert hom_space(k, l) == hom_space_oracle(k, l), (k, l)

    def test_matches_dense_elimination(self):
        # the nullity of the dense (e0^T - i w I), by elimination, for odd
        # and even k
        for k in range(22):
            rep = build_rep(k)
            e0 = rep.as_arrays()[0].tolist()
            for l in range(k + 3):
                w = 1j * weight_on_Wl(l)
                system = [
                    [e0[c][r] - (w if r == c else 0) for c in range(k + 1)]
                    for r in range(k + 1)
                ]
                assert hom_space_oracle(k, l, rep=rep) == dense_nullity(system), (k, l)

    @pytest.mark.parametrize("j", [5, 7, 9])
    def test_one_wrong_weight_fails_oracle_and_equivariance(self, j):
        # j is the support of h_(j-5) at k = 9; its weight moves onto the
        # next one, so h_(j-5) finds no weight and h_(j-4) two
        k = 9
        ctx = KContext(k)
        ctx.rep = with_wrong_weight(k, j)
        assert hom_space_oracle(k, j - 5, rep=ctx.rep) == 0
        assert not check_hom_oracle(ctx).ok
        # the two l that move, h_(j-5) and h_(j-4), as counted defects
        assert check_hom_oracle(ctx).residual == 2.0
        assert check_equivariance(ctx).residual == 1.0 and not check_equivariance(ctx).ok


def factorial_scale_sq(k: int, l: int) -> Fraction:
    """Reference: ((k+1)/2 + l)! ((k-1)/2 - l)! / (2^l l!), the squared
    factor that rescales the canonical generator of (k, l)."""
    return Fraction(math.factorial((k + 1) // 2 + l) * math.factorial((k - 1) // 2 - l), 2**l * math.factorial(l))


class TestNormalize:
    @pytest.mark.parametrize(
        "k,l,scale_sq",
        [(1, 0, 1), (3, 0, 2), (3, 1, 3), (7, 2, Fraction(math.factorial(6), 2**2 * 2))],
    )
    def test_scales(self, k, l, scale_sq):
        # scale_sq(0) times the first l ratios gives scale_sq(l)
        num, den = scale_sq_ratio(k)
        chained = factorial_scale_sq(k, 0) * math.prod(Fraction(a, b) for a, b in zip(num[:l], den[:l]))
        assert chained == factorial_scale_sq(k, l) == scale_sq

    def test_ratio_matches_factorials(self):
        for k in range(1, 42, 2):
            scale_sq = [factorial_scale_sq(k, l) for l in range((k + 1) // 2)]
            num, den = scale_sq_ratio(k)
            assert len(num) == len(den) == len(scale_sq) - 1
            for l in range(1, (k + 1) // 2):
                assert Fraction(num[l - 1], den[l - 1]) == scale_sq[l] / scale_sq[l - 1], (k, l)


class TestDimensions:
    @pytest.mark.parametrize("k,expected", [(3, 8), (1, 2), (2, 0), (9, 50)])
    def test_examples(self, k, expected):
        # the invariant block of V_k (x) W: k + 1 copies of each line h_l
        # with a nonzero equivariant map
        assert (k + 1) * sum(hom_space(k, l) for l in range(k + 2)) == expected

    def test_basis_count_for_odd_k(self):
        for k in range(1, 22, 2):
            assert sum(hom_space(k, l) for l in range(k + 1)) == (k + 1) // 2

    def test_extra_dimension_fails_hom_dim_with_a_residual(self, monkeypatch, capsys):
        # one l past the window, l = k + 1, gains a map: one dimension too
        # many, an exact defect of 1
        monkeypatch.setattr(checks, "hom_space", lambda k, l: hom_space(k, l) + (l == k + 1))
        assert main(["verify", "-k", "7", "--check", "hom-dim"]) == 3
        assert capsys.readouterr().out == "FAIL hom-dim k=7 residual=1.000e+00\n"


class TestArrays:
    def test_array_calls_match_scalar_calls(self):
        # over each check's range of l: l <= k + 2 for hom-oracle, which
        # holds the l <= k + 1 of hom-dim, and l <= (k - 1)/2 for equivariance
        for k in range(1, 100, 2):
            rep = build_rep(k)
            ls, n = np.arange(k + 3), k + 3
            assert hom_space(k, ls).tolist() == [hom_space(k, l) for l in range(n)]
            assert hom_space_oracle(k, ls, rep=rep).tolist() == [hom_space_oracle(k, l, rep=rep) for l in range(n)]
            assert weight_on_Wl(ls).tolist() == [weight_on_Wl(l) for l in range(n)]
            ls, n = ls[: (k + 1) // 2], (k + 1) // 2
            scalars = [equivariance_residual(k, l, rep=rep) for l in range(n)]
            assert equivariance_residual(k, ls, rep=rep).tolist() == scalars

    def test_scalar_calls_return_python_scalars(self):
        rep = build_rep(9)
        assert type(hom_space(9, 2)) is int and type(hom_space_oracle(9, 2, rep=rep)) is int
        assert type(equivariance_residual(9, 2, rep=rep)) is bool

    def test_empty_l_gives_no_dimensions(self):
        # an empty list, which numpy reads as float, selects no l
        for l in ([], np.array([], dtype=np.int64)):
            dims = hom_space_oracle(7, l)
            assert dims.dtype == np.int64 and dims.shape == (0,)

    def test_empty_l_gives_no_residuals(self):
        for l in ([], np.array([], dtype=np.int64)):
            holds = equivariance_residual(7, l)
            assert holds.dtype == np.bool_ and holds.shape == (0,)

    def test_array_calls_reject_what_scalar_calls_reject(self):
        with pytest.raises(ValueError):
            hom_space(3, np.array([0, -1]))
        with pytest.raises(ValueError):
            hom_space_oracle(3, np.array([0, -1]))
        with pytest.raises(ValueError):
            equivariance_residual(3, np.array([0, 2]))


class TestEquivariance:
    def test_full_identity_not_just_dimension(self):
        for k in range(1, 12, 2):
            for l in range((k - 1) // 2 + 1):
                assert equivariance_residual(k, l), (k, l)

    def test_rejects_trivial_pair(self):
        with pytest.raises(ValueError):
            equivariance_residual(3, 2)
