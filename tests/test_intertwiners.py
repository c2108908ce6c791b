"""Tests for the equivariant-map spaces and their normalization."""

import dataclasses
import math
from fractions import Fraction

import pytest

from sdirac.checks import check_equivariance, check_hom_oracle
from sdirac.exact import QQi
from sdirac.hermite import weight_on_Wl
from sdirac.intertwine import (
    Intertwiner,
    dim_invariant_space,
    equivariance_residual,
    hom_space,
    hom_space_oracle,
    normalize,
    scale_sq_ratio,
)
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
    """The rep of degree k with e0[j] replaced by its neighbour's weight."""
    rep = build_rep(k)
    e0 = list(rep.e0)
    e0[j] = QQi(0, 2 * j - k + 2)
    return dataclasses.replace(rep, e0=tuple(e0))


class TestHomSpace:
    def test_k3_l0_generator(self):
        dim, gen = hom_space(3, 0)
        assert dim == 1
        assert gen == Intertwiner(3, 0)
        assert gen.support == 2  # p_{3,2} -> h_0

    def test_even_k_trivial(self):
        assert hom_space(2, 0) == (0, None)

    def test_l_out_of_window(self):
        assert hom_space(3, 2) == (0, None)

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
                assert hom_space(k, l)[0] == hom_space_oracle(k, l), (k, l)

    def test_matches_dense_elimination(self):
        # the nullity of the dense (e0^T - w I), by elimination, for odd and
        # even k
        for k in range(22):
            rep = build_rep(k)
            e0 = rep.dense()[0]
            for l in range(k + 3):
                w = weight_on_Wl(l)
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
        assert not check_equivariance(ctx).ok


class TestNormalize:
    @pytest.mark.parametrize(
        "k,l,scale_sq",
        [(1, 0, 1), (3, 0, 2), (3, 1, 3), (7, 2, Fraction(math.factorial(6), 2**2 * 2))],
    )
    def test_scales(self, k, l, scale_sq):
        norm = normalize(hom_space(k, l)[1])
        assert norm.scale_sq == scale_sq
        assert isinstance(norm.scale_sq, Fraction)

    def test_rejects_invalid_pair(self):
        with pytest.raises(ValueError):
            normalize(Intertwiner(2, 0))

    def test_ratio_matches_factorials(self):
        for k in range(1, 42, 2):
            scale_sq = [normalize(Intertwiner(k, l)).scale_sq for l in range((k + 1) // 2)]
            num, den = scale_sq_ratio(k)
            assert len(num) == len(den) == len(scale_sq) - 1
            for l in range(1, (k + 1) // 2):
                assert Fraction(num[l - 1], den[l - 1]) == scale_sq[l] / scale_sq[l - 1], (k, l)


class TestDimensions:
    @pytest.mark.parametrize("k,expected", [(3, 8), (1, 2), (2, 0), (9, 50)])
    def test_examples(self, k, expected):
        assert dim_invariant_space(k) == expected

    def test_basis_count_for_odd_k(self):
        for k in range(1, 22, 2):
            assert sum(hom_space(k, l)[0] for l in range(k + 1)) == (k + 1) // 2


class TestEquivariance:
    def test_full_identity_not_just_dimension(self):
        for k in range(1, 12, 2):
            for l in range((k - 1) // 2 + 1):
                assert equivariance_residual(k, l), (k, l)

    def test_rejects_trivial_pair(self):
        with pytest.raises(ValueError):
            equivariance_residual(3, 2)
