"""Tests for the equivariant-map spaces and their normalization."""

import math
from fractions import Fraction

import pytest

from sdirac.intertwine import (
    Intertwiner,
    dim_invariant_space,
    equivariance_residual,
    hom_space,
    hom_space_oracle,
    normalize,
)


class TestHomSpace:
    def test_k3_l0_generator(self):
        dim, gen = hom_space(3, 0)
        assert dim == 1
        assert gen.row == (0, 0, 1, 0)  # p_{3,2} -> h_0
        assert gen.support == 2

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


class TestNormalize:
    @pytest.mark.parametrize(
        "k,l,scale_sq",
        [(1, 0, 1), (3, 0, 2), (3, 1, 3), (7, 2, Fraction(math.factorial(6), 2**2 * 2))],
    )
    def test_scales(self, k, l, scale_sq):
        norm = normalize(hom_space(k, l)[1])
        assert norm.scale_sq == scale_sq
        assert isinstance(norm.scale_sq, Fraction)

    def test_rejects_non_generator(self):
        bogus = Intertwiner(3, 0, (1, 0, 0, 0))
        with pytest.raises(ValueError):
            normalize(bogus)

    def test_rejects_invalid_pair(self):
        with pytest.raises(ValueError):
            normalize(Intertwiner(2, 0, (0, 0, 0)))


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
