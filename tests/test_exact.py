"""Tests for the exactness guard of the double-precision exact routes."""

from fractions import Fraction

import numpy as np
import pytest

from sdirac.exact import EXACT_BOUND, exact_in_double, require_exact


class TestGuard:
    def test_half_integers_below_the_bound_pass(self):
        assert exact_in_double(0, -3, 2.5, 7.5 - 0.5j, np.arange(-5, 5), np.array([EXACT_BOUND - 0.5]))
        assert exact_in_double({-1: np.array([0.5j, 1 + 1j]), 1: np.array([-2.0])})
        assert exact_in_double()

    @pytest.mark.parametrize("value", [1 / 3, 0.25, 0.5 + 0.25j, np.float64(2.0**-30)])
    def test_value_outside_half_integers_is_rejected(self, value):
        assert not exact_in_double(value)
        assert not exact_in_double({0: np.array([1.0, value])})

    @pytest.mark.parametrize("value", [EXACT_BOUND, -EXACT_BOUND, 1j * EXACT_BOUND, 2**53 + 1, np.inf, np.nan])
    def test_magnitude_at_the_bound_is_rejected(self, value):
        # an int64 beyond 2**53 rounds on conversion, but stays above the bound
        assert not exact_in_double(np.array([value]))

    def test_non_numbers_are_rejected(self):
        assert not exact_in_double(Fraction(1, 2))
        assert not exact_in_double(np.array([1, 2**70], dtype=object))

    def test_require_exact_raises(self):
        require_exact(np.arange(3), 0.5j)
        with pytest.raises(ValueError, match="outside"):
            require_exact(np.arange(3), 1 / 3)
