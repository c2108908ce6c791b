"""Tests for the Gaussian-rational scalar."""

from fractions import Fraction

import pytest

from sdirac.exact import QQi


class TestQQi:
    def test_arithmetic(self):
        a = QQi(1, 2)
        b = QQi(Fraction(1, 2), -1)
        assert a + b == QQi(Fraction(3, 2), 1)
        assert a - b == QQi(Fraction(1, 2), 3)
        assert a * b == QQi(Fraction(5, 2), 0)  # (1+2i)(1/2 - i)
        assert -a == QQi(-1, -2)
        assert a.conjugate() == QQi(1, -2)

    def test_i_squared_is_minus_one(self):
        i = QQi(0, 1)
        assert i * i == QQi(-1, 0)
        assert i * i == -1

    def test_rational_interop(self):
        a = QQi(1, 2)
        assert a + 1 == QQi(2, 2)
        assert 3 * a == QQi(3, 6)
        assert a * Fraction(1, 2) == QQi(Fraction(1, 2), 1)

    def test_division(self):
        a = QQi(1, 1)
        assert a / QQi(1, 1) == QQi(1, 0)
        assert QQi(2, 4) / 2 == QQi(1, 2)
        assert (QQi(1, 0) / QQi(0, 1)) == QQi(0, -1)
        with pytest.raises(ZeroDivisionError):
            a / QQi(0, 0)

    def test_truthiness_and_complex(self):
        assert not QQi(0, 0)
        assert QQi(0, Fraction(1, 3))
        assert complex(QQi(1, -2)) == 1 - 2j
