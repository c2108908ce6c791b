"""Tests for the Gaussian-rational scalar and the exact null-space helper."""

import random
from fractions import Fraction

import pytest

from sdirac.exact import QQi, nullspace_dim


def sparse(dense):
    """(rows, n_cols) of a dense matrix, in the form nullspace_dim takes."""
    return [dict(enumerate(row)) for row in dense], len(dense[0]) if dense else 0


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
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return n_cols - rank


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


class TestNullspace:
    def test_identity_has_trivial_kernel(self):
        eye = tuple(
            tuple(QQi(1 if r == c else 0, 0) for c in range(4)) for r in range(4)
        )
        assert nullspace_dim(*sparse(eye)) == 0

    def test_zero_matrix(self):
        z = tuple(tuple(QQi(0, 0) for _ in range(3)) for _ in range(3))
        assert nullspace_dim(*sparse(z)) == 3

    def test_rank_one(self):
        # rows all equal -> rank 1, nullity 2
        row = (QQi(1, 0), QQi(2, 0), QQi(0, 1))
        m = (row, row, row)
        assert nullspace_dim(*sparse(m)) == 2

    def test_requires_division(self):
        # 2x2 with fractional elimination step
        m = (
            (QQi(2, 0), QQi(3, 0)),
            (QQi(1, 0), QQi(5, 0)),
        )
        assert nullspace_dim(*sparse(m)) == 0

    def test_absent_entries_are_zero(self):
        rows = [{2: QQi(1, 0)}, {}, {0: QQi(0, 1), 2: QQi(3, 0)}, {0: QQi(0, 0)}]
        assert nullspace_dim(rows, 4) == 2

    def test_matches_dense_elimination(self):
        rng = random.Random(20261018)
        deficient = 0
        for _ in range(50):
            n_rows, n_cols = rng.randint(1, 8), rng.randint(1, 8)
            a = [
                [QQi(rng.randint(-3, 3), rng.randint(-3, 3)) if rng.random() < 0.6 else QQi(0, 0)
                 for _ in range(n_cols)]
                for _ in range(n_rows)
            ]
            if n_rows >= 2 and rng.random() < 0.4:
                # a combination of two rows makes the matrix rank deficient
                s, t = QQi(rng.randint(-2, 2), 1), QQi(1, rng.randint(-2, 2))
                a[-1] = [s * x + t * y for x, y in zip(a[0], a[1])]
            expected = dense_nullity(a)
            deficient += expected > max(0, n_cols - n_rows)
            assert nullspace_dim(*sparse(a)) == expected, a
        assert deficient >= 10
