"""Tests for the Sturm-bisection eigensolver and its zero-diagonal fold."""

import numpy as np
import pytest

from sdirac import tridiag
from sdirac.checks import check_charpoly_eigs
from sdirac.operators import KContext
from sdirac.tridiag import (
    _MAX_BISECT_ITER,
    _PIVOT_FLOOR,
    _bisect,
    _gershgorin_bracket,
    _pass_depth,
    eigvalsh_tridiagonal,
    sturm_count,
)


def random_tridiag(rng, m):
    return rng.normal(size=m) * 10, rng.normal(size=m - 1) * 5


def bisect_all(d, b):
    """The kernel over every index, with no zero-diagonal fold."""
    lo0, hi0 = _gershgorin_bracket(d, b)
    return _bisect(d, b * b, lo0, hi0, np.arange(d.shape[0]))


def bisect_loop(d, bsq, lo0, hi0):
    """Reference: the same bisection written as plain loops, one eigenvalue
    and one pivot at a time."""
    m = d.shape[0]
    out = np.empty(m)
    for idx in range(m):
        lo = lo0
        hi = hi0
        for _ in range(_MAX_BISECT_ITER):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            cnt = 0
            q = d[0] - mid
            if q < 0:
                cnt += 1
            for i in range(1, m):
                if q == 0.0:
                    q = _PIVOT_FLOOR
                q = d[i] - mid - bsq[i - 1] / q
                if q < 0:
                    cnt += 1
            if cnt <= idx:
                lo = mid
            else:
                hi = mid
        out[idx] = 0.5 * (lo + hi)
    return out


class TestAgainstLapack:
    def test_random_matrices(self):
        rng = np.random.default_rng(1234)
        for _ in range(25):
            m = int(rng.integers(1, 64))
            d, b = random_tridiag(rng, m)
            got = eigvalsh_tridiagonal(d, b)
            ref = np.linalg.eigvalsh(np.diag(d) + np.diag(b, 1) + np.diag(b, -1))
            assert np.all(np.diff(got) >= 0)
            assert np.max(np.abs(got - ref) / (1 + np.abs(ref))) < 1e-13

    def test_single_cell(self):
        assert eigvalsh_tridiagonal([7.5], []).tolist() == [7.5]

    def test_repeated_eigenvalues(self):
        # decoupled blocks give exact multiplicities
        d = np.array([2.0, 2.0, -1.0])
        b = np.array([0.0, 0.0])
        got = eigvalsh_tridiagonal(d, b)
        assert np.allclose(got, [-1.0, 2.0, 2.0], atol=1e-14)

    def test_zero_matrix(self):
        got = eigvalsh_tridiagonal(np.zeros(4), np.zeros(3))
        assert np.array_equal(got, np.zeros(4))


class TestReferenceLoop:
    def test_bit_identical(self, monkeypatch):
        # The vectorized kernel against the plain-loop reference.  1 << 16
        # holds every case here in one block; the smaller sizes split the
        # rows into blocks, so pivots and zero pivots cross block boundaries.
        # At the default pass width a pass resolves 2 to 9 levels of the
        # bisection trees, by lane count; the second loop forces 1, 2, 4 and
        # 9.  The iteration cap of 200 is a multiple of neither 9 nor 7, the
        # default depth of the 3-row case that reaches the cap, so a capped
        # lane there ends in a shorter walk.
        rng = np.random.default_rng(77)
        cases = [random_tridiag(rng, int(rng.integers(2, 80))) for _ in range(20)]
        cases += [
            (np.array([7.5]), np.array([])),
            (np.array([2.0, 2.0, -1.0]), np.array([0.0, 0.0])),
            (np.zeros(4), np.zeros(3)),
            # zero diagonal: the first midpoint makes pivot 0 zero, and with
            # off-diagonals this large every other pivot after it
            (np.zeros(9), rng.normal(size=8) * 1e5),
            # decoupled cells: the first midpoint 0 makes pivot 1 (resp. 2)
            # zero ahead of a zero off-diagonal, where 0/0 = nan without the
            # floor would drop a negative pivot from the count
            (np.array([1.0, 0.0, -1.0]), np.zeros(2)),
            (np.array([2.0, 1.0, 0.0, -1.0, -2.0]), np.zeros(4)),
            # an exact zero eigenvalue runs bisection to its iteration cap;
            # the bracket [-1.7, 2.3] is off-centre, so the last bits
            # depend on every midpoint
            (np.array([0.0, 0.3, 0.0]), np.array([1.0, 1.0])),
        ]
        for d, b in cases:
            lo0, hi0 = _gershgorin_bracket(d, b)
            with np.errstate(over="ignore"):  # a floored pivot's quotient
                ref = bisect_loop(d, b * b, lo0, hi0)
            for block_entries in (1 << 16, 1, 50, 333):
                monkeypatch.setattr(tridiag, "_BLOCK_ENTRIES", block_entries)
                assert np.array_equal(bisect_all(d, b), ref)
            for depth in (1, 2, 4, 9):
                monkeypatch.setattr(tridiag, "_PASS_POINTS", ((1 << depth) - 1) * d.shape[0])
                assert _pass_depth(d.shape[0]) == depth
                assert np.array_equal(bisect_all(d, b), ref)
            monkeypatch.undo()

    def test_index_subset_matches_full_run(self, monkeypatch):
        # a lane's result depends neither on which other lanes run with it
        # nor on how many levels a pass resolves, which the lane count sets
        rng = np.random.default_rng(3)
        d, b = random_tridiag(rng, 40)
        lo0, hi0 = _gershgorin_bracket(d, b)
        full = bisect_all(d, b)
        for points in (1, 3 * 40, 15 * 40, 511 * 40):
            monkeypatch.setattr(tridiag, "_PASS_POINTS", points)
            for idx in ([0], [39], [5, 17, 18], list(range(0, 40, 3)), list(range(40))):
                got = _bisect(d, b * b, lo0, hi0, np.array(idx))
                assert np.array_equal(got, full[idx])

    @pytest.mark.parametrize(
        "lanes, depth", [(1, 9), (31, 4), (34, 4), (35, 3), (49, 3), (170, 2), (171, 1), (2000, 1)]
    )
    def test_pass_depth(self, lanes, depth):
        assert _pass_depth(lanes) == depth

    def test_passes_at_k195(self, monkeypatch):
        # 49 lanes resolve 3 levels a pass: 20 passes where plain bisection
        # takes 60
        passes = []
        count_pass = tridiag._count_pass

        def counted(*args):
            passes.append(args[2].shape[0])
            return count_pass(*args)

        monkeypatch.setattr(tridiag, "_count_pass", counted)
        eigvalsh_tridiagonal(*KContext(195).bands[0])
        assert len(passes) <= 23
        assert set(passes) == {7 * 49}


class TestZeroDiagonalFold:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 17, 40, 63])
    def test_antisymmetric_and_matches_full_bisection(self, m):
        rng = np.random.default_rng(m)
        d, b = np.zeros(m), rng.normal(size=m - 1) * 5
        got = eigvalsh_tridiagonal(d, b)
        assert np.array_equal(got, -got[::-1])
        if m % 2:
            assert got[m // 2] == 0.0
        half = m - m // 2
        assert np.array_equal(got[half:], bisect_all(d, b)[half:])
        ref = np.linalg.eigvalsh(np.diag(b, 1) + np.diag(b, -1))
        assert np.max(np.abs(got - ref) / (1 + np.abs(ref))) < 1e-13

    @pytest.mark.parametrize("m", [1, 2, 5, 6])
    def test_all_zero_offdiagonal(self, m):
        got = eigvalsh_tridiagonal(np.zeros(m), np.zeros(m - 1))
        assert np.array_equal(got, np.zeros(m))

    def test_negative_zero_diagonal_folds(self):
        d, b = np.array([-0.0, 0.0, -0.0]), np.array([3.0, 4.0])
        got = eigvalsh_tridiagonal(d, b)
        assert got[1] == 0.0 and np.array_equal(got, -got[::-1])
        assert np.allclose(got, [-5.0, 0.0, 5.0], atol=1e-14)

    @pytest.mark.parametrize("k", [195, 199])
    def test_charpoly_certifies_beyond_verify_range(self, k):
        assert check_charpoly_eigs(KContext(k)).ok


class TestSturmCount:
    def test_counts_match_spectrum(self):
        rng = np.random.default_rng(5)
        d, b = random_tridiag(rng, 30)
        eigs = np.linalg.eigvalsh(np.diag(d) + np.diag(b, 1) + np.diag(b, -1))
        for x in (-50.0, -1.0, 0.0, 2.5, 50.0):
            assert sturm_count(d, b, x) == int(np.sum(eigs < x))

    def test_array_counts_equal_per_point_calls(self):
        rng = np.random.default_rng(11)
        for d, b in (random_tridiag(rng, 40), (np.zeros(9), rng.normal(size=8))):
            eigs = np.linalg.eigvalsh(np.diag(d) + np.diag(b, 1) + np.diag(b, -1))
            # eigenvalues and diagonal entries as points meet zero pivots
            points = np.concatenate([rng.normal(scale=30, size=50), eigs, d, [0.0, -0.0, 1e300, -1e300]])
            counts = sturm_count(d, b, points)
            assert counts.tolist() == [sturm_count(d, b, x) for x in points]
            assert sturm_count(d, b, points.reshape(2, -1)).tolist() == counts.reshape(2, -1).tolist()

    def test_counts_across_pivot_blocks(self, monkeypatch):
        # a pass sweeps the rows in blocks; the count must not depend on it
        rng = np.random.default_rng(12)
        d, b = random_tridiag(rng, 50)
        points = rng.normal(scale=30, size=64)
        whole = sturm_count(d, b, points)
        monkeypatch.setattr(tridiag, "_BLOCK_ENTRIES", 7 * 64)
        assert sturm_count(d, b, points).tolist() == whole.tolist()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sturm_count([], [], 0.0)

    @pytest.mark.parametrize("x", [np.nan, np.inf, [0.0, -np.inf]])
    def test_non_finite_point_rejected(self, x):
        with pytest.raises(ValueError, match="finite"):
            sturm_count([0.0, 0.0, 0.0], [1.0, 1.0], x)

    def test_wrong_offdiag_length_rejected(self):
        with pytest.raises(ValueError):
            sturm_count([1.0, 2.0], [1.0, 2.0, 3.0], 0.0)


class TestValidation:
    def test_wrong_offdiag_length(self):
        with pytest.raises(ValueError):
            eigvalsh_tridiagonal(np.zeros(3), np.zeros(3))

    def test_wrong_dimensionality(self):
        with pytest.raises(ValueError):
            eigvalsh_tridiagonal(np.zeros((2, 2)), np.zeros(1))

    def test_empty(self):
        assert eigvalsh_tridiagonal([], []).size == 0

    def test_non_finite_diagonal(self):
        with pytest.raises(ValueError, match="finite"):
            eigvalsh_tridiagonal([np.nan], [])

    def test_non_finite_offdiagonal(self):
        with pytest.raises(ValueError, match="finite"):
            eigvalsh_tridiagonal([1.0, 2.0], [np.inf])

    def test_offdiagonal_square_overflows(self):
        # b * b is inf: bisection would converge to the Gershgorin bound
        # 2e200 instead of the true +-sqrt(2) * 1e200
        with pytest.raises(ValueError, match="finite"):
            eigvalsh_tridiagonal([0.0, 0.0, 0.0], [1e200, 1e200])

    @pytest.mark.parametrize("diag,offdiag", [([1.7e308, 1.7e308], [0.0]), ([1e308, 1e308], [1e154])])
    def test_bracket_beyond_half_the_maximum_rejected(self, diag, offdiag):
        # twice the Gershgorin bound overflows, and with it the sum lo + hi
        # of the bisection midpoint: the result would be [inf, inf]
        with pytest.raises(ValueError, match="half the float64 maximum"):
            eigvalsh_tridiagonal(diag, offdiag)

    def test_bracket_below_half_the_maximum_solves(self):
        assert eigvalsh_tridiagonal([8e307, 8e307], [0.0]).tolist() == [8e307, 8e307]
        assert eigvalsh_tridiagonal([-8e307, -8e307], [0.0]).tolist() == [-8e307, -8e307]
