"""Tests for the Sturm-bisection eigensolver and its zero-diagonal fold."""

import hashlib
import warnings

import numpy as np
import pytest

from sdirac import tridiag
from sdirac.checks import check_charpoly_eigs
from sdirac.operators import KContext
from sdirac.tridiag import (
    _PIVOT_FLOOR,
    _SEED_MAX_M,
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


def count_loop(d, bsq, x):
    """Reference: the Sturm count below x, one pivot at a time."""
    cnt = 0
    q = d[0] - x
    if q < 0:
        cnt += 1
    for i in range(1, d.shape[0]):
        if q == 0.0:
            q = _PIVOT_FLOOR
        q = d[i] - x - bsq[i - 1] / q
        if q < 0:
            cnt += 1
    return cnt


def bisect_loop(d, bsq, lo0, hi0):
    """Reference: the same bisection written as plain loops, one eigenvalue
    and one pivot at a time."""
    m = d.shape[0]
    out = np.empty(m)
    for idx in range(m):
        lo = lo0
        hi = hi0
        while True:
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if count_loop(d, bsq, mid) <= idx:
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
        # bisection trees, by lane count, after a first pass over one
        # shared tree; the second loop forces 1, 2, 4 and 9.
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
            # an exact zero eigenvalue runs bisection down to the
            # subnormals, about 1,080 levels; the bracket [-1.7, 2.3] is
            # off-centre, so the last bits depend on every midpoint
            (np.array([0.0, 0.3, 0.0]), np.array([1.0, 1.0])),
            # eigenvalues of very different sizes: the small one takes
            # about 1,050 levels
            (np.array([-1e300, 1.0]), np.array([0.0])),
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
        # m = 98 is seeded: the first pass counts the predicted paths of
        # the 49 lanes, 60 levels each, and 49 lanes then resolve 3 levels
        # a pass (7 * 49 = 343 points): 3 passes, one sweep each, where the
        # unseeded solve takes 19 and plain bisection 60
        passes = []
        sweeps = []
        count_pass, sturm_counts = tridiag._count_pass, tridiag._sturm_counts

        def counted(*args):
            passes.append(args[2].shape[0])
            return count_pass(*args)

        def swept(*args, **kwargs):
            sweeps.append(args[2].shape[0])
            return sturm_counts(*args, **kwargs)

        monkeypatch.setattr(tridiag, "_count_pass", counted)
        monkeypatch.setattr(tridiag, "_sturm_counts", swept)
        eigvalsh_tridiagonal(*KContext(195).bands[0])
        assert passes == [60 * 49] + [7 * 49] * 2
        assert sweeps == passes

    def test_lanes_run_until_their_brackets_collapse(self):
        # a lane runs until its bracket holds adjacent floats, however far
        # below the bracket's width its eigenvalue lies; the result is one
        # of the two, so a huge eigenvalue may come out one ulp inside
        assert eigvalsh_tridiagonal([-1e300, 1.0], [0.0]).tolist() == [-1e300, 1.0]
        for d in ([-8e307, 0.0], [-8e307, 0.0, 8e307]):
            got = eigvalsh_tridiagonal(d, np.zeros(len(d) - 1))
            assert got[1] == 0.0
            assert np.all(np.abs(got - d) <= np.spacing(8e307))


def pass_widths(monkeypatch, solve):
    """The point counts of the Sturm passes ``solve()`` runs."""
    passes = []
    count_pass = tridiag._count_pass

    def counted(*args):
        passes.append(args[2].shape[0])
        return count_pass(*args)

    monkeypatch.setattr(tridiag, "_count_pass", counted)
    solve()
    monkeypatch.setattr(tridiag, "_count_pass", count_pass)
    return passes


def seed_kinds(rng, exact):
    """Seeds for the lanes whose eigenvalues are ``exact``: right, and
    wrong in every way that only moves the points counted."""
    n = exact.shape[0]
    return {
        "exact": exact,
        "nan": np.full(n, np.nan),
        "reversed": exact[::-1].copy(),
        "zero": np.zeros(n),
        "+1e300": np.full(n, 1e300),
        "-1e300": np.full(n, -1e300),
        "+-1e300": np.where(np.arange(n) % 2, 1e300, -1e300),
        "random": rng.normal(scale=np.abs(exact).max(initial=0.0) + 1.0, size=n),
    }


class TestSeededFirstPass:
    # Seeds only choose where the first pass counts; every bracket move
    # still comes from a count at a midpoint of plain bisection.

    def assert_seeds_change_nothing(self, rng, d, b, idx, kinds=None):
        lo0, hi0 = _gershgorin_bracket(d, b)
        want = _bisect(d, b * b, lo0, hi0, idx)
        for kind, seeds in seed_kinds(rng, want).items():
            if kinds is None or kind in kinds:
                got = _bisect(d, b * b, lo0, hi0, idx, seeds)
                assert np.array_equal(got, want), kind

    @pytest.mark.parametrize("k", [1, 3, 97, 99, 195, 399])
    def test_dirac_blocks(self, k):
        d, b = KContext(k).bands[0]
        m = d.shape[0]
        rng = np.random.default_rng(k)
        self.assert_seeds_change_nothing(rng, d, b, np.arange(m - m // 2, m))

    def test_random_matrices(self):
        # the lanes the solver bisects; with zeroed off-diagonals a zero
        # diagonal often puts exact zeros among them, whose lanes run
        # about 1,080 levels, so each matrix takes the exact seeds and two
        # of the wrong kinds in turn, each kind on 28 or 29 matrices
        rng = np.random.default_rng(2024)
        wrong = list(seed_kinds(rng, np.zeros(1)))[1:]
        for i in range(100):
            m = int(rng.integers(1, 24))
            d, b = random_tridiag(rng, m)
            if i % 2:
                d = np.zeros(m)
            b[rng.random(m - 1) < 0.2] = 0.0
            idx = np.arange(m - m // 2, m) if i % 2 else np.arange(m)
            kinds = {"exact", wrong[i % 7], wrong[(i + 3) % 7]}
            self.assert_seeds_change_nothing(rng, d, b, idx, kinds)

    def test_lapack_failure_solves_unseeded(self, monkeypatch):
        rng = np.random.default_rng(8)
        cases = [KContext(195).bands[0], random_tridiag(rng, 30)]
        want = [eigvalsh_tridiagonal(d, b) for d, b in cases]

        def fails(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fails)
        for (d, b), eigs in zip(cases, want):
            assert np.array_equal(eigvalsh_tridiagonal(d, b), eigs)
        # the unseeded solve starts from the shared tree of 255 midpoints
        assert pass_widths(monkeypatch, lambda: eigvalsh_tridiagonal(*cases[0]))[:2] == [255, 343]

    @pytest.mark.parametrize("k, seeded", [(399, True), (401, False), (993, False)])
    def test_seeded_only_up_to_the_threshold(self, k, seeded, monkeypatch):
        # m = 200 is seeded, m = 201 and the m = 497 of k = 993 are not,
        # and keep the unseeded pass sequence
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def recorded(a):
            calls.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        d, b = KContext(k).bands[0]
        passes = pass_widths(monkeypatch, lambda: eigvalsh_tridiagonal(d, b))
        m = d.shape[0]
        assert calls == ([(m, m)] if seeded else [])
        assert (m <= _SEED_MAX_M) == seeded
        lo0, hi0 = _gershgorin_bracket(d, b)
        unseeded = pass_widths(monkeypatch, lambda: _bisect(d, b * b, lo0, hi0, np.arange(m - m // 2, m)))
        assert (passes != unseeded) == seeded
        if k == 993:
            assert passes == [127] + [248] * 55

    @pytest.mark.parametrize("d", [[-1e300, 1.0], [-8e307, 0.0, 8e307]])
    def test_extreme_diagonals_solve_without_warnings(self, d):
        d = np.array(d)
        b = np.zeros(d.shape[0] - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = eigvalsh_tridiagonal(d, b)
        assert np.array_equal(got, bisect_all(d, b))
        assert got[1] == d[1]


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

    @pytest.mark.parametrize(
        "k, digest",
        [
            (1001, "eed26420cf20f0eab4f2cd3043916ee0f1187e89e329a8748112376416217f5d"),
            (1999, "8d1364a6ba2f4f063ee9c40dc2a123160b0920306a56ed6341132be7697da17a"),
        ],
    )
    def test_large_k_eigenvalues_are_pinned(self, k, digest):
        # sha256 of the float64 bytes of the first block's spectrum, odd
        # m = 501 and even m = 1000
        assert hashlib.sha256(KContext(k).eigenvalues.tobytes()).hexdigest() == digest

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

    @pytest.mark.parametrize("scale", [1e5, 0.0])
    @pytest.mark.parametrize("diag", [np.zeros(9), np.array([-0.0, 0.0] * 4 + [-0.0])])
    def test_zero_diagonal_matches_reference_loop(self, scale, diag, monkeypatch):
        # a zero diagonal starts every row from 0.0 - x; the counts match
        # d[i] - x pivot for pivot, with either sign of zero in d, at the
        # points that make pivots zero or overflow their quotients
        b = np.random.default_rng(21).normal(size=8) * scale
        bsq = b * b
        eigs = np.linalg.eigvalsh(np.diag(b, 1) + np.diag(b, -1))
        points = np.concatenate([[0.0, -0.0, 1e300, -1e300], eigs, -eigs])
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            want = [count_loop(diag, bsq, x) for x in points]
        for block_entries in (1 << 16, 1, 50):
            monkeypatch.setattr(tridiag, "_BLOCK_ENTRIES", block_entries)
            assert tridiag.count_below(diag, bsq, points).tolist() == want

    def test_pass_at_first_diagonal_entry_takes_one_sweep(self, monkeypatch):
        # x == d[0] makes the first pivot zero; it is floored before the
        # sweep, as the careful sweep would, so no sweep is redone
        sweeps = []
        sturm_counts = tridiag._sturm_counts

        def swept(*args, **kwargs):
            sweeps.append(kwargs["careful"])
            return sturm_counts(*args, **kwargs)

        monkeypatch.setattr(tridiag, "_sturm_counts", swept)
        d, b = np.array([2.0, -1.0, 3.0, 0.5]), np.array([1.5, 0.25, 2.0])
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            want = count_loop(d, b * b, 2.0)
        assert sturm_count(d, b, 2.0) == want
        assert sturm_count(np.zeros(4), b, 0.0) == 2
        assert sweeps == [False, False]

    def test_counts_across_pivot_blocks(self, monkeypatch):
        # a pass sweeps the rows in blocks; the count must not depend on it
        rng = np.random.default_rng(12)
        d, b = random_tridiag(rng, 50)
        points = rng.normal(scale=30, size=64)
        whole = sturm_count(d, b, points)
        monkeypatch.setattr(tridiag, "_BLOCK_ENTRIES", 7 * 64)
        assert sturm_count(d, b, points).tolist() == whole.tolist()

    def test_counts_beyond_one_uint8_block(self):
        # blocks hold at most 255 rows, so a uint8 tally of a block cannot
        # wrap, and the per-block tallies add up to counts above 255
        rng = np.random.default_rng(13)
        d, b = random_tridiag(rng, 600)
        lo, hi = _gershgorin_bracket(d, b)
        points = np.concatenate([[lo, hi], rng.normal(scale=10, size=6)])
        want = [count_loop(d, b * b, x) for x in points]
        assert sturm_count(d, b, points).tolist() == want
        assert want[:2] == [0, 600]

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
