"""Tests for the Sturm-bisection eigensolver of zero-diagonal tridiagonal
matrices and its fold."""

import hashlib
import math
import warnings
from functools import cache

import numpy as np
import pytest

from sdirac import tridiag
from sdirac.checks import check_charpoly_eigs
from sdirac.operators import KContext, assemble_closed_form, spectrum
from sdirac.tridiag import (
    _PIVOT_FLOOR,
    _SEED_MAX_M,
    _bisect,
    _gershgorin_radius,
    _search,
    count_below,
    eigvalsh_tridiagonal,
)


def dirac_band(k):
    """The real symmetric band (diagonal, |superdiagonal|) that the
    eigensolver sees of the first closed-form block of k."""
    block = assemble_closed_form(k)[0]
    return block.band[0].real, np.abs(block.band[1])


@cache
def dirac_eigenvalues(k):
    """The spectrum of the Dirac blocks of k, solved once per k here."""
    return KContext(k).eigenvalues


# The step of the middle of the Dirac spectrum over sqrt(m): 1 / F'(0).
C = 4 * math.sqrt(2 * math.pi) * math.gamma(0.75) / math.gamma(0.25)


def random_offdiag(rng, m):
    """The off-diagonal of a random zero-diagonal matrix of size m, with
    about 20 % of its entries zero: decoupled cells, often with exact zero
    eigenvalues, and zero pivots across block boundaries."""
    b = rng.normal(size=m - 1) * 5
    b[rng.random(m - 1) < 0.2] = 0.0
    return b


def bisect_all(b):
    """The kernel over every index, with no fold."""
    return _bisect(b * b, _gershgorin_radius(b), np.arange(b.shape[0] + 1))


def dense(b):
    return np.diag(b, 1) + np.diag(b, -1)


def same_bits(got, want):
    """Equal values and sign bits."""
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


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
            b = random_offdiag(rng, m)
            got = eigvalsh_tridiagonal(np.zeros(m), b)
            ref = np.linalg.eigvalsh(dense(b))
            assert np.all(np.diff(got) >= 0)
            assert np.max(np.abs(got - ref) / (1 + np.abs(ref))) < 1e-13

    def test_single_cell(self):
        assert eigvalsh_tridiagonal([0.0], []).tolist() == [0.0]

    def test_repeated_eigenvalues(self):
        # decoupled blocks give exact multiplicities
        got = eigvalsh_tridiagonal(np.zeros(7), [3.0, 0.0, 3.0, 0.0, 0.0, 4.0])
        assert np.allclose(got, [-4.0, -3.0, -3.0, 0.0, 3.0, 3.0, 4.0], atol=1e-14)

    def test_zero_matrix(self):
        got = eigvalsh_tridiagonal(np.zeros(4), np.zeros(3))
        assert np.array_equal(got, np.zeros(4))


class TestReferenceLoop:
    def test_bit_identical(self, monkeypatch):
        # The vectorized kernel against the plain-loop reference.  1 << 16
        # holds every case here in one block; the smaller sizes split the
        # rows into blocks, so pivots and zero pivots cross block boundaries.
        rng = np.random.default_rng(77)
        cases = [random_offdiag(rng, int(rng.integers(2, 24))) for _ in range(16)]
        cases += [
            np.array([]),
            np.zeros(3),
            # the first midpoint 0 makes pivot 0 zero, and with
            # off-diagonals this large every other pivot after it
            rng.normal(size=8) * 1e5,
            # decoupled cells: the first midpoint 0 makes pivot 1 zero ahead
            # of a zero off-diagonal, where 0/0 = nan without the floor
            # would drop a negative pivot from the count
            np.array([0.0, 0.0, 2.0, 0.0]),
            # exact zero eigenvalues, one per odd cell, run bisection down
            # to the subnormals, about 1,080 levels, of which the kernel
            # skips the 940 above _MONOTONE_MIN
            np.array([1.0, 1.0, 0.0, 0.3, 2.0]),
            # eigenvalues of very different sizes: the lanes of +-1 run
            # about 500 levels below the bracket width 2e150
            np.array([1e150, 0.0, 1.0]),
            # eigenvalues near +-1.5 * 2**-943, between 2**-943 and
            # _MONOTONE_MIN: the kernel starts their upper lane from
            # [0.0, _MONOTONE_MIN], one halving above the eigenvalue
            np.array([1.5**0.5 * 2.0**-471.5, 1.0, 1.5**0.5 * 2.0**-471.5]),
        ]
        for b in cases:
            m, r = b.shape[0] + 1, _gershgorin_radius(b)
            with np.errstate(over="ignore"):  # a floored pivot's quotient
                ref = bisect_loop(np.zeros(m), b * b, -r, r)
            for block_entries in (1 << 16, 1, 50, 333):
                monkeypatch.setattr(tridiag, "_BLOCK_ENTRIES", block_entries)
                assert np.array_equal(bisect_all(b), ref)
            monkeypatch.undo()

    def test_index_subset_matches_full_run(self):
        # a lane's result does not depend on which other lanes run with it
        rng = np.random.default_rng(3)
        b = random_offdiag(rng, 40)
        r = _gershgorin_radius(b)
        full = bisect_all(b)
        for idx in ([0], [39], [5, 17, 18], list(range(0, 40, 3)), list(range(40))):
            got = _bisect(b * b, r, np.array(idx))
            assert np.array_equal(got, full[idx])

    def test_passes_at_k195(self, monkeypatch):
        # m = 98 is seeded from LAPACK: the one pass counts at the 11
        # consecutive floats about each of the 49 seeds, 539 points,
        # and finds every threshold among them: one sweep, where the
        # unseeded solve takes 18 passes and plain bisection 60
        passes = []
        sweeps = []
        count, sturm_counts = tridiag._count, tridiag._sturm_counts

        def counted(bsq, points):
            passes.append(points.shape[0])
            return count(bsq, points)

        def swept(bsq, base, *args, **kwargs):
            sweeps.append(base.shape[0])
            return sturm_counts(bsq, base, *args, **kwargs)

        monkeypatch.setattr(tridiag, "_count", counted)
        monkeypatch.setattr(tridiag, "_sturm_counts", swept)
        eigvalsh_tridiagonal(*dirac_band(195))
        assert passes == [539]
        assert sweeps == passes

    @pytest.mark.parametrize("b", [[1.0, 1.0, 0.0, 0.3, 2.0], [0.0, 0.0, 2.0, 0.0]])
    def test_exact_zeros_skip_the_monotone_halvings(self, b, monkeypatch):
        # an exact zero eigenvalue's lane halves from r down through the
        # subnormals, about 1,080 levels; the kernel starts it below
        # _MONOTONE_MIN, so the upper half takes at most 140 passes
        b = np.array(b)
        m, r = b.shape[0] + 1, _gershgorin_radius(b)
        idx = np.arange(m - m // 2, m)
        got = []
        passes = pass_widths(monkeypatch, lambda: got.append(_bisect(b * b, r, idx)))
        assert len(passes) <= 140
        with np.errstate(over="ignore"):  # a floored pivot's quotient
            want = bisect_loop(np.zeros(m), b * b, -r, r)[idx]
        assert 0.0 in want and same_bits(got[0], want)

    def test_lanes_run_until_their_brackets_collapse(self):
        # a lane runs until its bracket holds adjacent floats, however far
        # below the bracket's width its eigenvalue lies; the result is one
        # of the two, so a huge eigenvalue may come out one ulp inside
        got = eigvalsh_tridiagonal(np.zeros(4), [1e150, 0.0, 1.0])
        assert got[1:3].tolist() == [-1.0, 1.0]
        assert np.all(np.abs(got - [-1e150, -1.0, 1.0, 1e150]) <= np.spacing(1e150))
        for b in ([1.34e154, 0.0], [1.34e154, 0.0, 0.0, 1.34e154]):
            got = eigvalsh_tridiagonal(np.zeros(len(b) + 1), b)
            assert got[len(b) // 2] == 0.0
            want = [-1.34e154] * (len(b) // 2) + [0.0] + [1.34e154] * (len(b) // 2)
            assert np.all(np.abs(got - want) <= np.spacing(1.34e154))


def pass_widths(monkeypatch, solve):
    """The point counts of the Sturm passes ``solve()`` runs."""
    passes = []
    count = tridiag._count

    def counted(bsq, points):
        passes.append(points.shape[0])
        return count(bsq, points)

    monkeypatch.setattr(tridiag, "_count", counted)
    solve()
    monkeypatch.setattr(tridiag, "_count", count)
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
        "shifted": np.append(exact[1:], exact[-1:]),
        "random": rng.normal(scale=np.abs(exact).max(initial=0.0) + 1.0, size=n),
    }


class TestSeededFirstPass:
    # Seeds only choose where the search counts; every result is plain
    # bisection's, read off counts.

    def assert_seeds_change_nothing(self, rng, b, idx, kinds=None):
        r = _gershgorin_radius(b)
        want = _bisect(b * b, r, idx)
        for kind, seeds in seed_kinds(rng, want).items():
            if kinds is None or kind in kinds:
                assert same_bits(_search(b * b, r, idx, seeds), want), kind

    @pytest.mark.parametrize("k", [1, 3, 97, 99, 195, 399])
    def test_dirac_blocks(self, k):
        b = dirac_band(k)[1]
        m = b.shape[0] + 1
        rng = np.random.default_rng(k)
        self.assert_seeds_change_nothing(rng, b, np.arange(m - m // 2, m))

    def test_random_matrices(self):
        # the lanes the solver solves, and every index; the zeroed
        # off-diagonals often put exact zeros among them, whose lanes run
        # about 1,080 levels, so each matrix takes the exact seeds and two
        # of the wrong kinds in turn, each kind on 24 to 26 matrices
        rng = np.random.default_rng(2024)
        wrong = list(seed_kinds(rng, np.zeros(1)))[1:]
        for i in range(100):
            m = int(rng.integers(1, 16))
            b = random_offdiag(rng, m)
            idx = np.arange(m - m // 2, m) if i % 2 else np.arange(m)
            kinds = {"exact", wrong[i % 8], wrong[(i + 3) % 8]}
            self.assert_seeds_change_nothing(rng, b, idx, kinds)

    def test_lapack_failure_solves_unseeded(self, monkeypatch):
        rng = np.random.default_rng(8)
        cases = [dirac_band(195), (np.zeros(30), random_offdiag(rng, 30))]
        want = [eigvalsh_tridiagonal(d, b) for d, b in cases]

        def fails(a, compute_uv=True):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fails)
        for (d, b), eigs in zip(cases, want):
            assert np.array_equal(eigvalsh_tridiagonal(d, b), eigs)
        # the unseeded solve counts at 0.0 and _MONOTONE_MIN, then at one
        # midpoint a lane per pass: 60 passes for the 49 lanes
        passes = pass_widths(monkeypatch, lambda: eigvalsh_tridiagonal(*cases[0]))
        assert passes[:2] == [2, 49] and len(passes) == 60

    @pytest.mark.parametrize("k, seeded", [(399, True), (801, False), (993, False)])
    def test_seeded_only_up_to_the_threshold(self, k, seeded, monkeypatch):
        # LAPACK seeds m = 200 from the singular values of the 100 x 100
        # bidiagonal; m = 401 and the m = 497 of k = 993, past
        # _SEED_MAX_M = 400, take the limiting law's seeds instead, and
        # never call it.  Every solve is seeded, so none runs the unseeded
        # pass sequence.
        calls = []
        svd = np.linalg.svd

        def recorded(a, compute_uv=True):
            calls.append(a.shape)
            return svd(a, compute_uv=compute_uv)

        monkeypatch.setattr(np.linalg, "svd", recorded)
        ctx = KContext(k)
        passes = pass_widths(monkeypatch, lambda: spectrum(ctx.blocks[0]))
        d, b = dirac_band(k)
        m = d.shape[0]
        assert calls == ([(m // 2, m - m // 2)] if seeded else [])
        assert (m <= _SEED_MAX_M) == seeded
        r = _gershgorin_radius(b)
        unseeded = pass_widths(monkeypatch, lambda: _bisect(b * b, r, np.arange(m - m // 2, m)))
        assert passes != unseeded
        if k == 993:
            # one pass finds all 248 thresholds among the 5 floats about
            # each seed; the unseeded solve takes 62 passes
            assert passes == [1240]
            assert len(unseeded) == 62

    @pytest.mark.parametrize("k", [401, 993, 2007, 2991])
    def test_law_seeds_change_nothing(self, k):
        # the law's seeds, raw and refined by Newton steps, and seeds wrong
        # in every way in their place, against the unseeded kernel, values
        # and sign bits
        d, b = dirac_band(k)
        m = d.shape[0]
        idx, r, bsq = np.arange(m - m // 2, m), _gershgorin_radius(b), list(map(np.asarray, b * b))
        want = _bisect(bsq, r, idx)
        law = tridiag._law_seeds(m, idx)
        kinds = {
            "law": law,
            "newton": tridiag._newton(bsq, law),
            "nan": np.full(idx.shape, np.nan),
            "zero": np.zeros(idx.shape),
            "+1e300": np.full(idx.shape, 1e300),
            "-1e300": np.full(idx.shape, -1e300),
            "reversed": law[::-1].copy(),
            "shifted": tridiag._law_seeds(m, idx - 1),
            "random": np.random.default_rng(k).normal(scale=np.abs(law).max(), size=idx.shape),
        }
        for kind, seeds in kinds.items():
            assert same_bits(_search(bsq, r, idx, seeds), want), kind

    def test_general_matrix_past_the_threshold(self):
        # past _SEED_MAX_M rows every matrix takes the Dirac law's seeds,
        # wrong for this one: they cost passes, never bits
        rng = np.random.default_rng(241)
        m = _SEED_MAX_M + 41
        b = rng.normal(size=m - 1) * 5
        upper = _bisect(b * b, _gershgorin_radius(b), np.arange(m - m // 2, m))
        got = eigvalsh_tridiagonal(np.zeros(m), b)
        assert np.array_equal(got, np.concatenate([-upper[::-1], np.zeros(m % 2), upper]))

    def test_law_seeds_take_few_passes(self, monkeypatch):
        # a silent fall-back to unseeded passes would take 51 at k = 2991
        ctx = KContext(2991)
        passes = pass_widths(monkeypatch, lambda: spectrum(ctx.blocks[0]))
        assert len(passes) <= 4

    @pytest.mark.parametrize("b", [[1.34e154, 0.0], [1.34e154, 0.0, 0.0, 1.34e154]])
    def test_extreme_offdiagonals_solve_without_warnings(self, b):
        # squares just below the float64 maximum, and a zero lane beside
        # them; every midpoint stays finite
        b = np.array(b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = eigvalsh_tridiagonal(np.zeros(b.shape[0] + 1), b)
        assert np.array_equal(got, bisect_all(b))
        assert got[b.shape[0] // 2] == 0.0


class TestThresholdSearch:
    # The search stands in for plain bisection on an upper-half index i,
    # where count(0.0) <= i, when either prev(t) >= _MONOTONE_MIN and
    # t <= r for the threshold t of lane i, or count(r) <= i (see the
    # tridiag module docstring); a lane with count(_MONOTONE_MIN) > i goes
    # to _bisect.  Each case against the plain loop or the unseeded kernel,
    # values and sign bits.

    def solve(self, b, seeds, monkeypatch):
        """_search on the upper half of the zero-diagonal matrix with
        off-diagonal b, and the indices it left to _bisect."""
        b = np.asarray(b, dtype=np.float64)
        m = b.shape[0] + 1
        left, bisect = [], tridiag._bisect

        def recorded(bsq, r, idx):
            left.extend(idx.tolist())
            return bisect(bsq, r, idx)

        monkeypatch.setattr(tridiag, "_bisect", recorded)
        got = _search(b * b, _gershgorin_radius(b), np.arange(m - m // 2, m), np.asarray(seeds, dtype=np.float64))
        monkeypatch.setattr(tridiag, "_bisect", bisect)
        return got, left

    def loop(self, b):
        b = np.asarray(b, dtype=np.float64)
        m, r = b.shape[0] + 1, _gershgorin_radius(b)
        with np.errstate(divide="ignore", over="ignore"):
            return bisect_loop(np.zeros(m), b * b, -r, r)[m - m // 2 :]

    def test_threshold_above_the_radius(self, monkeypatch):
        # [[0, 3], [3, 0]] has r = 3 and the eigenvalue 3, whose last pivot
        # at 3 is 0, which counts as nonnegative: count(3) = 1, so t lies
        # above r and plain bisection ends at the bracket [prev(3), 3],
        # which the search takes without counting in it
        assert count_below([9.0], [3.0]).tolist() == [1]
        want = self.loop([3.0])
        assert same_bits(_bisect(np.array([9.0]), 3.0, np.array([1])), want)
        for seeds in ([3.0], [np.nextafter(3.0, 0.0)], [3.5], [np.nan], [0.0]):
            got, left = self.solve([3.0], seeds, monkeypatch)
            assert same_bits(got, want) and left == [], seeds
        assert same_bits(eigvalsh_tridiagonal(np.zeros(2), [3.0])[1:], want)

    @pytest.mark.parametrize("b", [[1.0, 0.0, 0.0, 0.0, 1.0], [2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 3.0], [0.0, 0.0, 5.0]])
    def test_exact_zeros_in_the_upper_half(self, b, monkeypatch):
        # decoupled cells put exact zeros among the upper half, whose
        # thresholds are the least subnormal, below _MONOTONE_MIN
        want = self.loop(b)
        zeros = [i for i, x in enumerate(want, len(b) + 1 - len(want)) if x == 0.0]
        assert zeros
        for seeds in (want, np.full(want.shape, 1e-320), np.full(want.shape, np.nan)):
            got, left = self.solve(b, seeds, monkeypatch)
            assert same_bits(got, want) and set(zeros) <= set(left)
        assert same_bits(eigvalsh_tridiagonal(np.zeros(len(b) + 1), b)[-len(want) :], want)

    @pytest.mark.parametrize("points", [1, 8, 512])
    def test_seeds_beyond_the_gallop(self, points, monkeypatch):
        # seeds so far off that the first gallop pass ends at _MONOTONE_MIN
        # or r, when few points a lane leave it one or two steps, and seeds
        # of no use at all
        monkeypatch.setattr(tridiag, "_PASS_POINTS", points)
        rng = np.random.default_rng(points)
        for b in (rng.normal(size=11) * 7, dirac_band(99)[1]):
            m = b.shape[0] + 1
            want = _bisect(b * b, _gershgorin_radius(b), np.arange(m - m // 2, m))
            if m < 20:
                assert same_bits(self.loop(b), want)
            keys = want.view(np.int64)
            kinds = {
                "+1e6 ulps": (keys + 10**6).view(np.float64),
                "-1e6 ulps": (keys - 10**6).view(np.float64),
                "x 1e-100": want * 1e-100,
                "x 1e100": want * 1e100,
                "nan": np.full(want.shape, np.nan),
                "zero": np.zeros(want.shape),
                "+1e300": np.full(want.shape, 1e300),
                "-1e300": np.full(want.shape, -1e300),
            }
            for kind, seeds in kinds.items():
                got, left = self.solve(b, seeds, monkeypatch)
                assert same_bits(got, want) and not left, kind

    def test_dirac_blocks(self):
        # every odd k <= 399, on LAPACK's seeds and on the law's
        for k in range(1, 400, 2):
            b = dirac_band(k)[1]
            m = b.shape[0] + 1
            idx, r, bsq = np.arange(m - m // 2, m), _gershgorin_radius(b), list(map(np.asarray, b * b))
            want = _bisect(bsq, r, idx)
            assert same_bits(eigvalsh_tridiagonal(np.zeros(m), b)[m - m // 2 :], want), k
            if idx.size:
                assert same_bits(_search(bsq, r, idx, tridiag._newton(bsq, tridiag._law_seeds(m, idx))), want), k

    def test_no_dirac_block_reaches_bisect(self, monkeypatch):
        # the search alone solves every Dirac block, k = 3's [[0, sqrt 6],
        # [sqrt 6, 0]] included, whose top lane counts at most its index at r
        def bisect(bsq, r, idx):
            raise AssertionError(f"_bisect reached for the indices {idx.tolist()}")

        monkeypatch.setattr(tridiag, "_bisect", bisect)
        for k in [*range(1, 400, 2), 993, 2991]:
            eigvalsh_tridiagonal(*dirac_band(k))

    def test_above_the_radius_matches_the_loop(self, monkeypatch):
        # a lane with count(r) <= i ends at [prev(r), r] without counting
        # in it; against the plain loop on k = 3 (and on [[0, 3], [3, 0]]
        # above) and on random matrices whose top eigenvalue is r, a 2 x 2
        # cell with the largest off-diagonal entry
        b = dirac_band(3)[1]
        assert count_below(b * b, [_gershgorin_radius(b)]).tolist() == [1]
        got, left = self.solve(b, self.loop(b), monkeypatch)
        assert same_bits(got, self.loop(b)) and left == []
        rng = np.random.default_rng(5)
        seen = 0
        for _ in range(60):
            m = int(rng.integers(4, 24))
            scale = 10.0 ** rng.integers(-5, 6)
            b = rng.integers(-4, 5, size=m - 1) * scale
            j = int(rng.integers(0, m - 1))
            b[max(j - 1, 0) : j + 2] = 0.0
            b[j] = 9.0 * scale
            idx, r = np.arange(m - m // 2, m), _gershgorin_radius(b)
            above = count_below(b * b, [r]) <= idx
            got, left = self.solve(b, tridiag._seeds(b, b * b, idx), monkeypatch)
            assert same_bits(got, self.loop(b))
            assert not set(idx[above]) & set(left)
            seen += int(above.any())
        assert seen == 60

    def test_random_matrices(self, monkeypatch):
        # small-integer entries, about 20 % zero, at scales 1e-5 to 1e5:
        # exact, clustered and zero eigenvalues in the upper half.  A lane
        # is left to _bisect exactly when count(_MONOTONE_MIN) is above its
        # index; those lanes, often exact zeros, are not solved here
        monkeypatch.setattr(tridiag, "_bisect", lambda bsq, r, idx: np.full(idx.shape, np.nan))
        rng = np.random.default_rng(47)
        for _ in range(300):
            m = int(rng.integers(2, 40))
            b = rng.integers(-4, 5, size=m - 1) * 10.0 ** rng.integers(-5, 6)
            b[rng.random(m - 1) < 0.2] = 0.0
            idx, r, bsq = np.arange(m - m // 2, m), _gershgorin_radius(b), b * b
            got = _search(bsq, r, idx, tridiag._seeds(b, bsq, idx))
            at_zero, at_min = count_below(bsq, [0.0, tridiag._MONOTONE_MIN])
            left = np.isnan(got)
            assert at_zero <= m // 2
            assert np.array_equal(left, at_min > idx)
            assert same_bits(got[~left], _bisect(bsq, r, idx[~left]))

    @pytest.mark.parametrize("scale", [0.0, 5e-324, 1e-160, 1.0, 1e150])
    def test_count_at_zero_is_at_most_half(self, scale):
        # at 0.0 the first pivot is floored to +_PIVOT_FLOOR and a pivot
        # after a negative one is 0.0 - b^2 / q >= 0, so no two adjacent
        # pivots are negative and count(0.0) <= m // 2, at most every
        # upper-half index: the search never counts at 0.0
        rng = np.random.default_rng(31)
        for _ in range(400):
            m = int(rng.integers(1, 60))
            b = rng.normal(size=m - 1) * scale
            b[rng.random(m - 1) < 0.2] = 0.0
            (at_zero,) = count_below(b * b, [0.0])
            assert at_zero <= m // 2
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                assert at_zero == count_loop(np.zeros(m), b * b, 0.0)


class TestLimitingLaw:
    def test_law_reaches_one_at_its_edge(self):
        # F(0) = 1/2 and F(edge) = 1: the density's quadrature closes
        h, ends, table = tridiag._law_table()
        assert ends[-1] == pytest.approx(math.sqrt(16 / (3 * math.sqrt(3))), rel=1e-15)
        assert table[0] == 0.5 and table[-1] == 1.0
        assert np.all(np.diff(table) > 0)

    def test_density_at_zero_is_the_closed_form(self):
        # f(0) = (1/pi) * integral over [0, 1] of dt / sqrt(8t(1 - t^2)) = 1/c,
        # c = 4 sqrt(2 pi) Gamma(3/4) / Gamma(1/4), so c sqrt(m) is the step
        # of the middle eigenvalues
        f0 = float(tridiag._law_density(np.array([0.0]))[0])
        assert abs(f0 - 1 / C) <= 2 * np.spacing(1 / C)

    def test_density_matches_direct_quadrature(self):
        # f(x) = (1/pi) * integral of dt / sqrt(8t(1 - t^2) - x^2) over the
        # t where it is real, by the midpoint rule after t = t1 + (t2 - t1)
        # sin(u)^2, which removes the endpoint singularities
        x = np.array([0.0, 0.3, 1.0, 1.7])
        got = tridiag._law_density(x)
        u = (np.arange(20000) + 0.5) * (np.pi / 2) / 20000
        for xi, fi in zip(x, got):
            roots = np.roots([-8.0, 0.0, 8.0, -xi * xi])
            t1, t2 = sorted(t.real for t in roots if -1e-12 <= t.real <= 1)[-2:]
            t = t1 + (t2 - t1) * np.sin(u) ** 2
            dt = 2 * (t2 - t1) * np.sin(u) * np.cos(u)
            direct = np.sum(dt / np.sqrt(np.maximum(8 * t * (1 - t * t) - xi * xi, 1e-300))) * (np.pi / 2) / 20000 / np.pi
            assert fi == pytest.approx(direct, rel=1e-6)

    @pytest.mark.parametrize("k, bound", [(99, 5e-4), (401, 1.5e-4), (993, 5e-5)])
    def test_seeds_lie_within_a_small_share_of_their_gaps(self, k, bound):
        # the quantiles m^(3/2) F^-1((i + 1/2) / m) of the upper half
        # against the eigenvalues; the share falls about as 1/m (3.4e-4,
        # 8.5e-5 and 3.5e-5 here)
        m = (k + 1) // 2
        eigs = KContext(k).eigenvalues
        gaps = np.diff(eigs)
        nearest = np.minimum(np.append(gaps, np.inf), np.append(np.inf, gaps))
        idx = np.arange(m - m // 2, m)
        seeds = tridiag._law_seeds(m, idx)
        assert np.max(np.abs(seeds - eigs[idx]) / nearest[idx]) < bound

    # Over the upper half, r_i = m F(lambda_i / m^(3/2)) - (i + 1/2), with F
    # evaluated as _law_seeds does.  m max |r_i| peaks over odd k <= 399 at
    # 0.017177 (k = 399); it is bounded by 1.05 times that at every k.
    LAW_PEAK = 0.017177

    @staticmethod
    def law_residual(k):
        """m max |r_i| of the spectrum of k."""
        h, ends, table = tridiag._law_table()
        eigs = dirac_eigenvalues(k)
        m = eigs.shape[0]
        idx = np.arange(m - m // 2, m)
        x = eigs[idx] / m**1.5
        j = np.minimum((x / h).astype(np.intp), tridiag._LAW_PANELS - 1)
        law = table[j] + tridiag._law_integral(ends[j], x - ends[j])
        return m * np.max(np.abs(m * law - (idx + 0.5)))

    def test_law_bound_is_fixed_up_to_k399(self):
        # k = 1 has no positive eigenvalue
        worst = max(self.law_residual(k) for k in range(3, 400, 2))
        assert worst == pytest.approx(self.LAW_PEAK, abs=5e-7)
        assert self.law_residual(399) == worst

    @pytest.mark.parametrize("k", [999, 1999, 3999, 7999])
    def test_law_bound_holds_at_large_k(self, k):
        assert self.law_residual(k) <= 1.05 * self.LAW_PEAK


class TestMiddleOfTheSpectrum:
    # Near 0 the eigenvalues step by C sqrt(m): the smallest positive one is
    # (C/2) sqrt(m) for even m, and for odd m the first beside the kernel is
    # C sqrt(m).  m^2 times the relative deviation peaks over odd k <= 399
    # at 0.10350 for even m (k = 399) and 0.22648 for odd m (k = 397); it
    # is bounded by 1.05 times that at every k.
    PEAK = {0: 0.10350, 1: 0.22648}

    @staticmethod
    def deviation(k):
        """The parity of m and m^2 |x / (step sqrt(m)) - 1| for the first
        positive eigenvalue x of k."""
        eigs = dirac_eigenvalues(k)
        m = eigs.shape[0]
        x, step = (eigs[m // 2 + 1], C) if m % 2 else (eigs[m // 2], C / 2)
        return m % 2, m * m * abs(x / (step * math.sqrt(m)) - 1)

    def test_bound_is_fixed_up_to_k399(self):
        # k = 1 has no positive eigenvalue
        worst = {0: 0.0, 1: 0.0}
        for k in range(3, 400, 2):
            parity, dev = self.deviation(k)
            worst[parity] = max(worst[parity], dev)
        assert worst[0] == pytest.approx(self.PEAK[0], abs=5e-6) and self.deviation(399)[1] == worst[0]
        assert worst[1] == pytest.approx(self.PEAK[1], abs=5e-6) and self.deviation(397)[1] == worst[1]

    @pytest.mark.parametrize("k", [1023, 1025, 2047, 2049, 4095, 4097, 8191])
    def test_bound_holds_at_large_k(self, k):
        parity, dev = self.deviation(k)
        assert parity == ((k + 1) // 2) % 2
        assert dev <= 1.05 * self.PEAK[parity]


class TestZeroDiagonalFold:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 17, 40, 63])
    def test_antisymmetric_and_matches_full_bisection(self, m):
        rng = np.random.default_rng(m)
        b = rng.normal(size=m - 1) * 5
        got = eigvalsh_tridiagonal(np.zeros(m), b)
        assert np.array_equal(got, -got[::-1])
        if m % 2:
            assert got[m // 2] == 0.0
        half = m - m // 2
        assert np.array_equal(got[half:], bisect_all(b)[half:])
        ref = np.linalg.eigvalsh(dense(b))
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
            (3999, "bc5fc1674c211ff7db4322574e5023507420fcea2f36497996453635486c7190"),
            (7999, "9d02c0caa1c3c42f2eec6ed71c55af637587fc8153d439f9d223642855d4cbc8"),
        ],
    )
    def test_large_k_eigenvalues_are_pinned(self, k, digest):
        # sha256 of the float64 bytes of the first block's spectrum, odd
        # m = 501 and even m = 1000, 2000 and 4000, as unseeded plain
        # bisection gave them before the blocks past 200 rows were seeded
        assert hashlib.sha256(KContext(k).eigenvalues.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("k", [195, 199])
    def test_charpoly_certifies_beyond_verify_range(self, k):
        assert check_charpoly_eigs(KContext(k)).ok


def ulp_windows(points, ulps=40):
    """Every float within ``ulps`` ulps of each of ``points``."""
    out, up, down = [points], points, points
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def assert_counts_monotone(b, points):
    counts = count_below(b * b, points)
    order = np.argsort(points, kind="stable")
    assert np.all(np.diff(counts[order]) >= 0)


class TestMonotoneCounts:
    # The seeded pass implies decisions from counts at other points, so
    # it rests on count(x) <= count(y) for x < y (see the tridiag module
    # docstring): checked over every float within 40 ulps of each
    # eigenvalue, where the counts change.

    def test_dirac_blocks(self):
        for k in range(1, 400, 2):
            d, b = dirac_band(k)
            assert_counts_monotone(b, ulp_windows(np.linalg.eigvalsh(dense(b))))

    def test_random_matrices(self):
        # small-integer entries, about 20 % zero, at scales 1e-5 to 1e5:
        # exact and clustered eigenvalues, zero pivots, and points about
        # 0.0 down to the subnormals
        rng = np.random.default_rng(31)
        for _ in range(300):
            m = int(rng.integers(2, 40))
            b = rng.integers(-4, 5, size=m - 1) * 10.0 ** rng.integers(-5, 6)
            b[rng.random(m - 1) < 0.2] = 0.0
            eigs = np.linalg.eigvalsh(dense(b))
            assert_counts_monotone(b, ulp_windows(np.concatenate([eigs, [0.0]])))


class TestSturmCount:
    def test_counts_match_spectrum(self):
        rng = np.random.default_rng(5)
        b = random_offdiag(rng, 30)
        eigs = np.linalg.eigvalsh(dense(b))
        points = np.array([-50.0, -1.0, 2.5, 50.0])
        assert count_below(b * b, points).tolist() == [int(np.sum(eigs < x)) for x in points]

    def test_array_counts_equal_per_point_calls(self):
        rng = np.random.default_rng(11)
        for b in (random_offdiag(rng, 40), rng.normal(size=8)):
            eigs = np.linalg.eigvalsh(dense(b))
            # eigenvalues and the diagonal's 0 as points meet zero pivots
            points = np.concatenate([rng.normal(scale=30, size=50), eigs, [0.0, -0.0, 1e300, -1e300]])
            counts = count_below(b * b, points)
            assert counts.tolist() == [count_below(b * b, [x])[0] for x in points]

    @pytest.mark.parametrize("scale", [1e5, 0.0])
    @pytest.mark.parametrize("diag", [np.zeros(9), np.array([-0.0, 0.0] * 4 + [-0.0])])
    def test_zero_diagonal_matches_reference_loop(self, scale, diag, monkeypatch):
        # every row starts from 0.0 - x; the counts match d[i] - x pivot
        # for pivot, with either sign of zero in d, at the points that
        # make pivots zero or overflow their quotients
        b = np.random.default_rng(21).normal(size=8) * scale
        bsq = b * b
        eigs = np.linalg.eigvalsh(np.diag(b, 1) + np.diag(b, -1))
        points = np.concatenate([[0.0, -0.0, 1e300, -1e300], eigs, -eigs])
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            want = [count_loop(diag, bsq, x) for x in points]
        for block_entries in (1 << 16, 1, 50):
            monkeypatch.setattr(tridiag, "_BLOCK_ENTRIES", block_entries)
            assert tridiag.count_below(bsq, points).tolist() == want

    def test_pass_at_first_diagonal_entry_takes_one_sweep(self, monkeypatch):
        # x == d[0] == 0 makes the first pivot zero; it is floored before
        # the sweep, as the careful sweep would, so no sweep is redone
        sweeps = []
        sturm_counts = tridiag._sturm_counts

        def swept(*args, **kwargs):
            sweeps.append(kwargs["careful"])
            return sturm_counts(*args, **kwargs)

        monkeypatch.setattr(tridiag, "_sturm_counts", swept)
        b = np.array([1.5, 0.25, 2.0])
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            want = count_loop(np.zeros(4), b * b, 0.0)
        assert count_below(b * b, [0.0]).tolist() == count_below(b * b, [-0.0]).tolist() == [want] == [2]
        assert sweeps == [False, False]

    def test_counts_across_pivot_blocks(self, monkeypatch):
        # a pass sweeps the rows in blocks; the count must not depend on it
        rng = np.random.default_rng(12)
        b = random_offdiag(rng, 50)
        points = rng.normal(scale=30, size=64)
        whole = count_below(b * b, points)
        monkeypatch.setattr(tridiag, "_BLOCK_ENTRIES", 7 * 64)
        assert count_below(b * b, points).tolist() == whole.tolist()

    def test_counts_beyond_one_uint8_block(self):
        # blocks hold at most 255 rows, so a uint8 tally of a block cannot
        # wrap, and the per-block tallies add up to counts above 255
        rng = np.random.default_rng(13)
        b = random_offdiag(rng, 600)
        r = _gershgorin_radius(b)
        points = np.concatenate([[-r, r], rng.normal(scale=10, size=6)])
        want = [count_loop(np.zeros(600), b * b, x) for x in points]
        assert count_below(b * b, points).tolist() == want
        assert want[:2] == [0, 600]


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
        with pytest.raises(ValueError, match="diag must be zero"):
            eigvalsh_tridiagonal([np.nan], [])

    @pytest.mark.parametrize("entry", [1.0, -5e-324, 1e300, np.nan, np.inf, -np.inf])
    def test_nonzero_diagonal_rejected(self, entry):
        # the solver takes only zero-diagonal matrices, whose spectrum it
        # mirrors; any other diagonal entry, however small, is refused
        with pytest.raises(ValueError, match="diag must be zero"):
            eigvalsh_tridiagonal([0.0, entry, 0.0], [1.0, 2.0])

    def test_non_finite_offdiagonal(self):
        with pytest.raises(ValueError, match="finite"):
            eigvalsh_tridiagonal([0.0, 0.0], [np.inf])

    def test_offdiagonal_square_overflows(self):
        # b * b is inf: bisection would converge to the Gershgorin bound
        # 2e200 instead of the true +-sqrt(2) * 1e200
        with pytest.raises(ValueError, match="finite"):
            eigvalsh_tridiagonal([0.0, 0.0, 0.0], [1e200, 1e200])

    def test_bracket_below_half_the_maximum_solves(self):
        # the largest off-diagonals whose squares are finite keep the
        # Gershgorin radius r below 2.7e154, so 2r, and every bisection
        # midpoint, is finite
        b = np.nextafter(np.sqrt(np.finfo(np.float64).max), 0.0)
        got = eigvalsh_tridiagonal(np.zeros(3), [b, b])
        assert np.all(np.isfinite(got)) and got[1] == 0.0
        assert np.all(np.abs(got - [-np.sqrt(2) * b, 0.0, np.sqrt(2) * b]) <= 2 * np.spacing(np.sqrt(2) * b))
