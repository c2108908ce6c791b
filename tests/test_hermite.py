"""Ladder-calculus tests: Clifford multiplication as bands, oscillator, weights."""

from fractions import Fraction

import numpy as np
import pytest

from sdirac import checks, hermite, operators
from sdirac.cli import main
from sdirac.exact import EXACT_BOUND, exact_in_double
from sdirac.hermite import clifford_band, ladder, omega0, oscillator_band, weight_on_Wl
from sdirac.operators import KContext
from sdirac.su2 import _bracket_defect, _dense

I, HALF = 1j, 0.5
BASIS = ((1, 0), (0, 1))  # X_1, X_2 as pairs (pos, der)


def as_lists(band):
    return {o: list(d) for o, d in band.items()}


def column(band, size, col):
    """Row -> entry of one column of a band, zeros left out."""
    dense = _dense(band, size, np.complex128)
    return {r: dense[r, col] for r in range(size) if dense[r, col] != 0}


class TestLadderExamples:
    def test_position_on_ground_state(self):
        # X_1 . h_0 = -(i/2) h_1, the lowering term vanishes at alpha = 0
        assert as_lists(clifford_band((1, 0), range(4))) == {-1: [-I * HALF] * 3, 1: [-I, -2 * I, -3 * I]}
        assert column(clifford_band((1, 0), range(2)), 2, 0) == {1: -I * HALF}

    def test_derivative_on_first_level(self):
        # X_2 . h_1 = -h_0 + (1/2) h_2
        assert as_lists(clifford_band((0, 1), range(3))) == {1: [-1, -2], -1: [HALF, HALF]}
        assert column(clifford_band((0, 1), range(3)), 3, 1) == {0: -1, 2: HALF}

    def test_canonical_commutator_on_ground_state(self):
        # (X_1 X_2 - X_2 X_1) h_0 = -i h_0
        x1, x2 = clifford_band((1, 0), range(3)), clifford_band((0, 1), range(3))
        assert column(_bracket_defect(x1, x2, {}, 0, 3), 3, 0) == {0: -I}

    def test_result_trunc_grows_by_one(self):
        # X_1 . h_2 = -2i h_1 - (i/2) h_3 reaches one level above h_2; on a
        # box that stops at h_2 the raising term is an explicit zero
        assert column(clifford_band((1, 0), range(4)), 4, 2) == {1: -2 * I, 3: -I * HALF}
        assert column(clifford_band((1, 0), range(3)), 3, 2) == {1: -2 * I}

    def test_dimension_mismatch(self):
        # one variable: x is one pair (pos, der), and so are omega0's operands
        for x in ((1,), (1, 0, 0), (1, 0, 0, 0)):
            with pytest.raises(ValueError, match="one pair"):
                clifford_band(x, range(3))
        with pytest.raises(ValueError, match="two pairs"):
            omega0((1, 0), (1, 0, 0, 0))

    def test_float_mode(self):
        band = clifford_band((0, 1.0), range(3))
        assert all(d.dtype == np.complex128 for d in band.values())
        assert as_lists(band) == {1: [-1, -2], -1: [0.5, 0.5]}

    @pytest.mark.parametrize("x", [(1 / 3, 0), (0, 0.25), (2.0**20, 0), (0, Fraction(1, 2))])
    def test_coordinate_outside_the_guard_is_refused(self, x):
        # 1/3 and 1/4 are off (1/2)Z, 2**20 is at the bound, and a Fraction
        # is not a double: no band is built from them
        with pytest.raises(ValueError, match="outside"):
            clifford_band(x, range(3))

    def test_level_at_the_bound_is_refused(self):
        with pytest.raises(ValueError, match="outside"):
            clifford_band((1, 0), [2**20 - 1, 2**20])
        with pytest.raises(ValueError, match="outside"):
            oscillator_band([2**20 - 2, 2**20 - 1, 2**20])


class TestBandLayout:
    def test_window_of_levels(self):
        # X_2 on h_2, h_3, h_4: lowering from h_2 and raising from h_4 leave the levels
        assert as_lists(clifford_band((0, 1), range(2, 5))) == {1: [-3, -4], -1: [HALF, HALF]}

    def test_zero_direction_is_not_stored(self):
        assert clifford_band((0, 0), range(3)) == {}
        assert clifford_band((0.0, -0.0), range(3)) == {}
        assert set(clifford_band((0, 1), range(3))) == {-1, 1}


class TestLadderFunction:
    def test_relations(self):
        # X1 . h_3 = -3i h_2 - (i/2) h_4;  X2 . h_3 = -3 h_2 + (1/2) h_4
        assert ladder(1, 0, 3) == (-3j, -0.5j)
        assert ladder(0, 1, 3) == (-3, 0.5)
        assert ladder(1.0, 0.0, 3) == (-3j, -0.5j)

    def test_integral_halves_stay_ints(self):
        # up = (der - i pos)/2 is exact in complex128: an even component
        # halves to an integer, an odd one to an exact half
        _, up = ladder(2, 3, 1)
        assert up == 1.5 - 1j
        _, up = ladder(np.array([2, 2j]), np.array([4, 6]), np.arange(2))
        assert up.tolist() == [2 - 1j, 4 + 0j]
        assert exact_in_double(up) and np.array_equal(up.real, np.round(up.real))

    def test_arrays_match_scalars(self):
        rng = np.random.default_rng(7)
        pos, der = rng.integers(-9, 10, (2, 20))
        gaussian = pos + 1j * der
        levels = np.arange(20)
        for args in ((pos, der), (gaussian, 2 * gaussian), (pos + 0j, der + 0j)):
            down, up = ladder(*args, levels)
            assert down.dtype == up.dtype == np.complex128
            scalar = [ladder(p, d, l) for p, d, l in zip(args[0].tolist(), args[1].tolist(), levels.tolist())]
            assert list(down) == [s[0] for s in scalar] and list(up) == [s[1] for s in scalar]


class TestOneLadder:
    """clifford_band and first-principles assembly share hermite.ladder, so
    the global Clifford checks test the code that assembly runs."""

    @pytest.fixture
    def patch_ladder(self, monkeypatch):
        def patch(wrong):
            for module in (hermite, operators):
                if getattr(module, "ladder", None) is ladder:
                    monkeypatch.setattr(module, "ladder", wrong)

        hermite._weights.cache_clear()
        yield patch
        hermite._weights.cache_clear()

    @pytest.fixture
    def wrong_raising(self, patch_ladder):
        def wrong(pos, der, l):
            down, up = ladder(pos, der, l)
            return down, 2 * up

        patch_ladder(wrong)

    @pytest.mark.parametrize("route", ["float", "exact", "both"])
    def test_wrong_raising_coefficient_fails_both_checks(self, wrong_raising, route, monkeypatch):
        # assembly-match catches it by each route alone: "float" passes the
        # exact identities by fiat, "exact" zeroes the float mismatch
        assert not checks.check_ladder_commutator().ok
        if route == "float":
            monkeypatch.setattr(checks, "assembly_matches_exact", lambda k, coeffs=None: True)
        elif route == "exact":
            monkeypatch.setattr(checks, "assembly_mismatch_float", lambda k, coeffs, blocks: 0.0)
        assert not checks.check_assembly(KContext(5)).ok

    def test_broken_ladder_has_a_residual(self, wrong_raising):
        assert checks.check_ladder_commutator().residual > 0
        assert checks.check_oscillator().residual > 0

    def test_entry_off_the_half_integers_fails_the_guard(self, patch_ladder):
        # down * up, and so every commutator, is unchanged; the entries are
        # not in (1/2)Z, so no double is sure to hold the products exactly
        def rescaled(pos, der, l):
            down, up = ladder(pos, der, l)
            return down * 2 / 3, up * 3 / 2

        patch_ladder(rescaled)
        result = checks.check_ladder_commutator()
        assert not result.ok and result.residual < 1e-12
        assert not exact_in_double({0: np.array([1 / 3])})
        assert not exact_in_double({0: np.array([2.0**20 + 0.5j])})
        assert exact_in_double({0: np.array([2.0**20 - 0.5 - 7.5j])})

    def test_diagonal_entry_fails_grading_with_a_residual(self, monkeypatch, capsys):
        # each of the two bands of a basis vector gains one diagonal entry,
        # which joins h_0 to itself: two entries at offset 0, not +-1
        def with_diagonal(x, levels):
            band = clifford_band(x, levels)
            band[0] = np.zeros(len(levels), dtype=complex)
            band[0][0] = 1
            return band

        monkeypatch.setattr(checks, "clifford_band", with_diagonal)
        assert main(["verify", "-k", "1", "--check", "clifford-grading"]) == 3
        assert capsys.readouterr().out == "FAIL clifford-grading k=* residual=2.000e+00\n"


class TestLadderProperties:
    @pytest.mark.parametrize("a", [0, 1])
    def test_commutator_identity_exact(self, a):
        # [X_a., X_b.] = -i omega0(X_a, X_b) id exactly, on the columns
        # l <= trunc - 2, where no term leaves the levels
        trunc = 12
        bands = [clifford_band(x, range(trunc)) for x in BASIS]
        assert exact_in_double(*bands)
        identity = {0: np.ones(trunc)}
        for xb, band_b in zip(BASIS, bands):
            defect = _bracket_defect(bands[a], band_b, identity, -1j * omega0(BASIS[a], xb), trunc)
            cols = checks._columns(defect)
            for o, d in defect.items():
                assert all(v == 0 for v in d[cols[o] <= trunc - 2]), (a, xb, o)
        assert checks.check_ladder_commutator().ok

    @pytest.mark.parametrize("a", [0, 1])
    def test_grading(self, a):
        # the column of h_3 of X_a's band holds only h_2 and h_4
        assert set(column(clifford_band(BASIS[a], range(5)), 5, 3)) == {2, 4}
        assert checks.check_grading().ok

    def test_linearity(self):
        x, y = (1, 0), (0, 1)
        a, b = 1.5, -4
        lhs = clifford_band((a, b), range(4))
        bx, by = clifford_band(x, range(4)), clifford_band(y, range(4))
        assert as_lists(lhs) == {o: list(a * bx[o] + b * by[o]) for o in (1, -1)}
        assert as_lists(lhs) == {1: [-(b + a * I) * l for l in (1, 2, 3)], -1: [(b - a * I) * HALF] * 3}


class TestOscillator:
    def test_ground_state(self):
        assert oscillator_band(range(3))[0][0] == -0.5

    def test_level_three(self):
        assert column(oscillator_band(range(6)), 6, 3) == {3: -3.5}

    def test_linearity_on_mixture(self):
        # h_0 + 2 h_1 -> -(1/2) h_0 - 3 h_1
        out = _dense(oscillator_band(range(4)), 4, np.complex128) @ np.array([1, 2, 0, 0])
        assert list(out) == [-0.5, -3, 0, 0]

    @pytest.mark.parametrize("l", range(19))
    def test_eigenvalue_closed_form(self, l):
        assert column(oscillator_band(range(l + 3)), l + 3, l) == {l: -(2 * l + 1) / 2}


class TestWeights:
    @pytest.mark.parametrize("l,expected", [(0, 1), (1, 3), (4, 9)])
    def test_small_weights(self, l, expected):
        assert weight_on_Wl(l) == expected and type(weight_on_Wl(l)) is int

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            weight_on_Wl(-1)

    def test_derived_once_per_level(self, monkeypatch):
        runs = []

        def counted(levels):
            runs.append(levels)
            return oscillator_band(levels)

        # one table per power of two, each derived once: the l = 0..101 of
        # hom-oracle at k = 99 read the table of l < 128, a band on levels
        # 0..128, and l = 7 that of l < 8, on levels 0..8
        monkeypatch.setattr(hermite, "oscillator_band", counted)
        hermite._weights.cache_clear()
        try:
            for _ in range(2):
                assert checks.check_hom_oracle(KContext(99)).ok
                assert weight_on_Wl(7) == 15
                assert weight_on_Wl(np.arange(100, 128)).tolist() == list(range(201, 257, 2))
            assert [(levels.start, levels.stop) for levels in runs] == [(0, 129), (0, 9)]
        finally:
            hermite._weights.cache_clear()

    def test_levels_past_the_guard_are_refused(self):
        # the weight of h_l reads h_(l+1), and levels stay below 2**20; the
        # last table holds l = 0 .. 2**20 - 2 only
        top = EXACT_BOUND - 2
        assert weight_on_Wl(2**19) == 2**20 + 1
        assert weight_on_Wl(top) == 2 * top + 1 and type(weight_on_Wl(top)) is int
        assert len(hermite._weights(EXACT_BOUND - 1)) == top + 1
        for l in (top + 1, 2**21, np.array([0, top + 1])):
            with pytest.raises(ValueError, match="l must be in"):
                weight_on_Wl(l)

    def test_wrong_diagonal_is_caught(self, monkeypatch):
        # -w/2 + 1 on every diagonal entry reads as the weight w - 2, and
        # the oscillator check counts each of the l it compares
        def shifted(levels):
            band = oscillator_band(levels)
            band[0] = band[0] + 1
            return band

        monkeypatch.setattr(hermite, "oscillator_band", shifted)
        hermite._weights.cache_clear()
        try:
            assert weight_on_Wl(7) == 13
            result = checks.check_oscillator()
            assert (result.ok, result.residual) == (False, checks.MAX_LEVEL + 1)
        finally:
            hermite._weights.cache_clear()


class TestWeightWindows:
    """_weights derives the table in windows of levels; the table, and the
    defects it shows, do not depend on the window size."""

    @pytest.fixture(params=[1, 5, 64])
    def window(self, request, monkeypatch):
        monkeypatch.setattr(hermite, "_WINDOW", request.param)
        hermite._weights.cache_clear()
        yield request.param
        hermite._weights.cache_clear()

    def test_table(self, window):
        assert hermite._weights(37).tolist() == list(range(1, 75, 2))

    @pytest.mark.parametrize("offset,defect", [(0, "weight mismatch at l=20"), (2, "not diagonal"), (-2, "not diagonal")])
    def test_one_wrong_column_is_caught(self, window, offset, defect, monkeypatch):
        # column 20's entry at the offset is changed in every band that
        # holds it; entry t of offset o sits at column t + max(0, o).  A
        # diagonal entry off by 1 reads as the weight 41 - 2; an entry off
        # the diagonal leaves h_20 no eigenline, and its weight reads 0
        def wrong(levels):
            band = oscillator_band(levels)
            t = 20 - levels.start - max(0, offset)
            if offset in band and 0 <= t < len(band[offset]):
                band[offset][t] += 1
            return band

        monkeypatch.setattr(hermite, "oscillator_band", wrong)
        want = list(range(1, 75, 2))
        want[20] = 39 if defect.startswith("weight mismatch") else 0
        assert hermite._weights(37).tolist() == want


class TestTypes:
    def test_omega0_standard_form(self):
        x1, x2 = BASIS
        assert omega0(x1, x2) == 1 and omega0(x2, x1) == -1
        assert omega0(x1, x1) == omega0(x2, x2) == 0
        assert omega0((2, -4), (-2, 1)) == 2 * 1 - (-4) * (-2)


class TestGlobalChecks:
    def test_registry_order(self):
        assert tuple(checks.GLOBAL_REGISTRY) == checks.GLOBAL_CHECKS
        results = checks.run_checks([], names=list(reversed(checks.GLOBAL_CHECKS)))
        assert [r.name for r in results] == list(checks.GLOBAL_CHECKS)

    def test_passing_checks_measure_zero(self):
        for check in checks.GLOBAL_REGISTRY.values():
            result = check()
            assert result.ok and result.residual == 0.0, result
