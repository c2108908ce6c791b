"""Ladder-calculus tests: Clifford multiplication as bands, oscillator, weights."""

from fractions import Fraction

import numpy as np
import pytest

from sdirac import checks, hermite, operators
from sdirac.exact import QQi
from sdirac.hermite import clifford_band, ladder, omega0, oscillator_band, weight_on_Wl
from sdirac.operators import KContext
from sdirac.su2 import _bracket_defect, _dense

I, HALF = QQi(0, 1), Fraction(1, 2)


def as_lists(band):
    return {o: list(d) for o, d in band.items()}


def column(band, size, col):
    """Row -> entry of one column of a band, zeros left out."""
    dense = _dense(band, size, object)
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
        with pytest.raises(ValueError, match="even"):
            clifford_band((1, 0, 0), range(3))
        with pytest.raises(ValueError, match="same even length"):
            omega0((1, 0), (1, 0, 0, 0))

    def test_float_mode(self):
        band = clifford_band((0, 1.0), range(3))
        assert all(d.dtype == np.complex128 for d in band.values())
        assert as_lists(band) == {1: [-1, -2], -1: [0.5, 0.5]}


class TestBandLayout:
    def test_two_dimensional_box_is_row_major(self):
        # direction 0 has stride 3, direction 1 stride 1 on the 3 x 3 box
        x1 = clifford_band((1, 0, 0, 0), range(3))
        assert as_lists(x1) == {3: [-I] * 3 + [-2 * I] * 3, -3: [-I * HALF] * 6}
        # a raising term of direction 1 at alpha_1 = 2 would wrap to the
        # next row of the box; it is dropped, as is the lowering term at 0
        x2 = clifford_band((0, 1, 0, 0), range(3))
        assert as_lists(x2) == {1: [-I, -2 * I, 0] * 2 + [-I, -2 * I], -1: [-I * HALF, -I * HALF, 0] * 2 + [-I * HALF] * 2}

    def test_window_of_levels(self):
        # X_2 on h_2, h_3, h_4: lowering from h_2 and raising from h_4 leave the box
        assert as_lists(clifford_band((0, 1), range(2, 5))) == {1: [-3, -4], -1: [HALF, HALF]}

    def test_zero_direction_is_not_stored(self):
        assert clifford_band((0, 0, 0, 0), range(3)) == {}
        assert set(clifford_band((0, 1, 0, 0), range(3))) == {-1, 1}


class TestLadderFunction:
    def test_relations(self):
        # X1 . h_3 = -3i h_2 - (i/2) h_4;  X2 . h_3 = -3 h_2 + (1/2) h_4
        assert ladder(1, 0, 3) == (QQi(0, -3), QQi(0, Fraction(-1, 2)))
        assert ladder(0, 1, 3) == (QQi(-3, 0), QQi(Fraction(1, 2), 0))
        assert ladder(1.0, 0.0, 3) == (-3j, -0.5j)

    def test_integral_halves_stay_ints(self):
        # up = (der - i pos)/2: an even component halves to an int, so exact
        # band products run int arithmetic where they can
        _, up = ladder(2, 3, 1)
        assert up == QQi(Fraction(3, 2), -1) and type(up.im) is int
        _, up = ladder(np.array([QQi(2, 0), QQi(0, 2)], dtype=object), np.array([4, 6], dtype=object), np.arange(2))
        assert [(type(v.re), type(v.im)) for v in up] == [(int, int)] * 2
        assert list(up) == [QQi(2, -1), QQi(4, 0)]

    def test_arrays_match_scalars(self):
        rng = np.random.default_rng(7)
        pos, der = rng.integers(-9, 10, (2, 20))
        qqi = np.array([QQi(p, d) for p, d in zip(pos.tolist(), der.tolist())], dtype=object)
        levels = np.arange(20)
        for args, dtype in (((pos, der), object), ((qqi, 2 * qqi), object), ((pos + 0j, der + 0j), np.complex128)):
            down, up = ladder(*args, levels)
            assert down.dtype == up.dtype == dtype
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

        hermite.weight_on_Wl.cache_clear()
        yield patch
        hermite.weight_on_Wl.cache_clear()

    @pytest.fixture
    def wrong_raising(self, patch_ladder):
        def wrong(pos, der, l):
            down, up = ladder(pos, der, l)
            return down, 2 * up

        patch_ladder(wrong)

    @pytest.mark.parametrize("mode", ["float", "exact", "both"])
    def test_wrong_raising_coefficient_fails_both_checks(self, wrong_raising, mode):
        assert not checks.check_ladder_commutator(trunc=4).ok
        assert not checks.check_assembly(KContext(5), mode=mode).ok

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
        assert not checks._exact_in_double({0: np.array([1 / 3])})
        assert not checks._exact_in_double({0: np.array([2.0**20 + 0.5j])})
        assert checks._exact_in_double({0: np.array([2.0**20 - 0.5 - 7.5j])})

    def test_wrapped_raising_entry_fails_grading(self, monkeypatch):
        # keep the raising terms of direction 1 at the top of the box: they
        # land on the next row of the flattened box, degrees apart, and
        # being the same in every band they leave the commutators intact
        def wrapped(x, levels):
            band = clifford_band(x, levels)
            if len(x) == 4 and (x[1] or x[3]):
                top = len(levels) - 1
                band[-1][top] = ladder(x[1], x[3], levels[top])[1]
            return band

        monkeypatch.setattr(checks, "clifford_band", wrapped)
        assert checks.check_ladder_commutator().ok
        assert not checks.check_grading().ok


class TestLadderProperties:
    @pytest.mark.parametrize("n", [1, 2])
    def test_commutator_identity_exact(self, n):
        # [X_a., X_b.] = -i omega0(X_a, X_b) id in Gaussian rationals, on the
        # columns of total degree <= trunc - 2, where no term leaves the box
        trunc = 12
        size = trunc**n
        interior = checks._box_degrees(n, trunc) <= trunc - 2
        basis = [tuple(int(a == c) for c in range(2 * n)) for a in range(2 * n)]
        bands = [clifford_band(x, range(trunc)) for x in basis]
        identity = {0: np.ones(size, dtype=object)}
        for xa, band_a in zip(basis, bands):
            for xb, band_b in zip(basis, bands):
                defect = _bracket_defect(band_a, band_b, identity, QQi(0, -omega0(xa, xb)), size)
                cols = checks._columns(defect)
                for o, d in defect.items():
                    assert all(v == 0 for v in d[interior[cols[o]]]), (n, xa, xb, o)
        assert checks.check_ladder_commutator().ok

    @pytest.mark.parametrize("n", [1, 2])
    def test_grading(self, n):
        # the column of h_(3,..,3) holds only degrees 3n - 1 and 3n + 1
        size = 5
        flat = sum(3 * size**j for j in range(n))
        degrees = np.indices((size,) * n).reshape(n, -1).sum(axis=0)
        for a in range(2 * n):
            x = tuple(int(a == c) for c in range(2 * n))
            rows = column(clifford_band(x, range(size)), size**n, flat)
            assert len(rows) == 2 and {degrees[r] for r in rows} == {3 * n - 1, 3 * n + 1}

    def test_linearity(self):
        x, y = (1, 0), (0, 1)
        a, b = Fraction(2, 3), -4
        lhs = clifford_band((a, b), range(4))
        bx, by = clifford_band(x, range(4)), clifford_band(y, range(4))
        assert as_lists(lhs) == {o: list(a * bx[o] + b * by[o]) for o in (1, -1)}
        assert as_lists(lhs) == {1: [-(b + a * I) * l for l in (1, 2, 3)], -1: [(b - a * I) * HALF] * 3}


class TestOscillator:
    def test_ground_state(self):
        assert oscillator_band(range(3))[0][0] == Fraction(-1, 2)

    def test_level_three(self):
        assert column(oscillator_band(range(6)), 6, 3) == {3: Fraction(-7, 2)}

    def test_linearity_on_mixture(self):
        # h_0 + 2 h_1 -> -(1/2) h_0 - 3 h_1
        out = _dense(oscillator_band(range(4)), 4, object) @ np.array([1, 2, 0, 0], dtype=object)
        assert list(out) == [Fraction(-1, 2), -3, 0, 0]

    @pytest.mark.parametrize("l", range(19))
    def test_eigenvalue_closed_form(self, l):
        assert column(oscillator_band(range(l + 3)), l + 3, l) == {l: Fraction(-(2 * l + 1), 2)}


class TestWeights:
    @pytest.mark.parametrize("l,expected", [(0, 1), (1, 3), (4, 9)])
    def test_small_weights(self, l, expected):
        assert weight_on_Wl(l) == QQi(0, expected)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            weight_on_Wl(-1)

    def test_derived_once_per_level(self, monkeypatch):
        runs = []

        def counted(levels):
            runs.append(levels)
            return oscillator_band(levels)

        monkeypatch.setattr(hermite, "oscillator_band", counted)
        weight_on_Wl.cache_clear()
        for _ in range(2):
            assert checks.check_hom_oracle(KContext(99)).ok
        assert len(runs) == 99 + 3
        assert max(len(levels) for levels in runs) == 5

    def test_wrong_diagonal_is_caught(self, monkeypatch):
        def shifted(levels):
            band = oscillator_band(levels)
            band[0] = band[0] + 1
            return band

        monkeypatch.setattr(hermite, "oscillator_band", shifted)
        weight_on_Wl.cache_clear()
        try:
            with pytest.raises(AssertionError, match="weight mismatch"):
                weight_on_Wl(7)
        finally:
            weight_on_Wl.cache_clear()


class TestTypes:
    def test_omega0_standard_form(self):
        n = 2
        basis = [tuple(int(a == c) for c in range(2 * n)) for a in range(2 * n)]
        for j in range(n):
            for k in range(n):
                assert omega0(basis[j], basis[n + k]) == (j == k)
                assert omega0(basis[j], basis[k]) == 0


class TestGlobalChecks:
    def test_registry_order(self):
        assert tuple(checks.global_checks()) == checks.GLOBAL_CHECKS
        results = checks.run_checks([], names=list(reversed(checks.GLOBAL_CHECKS)))
        assert [r.name for r in results] == list(checks.GLOBAL_CHECKS)

    def test_passing_checks_measure_zero(self):
        for check in checks.global_checks().values():
            result = check()
            assert result.ok and result.residual == 0.0, result
