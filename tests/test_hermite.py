"""Ladder-calculus tests: Clifford multiplication as bands, oscillator, weights."""

import numpy as np
import pytest

from sdirac import checks, hermite, operators
from sdirac.cli import main
from sdirac.hermite import WEIGHT_LEVELS, clifford_band, ladder, omega0, weight_on_Wl
from sdirac.operators import KContext
from sdirac.su2 import _band_mul_into, _bracket_defect, _dense

I, HALF = 1j, 0.5
BASIS = ((1, 0), (0, 1))  # X_1, X_2 as pairs (pos, der)


def as_lists(band):
    return {o: list(d) for o, d in band.items()}


def in_half_integers(*arrays):
    """Every real and imaginary part of every entry is in (1/2)Z."""
    parts = np.concatenate([p.ravel() for a in arrays for p in (np.real(a), np.imag(a))])
    return np.array_equal(2 * parts, np.round(2 * parts))


def oscillator_band(levels):
    """Band of the harmonic oscillator (X_1^2 + X_2^2)/2 on h_l, l in
    ``levels``, as the band product of two Clifford multiplications."""
    out = {}
    for x in BASIS:
        band = clifford_band(x, levels)
        _band_mul_into(out, band, band, len(levels), 1)
    return {o: 0.5 * d for o, d in out.items()}


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
        assert in_half_integers(up) and np.array_equal(up.real, np.round(up.real))

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

        return patch

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
        assert in_half_integers(*(d for band in bands for d in band.values()))
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
    """The oscillator as the band product of two Clifford multiplications,
    on whose eigenvalues -(2l+1)/2 the weights of weight_on_Wl agree."""

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
        assert -2 * column(oscillator_band(range(l + 3)), l + 3, l)[l] == weight_on_Wl(l)


class TestWeights:
    @pytest.mark.parametrize("l,expected", [(0, 1), (1, 3), (4, 9)])
    def test_small_weights(self, l, expected):
        assert weight_on_Wl(l) == expected and type(weight_on_Wl(l)) is int

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            weight_on_Wl(-1)

    def test_rejects_a_non_integer_level(self):
        # a float level is no Hermite line, not a level rounded down
        for l in (2.5, 2.0, [1.0], np.array([True])):
            with pytest.raises(TypeError, match="an int or an int array"):
                weight_on_Wl(l)

    def test_derived_at_the_l_given(self, monkeypatch):
        runs = []

        def counted(pos, der, l):
            runs.append(len(l))
            return ladder(pos, der, l)

        # each call derives its own l and no other, from six ladder calls
        # (two directions, at l, l + 1 and l - 1) on arrays of their
        # number: the l = 0..101 of hom-oracle at k = 99, then l = 7, then
        # the 28 l = 100..127, each time it is asked
        monkeypatch.setattr(hermite, "ladder", counted)
        for _ in range(2):
            assert checks.check_hom_oracle(KContext(99)).ok
            assert weight_on_Wl(7) == 15
            assert weight_on_Wl(np.arange(100, 128)).tolist() == list(range(201, 257, 2))
        assert runs == ([102] * 6 + [1] * 6 + [28] * 6) * 2

    def test_shape_and_order_are_kept(self):
        ls = np.array([[5, 0, 5], [3, 100, 1]])
        assert np.array_equal(weight_on_Wl(ls), 2 * ls + 1)

    def test_empty_l_selects_nothing(self):
        for l in ([], np.array([], dtype=np.int64), np.zeros((0, 3), dtype=int)):
            w = weight_on_Wl(l)
            assert w.dtype == np.int64 and w.shape == np.shape(l)

    def test_levels_past_the_guard_are_refused(self):
        # below 2**23 each product of two ladder coefficients, at most
        # (l+1)^2 <= 2**46, is exact in a double
        assert WEIGHT_LEVELS == 2**23
        assert weight_on_Wl(2**19) == 2**20 + 1 and type(weight_on_Wl(2**19)) is int
        for l in (WEIGHT_LEVELS, 2**40, np.array([0, WEIGHT_LEVELS])):
            with pytest.raises(ValueError, match="l must be in"):
                weight_on_Wl(l)

    def test_wrong_diagonal_is_caught(self, monkeypatch):
        # doubled raising coefficients double the diagonal and leave the
        # h_(l+2) coefficient, half the sum of their squares, 0: the weight
        # reads 2(2l+1), and the oscillator check counts each l it compares
        def doubled(pos, der, l):
            down, up = ladder(pos, der, l)
            return down, 2 * up

        monkeypatch.setattr(hermite, "ladder", doubled)
        assert weight_on_Wl(7) == 30
        result = checks.check_oscillator()
        assert (result.ok, result.residual) == (False, checks.MAX_LEVEL + 1)

    def test_weights_at_the_top_of_hom_oracle(self):
        # hom-oracle reads l <= k + 2, and its largest k stays below 2**23
        top = checks.K_LIMITS["hom-oracle"] + 2
        assert top < WEIGHT_LEVELS
        assert weight_on_Wl(np.array([0, top - 1, top])).tolist() == [1, 2 * top - 1, 2 * top + 1]

    @pytest.mark.parametrize("stop", [1, 2, 5, 64, 2**14, 2**20 - 1])
    def test_table_is_2l_plus_1(self, stop):
        table = weight_on_Wl(np.arange(stop))
        assert table.dtype == np.int64
        assert np.array_equal(table, 2 * np.arange(stop) + 1)


class TestWeightWindows:
    """weight_on_Wl derives the weights _CHUNK levels at a time; the
    weights, and the defects they show, do not depend on the chunk size."""

    @pytest.fixture(params=[1, 5, 64])
    def window(self, request, monkeypatch):
        monkeypatch.setattr(hermite, "_CHUNK", request.param)
        return request.param

    def test_table(self, window):
        assert weight_on_Wl(np.arange(37)).tolist() == list(range(1, 75, 2))

    @pytest.mark.parametrize("offset,defect", [(0, "weight mismatch at l=20"), (2, "not diagonal"), (-2, "not diagonal")])
    def test_one_wrong_column_is_caught(self, window, offset, defect, monkeypatch):
        # a ladder coefficient of level 20 moves the oscillator's coefficient
        # at the offset in column 20.  Offset 0: both raising coefficients
        # doubled double the diagonal, read as the weight 82.  Offset 2:
        # raising coefficients 0 and 1 keep the diagonal and make the
        # h_22 coefficient 1/2.  Offset -2: lowering coefficients moved by 1
        # and i keep every diagonal and make the h_18 coefficient of column
        # 20, and the h_19 one of column 21, nonzero.  A column that is not
        # diagonal leaves h_l no eigenline, and its weight reads 0
        def wrong(pos, der, l):
            down, up = ladder(pos, der, l)
            at = l == 20
            if offset == 0:
                return down, up * np.where(at, 2, 1)
            if offset == 2:
                return down, up + at * (der + 1j * pos) / 2
            return down + at * (pos + 1j * der), up

        monkeypatch.setattr(hermite, "ladder", wrong)
        want = list(range(1, 75, 2))
        want[20] = 82 if defect.startswith("weight mismatch") else 0
        if offset == -2:
            want[21] = 0
        assert weight_on_Wl(np.arange(37)).tolist() == want

    @pytest.mark.parametrize("factor", [1.5, 1 + 1j])
    def test_diagonal_off_the_integers_reads_0(self, window, factor, monkeypatch):
        # both raising coefficients of level 20 scaled by ``factor`` keep
        # the h_22 coefficient 0 and scale the diagonal of column 20: -2
        # times it is 61.5 or 41 + 41i, no integer, so h_20 is no eigenline
        def wrong(pos, der, l):
            down, up = ladder(pos, der, l)
            return down, up * np.where(l == 20, factor, 1)

        monkeypatch.setattr(hermite, "ladder", wrong)
        want = list(range(1, 75, 2))
        want[20] = 0
        assert weight_on_Wl(np.arange(37)).tolist() == want


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
