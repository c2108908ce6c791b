"""Ladder-calculus tests: Clifford multiplication, oscillator, weights."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from sdirac import checks, hermite, operators
from sdirac.exact import QQi
from sdirac.hermite import (
    MultiIndex,
    MVector,
    SpinorVector,
    clifford_apply,
    ladder,
    omega0,
    oscillator_apply,
    weight_on_Wl,
)
from sdirac.operators import KContext


def coeff_map(phi):
    return {alpha.entries: c for alpha, c in phi.coeffs.items()}


class TestLadderExamples:
    def test_position_on_ground_state(self):
        # X_1 . h_0 = -(i/2) h_1, the lowering term vanishes at alpha = 0
        out = clifford_apply(MVector((1, 0)), SpinorVector.basis(1, (0,)))
        assert coeff_map(out) == {(1,): QQi(0, Fraction(-1, 2))}

    def test_derivative_on_first_level(self):
        # X_2 . h_1 = -h_0 + (1/2) h_2
        out = clifford_apply(MVector((0, 1)), SpinorVector.basis(1, (1,)))
        assert coeff_map(out) == {(0,): QQi(-1, 0), (2,): QQi(Fraction(1, 2), 0)}

    def test_canonical_commutator_on_ground_state(self):
        # (X_1 X_2 - X_2 X_1) h_0 = -i h_0
        x1, x2 = MVector((1, 0)), MVector((0, 1))
        h0 = SpinorVector.basis(1, (0,))
        lhs = clifford_apply(x1, clifford_apply(x2, h0)) + clifford_apply(
            x2, clifford_apply(x1, h0)
        ).scaled(-1)
        assert coeff_map(lhs) == {(0,): QQi(0, -1)}

    def test_result_trunc_grows_by_one(self):
        phi = SpinorVector.basis(1, (2,), trunc=5)
        out = clifford_apply(MVector((1, 0)), phi)
        assert out.trunc == 6
        assert coeff_map(out) == {(1,): QQi(0, -2), (3,): QQi(0, Fraction(-1, 2))}

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            clifford_apply(MVector((1, 0, 0, 0)), SpinorVector.basis(1, (0,)))

    def test_float_mode(self):
        out = clifford_apply(MVector((0, 1)), SpinorVector.basis(1, (1,), exact=False))
        assert coeff_map(out) == {(0,): -1 + 0j, (2,): 0.5 + 0j}


class TestLadderFunction:
    def test_relations(self):
        # X1 . h_3 = -3i h_2 - (i/2) h_4;  X2 . h_3 = -3 h_2 + (1/2) h_4
        assert ladder(1, 0, 3) == (QQi(0, -3), QQi(0, Fraction(-1, 2)))
        assert ladder(0, 1, 3) == (QQi(-3, 0), QQi(Fraction(1, 2), 0))
        assert ladder(1.0, 0.0, 3) == (-3j, -0.5j)

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
    """clifford_apply and first-principles assembly share hermite.ladder, so
    the global Clifford checks test the code that assembly runs."""

    @pytest.fixture
    def wrong_raising(self, monkeypatch):
        def wrong(pos, der, l):
            down, up = ladder(pos, der, l)
            return down, 2 * up

        for module in (hermite, operators):
            if getattr(module, "ladder", None) is ladder:
                monkeypatch.setattr(module, "ladder", wrong)

    @pytest.mark.parametrize("mode", ["float", "exact", "both"])
    def test_wrong_raising_coefficient_fails_both_checks(self, wrong_raising, mode):
        assert not checks.check_ladder_commutator(trunc=4).ok
        assert not checks.check_assembly(KContext(5), mode=mode).ok


class TestLadderProperties:
    @pytest.mark.parametrize("n", [1, 2])
    def test_commutator_identity_exact(self, n):
        trunc = 20
        basis_vecs = [MVector.basis(n, a) for a in range(2 * n)]
        if n == 1:
            alphas = [(d,) for d in range(trunc - 1)]
        else:
            alphas = [(a, b) for a in range(trunc - 1) for b in range(trunc - 1 - a)]
        for alpha in alphas:
            phi = SpinorVector.basis(n, alpha)
            for a, b in product(range(2 * n), repeat=2):
                xa, xb = basis_vecs[a], basis_vecs[b]
                lhs = clifford_apply(xa, clifford_apply(xb, phi)) + clifford_apply(
                    xb, clifford_apply(xa, phi)
                ).scaled(-1)
                rhs = phi.scaled(QQi(0, -omega0(xa, xb)))
                assert (lhs + rhs.scaled(-1)).is_zero(), (n, alpha, a, b)

    @pytest.mark.parametrize("n", [1, 2])
    def test_grading(self, n):
        # single basis multiplication lands in adjacent degrees only
        for a in range(2 * n):
            x = MVector.basis(n, a)
            alpha = (3,) * n
            out = clifford_apply(x, SpinorVector.basis(n, alpha))
            deg = 3 * n
            assert out.degrees() <= {deg - 1, deg + 1}

    def test_linearity(self):
        n = 1
        x, y = MVector((1, 0)), MVector((0, 1))
        a, b = Fraction(2, 3), -4
        phi = SpinorVector.basis(n, (2,)) + SpinorVector.basis(n, (0,)).scaled(QQi(0, 5))
        lhs = clifford_apply(x.scaled(a) + y.scaled(b), phi)
        rhs = clifford_apply(x, phi).scaled(a) + clifford_apply(y, phi).scaled(b)
        assert (lhs + rhs.scaled(-1)).is_zero()


class TestOscillator:
    def test_ground_state(self):
        out = oscillator_apply(SpinorVector.basis(1, (0,)))
        assert coeff_map(out) == {(0,): QQi(Fraction(-1, 2), 0)}

    def test_level_three(self):
        out = oscillator_apply(SpinorVector.basis(1, (3,)))
        assert coeff_map(out) == {(3,): QQi(Fraction(-7, 2), 0)}

    def test_linearity_on_mixture(self):
        # h_0 + 2 h_1 -> -(1/2) h_0 - 3 h_1
        phi = SpinorVector.basis(1, (0,)) + SpinorVector.basis(1, (1,)).scaled(2)
        out = oscillator_apply(phi)
        assert coeff_map(out) == {
            (0,): QQi(Fraction(-1, 2), 0),
            (1,): QQi(-3, 0),
        }

    @pytest.mark.parametrize("l", range(19))
    def test_eigenvalue_closed_form(self, l):
        out = oscillator_apply(SpinorVector.basis(1, (l,)))
        assert coeff_map(out) == {(l,): QQi(Fraction(-(2 * l + 1), 2), 0)}

    def test_rejects_higher_dimension(self):
        with pytest.raises(ValueError, match="n = 1"):
            oscillator_apply(SpinorVector.basis(2, (0, 0)))


class TestWeights:
    @pytest.mark.parametrize("l,expected", [(0, 1), (1, 3), (4, 9)])
    def test_small_weights(self, l, expected):
        assert weight_on_Wl(l) == QQi(0, expected)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            weight_on_Wl(-1)

    def test_derived_once_per_level(self, monkeypatch):
        runs = []

        def counted(phi):
            runs.append(phi)
            return oscillator_apply(phi)

        monkeypatch.setattr(hermite, "oscillator_apply", counted)
        weight_on_Wl.cache_clear()
        for _ in range(2):
            assert checks.check_hom_oracle(KContext(99)).ok
        assert len(runs) == 99 + 3


class TestTypes:
    def test_multi_index_validation(self):
        with pytest.raises(ValueError):
            MultiIndex((1, -2))
        assert MultiIndex((2, 3)).degree == 5

    def test_spinor_rejects_overflowing_entry(self):
        with pytest.raises(ValueError, match="exceeds truncation"):
            SpinorVector(1, 2, {MultiIndex((3,)): QQi(1, 0)})

    def test_spinor_drops_exact_zeros(self):
        phi = SpinorVector(1, 3, {MultiIndex((1,)): QQi(0, 0), MultiIndex((2,)): QQi(1, 0)})
        assert set(coeff_map(phi)) == {(2,)}

    def test_omega0_standard_form(self):
        n = 2
        for j in range(n):
            for k in range(n):
                assert omega0(MVector.basis(n, j), MVector.basis(n, n + k)) == (j == k)
                assert omega0(MVector.basis(n, j), MVector.basis(n, k)) == 0
