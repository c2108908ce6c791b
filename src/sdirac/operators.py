"""Symplectic Dirac operator blocks on the complex projective line.

For odd k the two first-order operators restrict to Hermitian tridiagonal
matrices of size m = (k+1)/2 on the normalized intertwiner basis.  They are
assembled here along two independent routes:

  * closed form -- off-diagonals a_{k,l} = sqrt(2l((k+1)^2/4 - l^2));
  * first principles -- the defining combination of Clifford multiplication
    with the su(2) generator action, pushed through the intertwiners.

A block is stored as its band, in the offset -> diagonal format of
:meth:`sdirac.su2.RepMatrices.bands`; the dense matrix is built only on
request (:attr:`DiracMatrix.entries`).  The module also produces exact
integer characteristic polynomials, kernels, determinants, eigenvalues
(Sturm bisection via :mod:`sdirac.tridiag`) and the diagonal second-order
operator obtained as i times the commutator, a band product of the blocks.
:class:`KContext` holds one k's rep, charpoly, blocks, bands and spectrum,
each built once, for the checks and the report.  Everything is pure per k;
distinct k may be processed concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .exact import QQi
from .hermite import MVector, MultiIndex, SpinorVector, clifford_apply
from .intertwine import hom_space, normalize
from .su2 import _bracket_defect, _dense, build_rep
from .tridiag import eigvalsh_tridiagonal

# i^l for the diagonal unitary intertwining the two operators (exact values;
# complex exponentiation would round).
_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)


def _require_odd(k: int) -> None:
    if not isinstance(k, int) or k < 1 or k % 2 == 0:
        raise ValueError(f"k must be an odd integer >= 1, got {k!r}")


class ACoeff(NamedTuple):
    square: int
    value: float


def a_coeff(k: int, l: int) -> ACoeff:
    """Off-diagonal coefficient a_{k,l}: exact square 2l((k+1)^2/4 - l^2)
    and its floating-point square root."""
    _require_odd(k)
    if l < 0 or l > (k + 1) // 2:
        raise ValueError(f"l must be in 0..{(k + 1) // 2}, got {l}")
    square = 2 * l * ((k + 1) ** 2 // 4 - l * l)
    return ACoeff(square, math.sqrt(square))


@dataclass(frozen=True)
class DiracMatrix:
    """Hermitian tridiagonal block of one of the two Dirac operators, of
    size m = (k+1)/2 in the normalized basis, stored as its band: offset
    -1, 0, 1 -> complex128 diagonal, entry t of offset o at row
    t + max(0, -o), column that + o."""

    k: int
    band: dict

    def __post_init__(self):
        _require_odd(self.k)
        m = self.m
        if {o: diag.shape for o, diag in self.band.items()} != {-1: (m - 1,), 0: (m,), 1: (m - 1,)}:
            raise ValueError(f"a block of size {m} has diagonals -1, 0, 1 of lengths {m - 1}, {m}, {m - 1}")

    @property
    def m(self) -> int:
        return (self.k + 1) // 2

    @property
    def entries(self) -> np.ndarray:
        """The dense m x m matrix, built on each request."""
        return _dense(self.band, self.m, np.complex128)


@dataclass(frozen=True)
class CharPoly:
    """Exact integer characteristic polynomial det(lambda*I - D_k),
    coefficients in ascending degree order, leading coefficient 1."""

    k: int
    coeffs: tuple

    @property
    def m(self) -> int:
        return len(self.coeffs) - 1

    @property
    def kernel_dim(self) -> int:
        """1 iff 0 is a root; the roots of a Jacobi matrix are simple."""
        return 1 if self.coeffs[0] == 0 else 0

    @property
    def signed_det(self) -> int:
        """det D_k = (-1)^m p(0)."""
        return self.coeffs[0] if self.m % 2 == 0 else -self.coeffs[0]

    def sign_at(self, num: int, den: int) -> int:
        """Sign of p(num/den) for integers num and den > 0: the sign of the
        integer den^m p(num/den), by homogeneous Horner without Fractions."""
        acc, power = self.coeffs[-1], 1
        for c in reversed(self.coeffs[:-1]):
            power *= den
            acc = acc * num + c * power
        return (acc > 0) - (acc < 0)


def assemble_closed_form(k: int):
    """The two operator blocks, size m = (k+1)/2, in the normalized basis:
    the first is real symmetric with off-diagonal a_{k,l}; the second has
    superdiagonal -i*a_{k,l} and subdiagonal +i*a_{k,l}."""
    _require_odd(k)
    m = (k + 1) // 2
    a = np.array([a_coeff(k, l).value for l in range(1, m)], dtype=np.complex128)
    return (
        DiracMatrix(k, {-1: a, 0: np.zeros(m, dtype=np.complex128), 1: a.copy()}),
        DiracMatrix(k, {-1: 1j * a, 0: np.zeros(m, dtype=np.complex128), 1: -1j * a}),
    )


def unnormalized_coeffs(k: int, l: int):
    """Ladder coefficients of the first operator on the unnormalized basis:
    down = l(k+1-2l) onto level l-1, up = (k+1)/2 + l + 1 onto level l+1."""
    _require_odd(k)
    if l < 0 or l > (k - 1) // 2:
        raise ValueError(f"l must be in 0..{(k - 1) // 2}, got {l}")
    return l * (k + 1 - 2 * l), (k + 1) // 2 + l + 1


# ---------------------------------------------------------------------
# First-principles assembly
# ---------------------------------------------------------------------


def _pure_coeff(col: SpinorVector, level: int):
    """Coefficient of h_level in a spinor required to be a pure multiple of
    it; None for the zero spinor.  Anything else is an assembly bug."""
    if col.is_zero():
        return None
    if set(col.coeffs) != {MultiIndex((level,))}:
        raise AssertionError(
            f"first-principles column is not a pure multiple of h_{level}: {col.coeffs}"
        )
    return col.coeff((level,))


def definition_coeffs(k: int, exact: bool = True, rep=None):
    """Unnormalized ladder coefficients of both operators computed from the
    defining composite (Clifford multiplication after the generator action),
    column by column.  Row j0 of e1 and e2 is read from the bands of ``rep``
    (built when not given) at its two stored columns j0 -+ 1.

    Returns two lists over l = 0..m-1 of (down, up) scalars; up is None at
    l = m-1, where no polynomial column exists for the raising target.
    Raises AssertionError if either column fails to land in its adjacent
    Hermite level, and checks that no truncation overflow occurred.
    """
    _require_odd(k)
    if rep is None:
        rep = build_rep(k)
    (sub1, sup1), (sub2, sup2) = rep.e1, rep.e2
    m = (k + 1) // 2
    x1 = MVector((1, 0))
    x2 = MVector((0, 1))
    zero = QQi(0, 0) if exact else 0j
    d_coeffs = []
    dt_coeffs = []
    for l in range(m):
        j0 = (k + 1) // 2 + l
        h_l = SpinorVector.basis(1, (l,), exact=exact)
        e1h = clifford_apply(x1, h_l)
        e2h = clifford_apply(x2, h_l)
        down_d = down_dt = zero
        up_d = up_dt = None
        # Entry (j0, j0 - 1) is sub[j0 - 1]; (j0, j0 + 1) is sup[j0] when j0 < k.
        columns = [(j0 - 1, sub1[j0 - 1], sub2[j0 - 1])]
        if j0 < k:
            columns.append((j0 + 1, sup1[j0], sup2[j0]))
        for j, s1, s2 in columns:
            if not s1 and not s2:
                continue
            if not exact:
                s1, s2 = complex(s1), complex(s2)
            col_d = e1h.scaled(-s2) + e2h.scaled(s1)
            col_dt = e1h.scaled(-s1) + e2h.scaled(-s2)
            if col_d.overflow or col_dt.overflow:
                raise AssertionError("unexpected truncation overflow in assembly")
            if j == j0 - 1:
                if l == 0:
                    if not (col_d.is_zero() and col_dt.is_zero()):
                        raise AssertionError("lowering column at l=0 did not vanish")
                else:
                    down_d = _pure_coeff(col_d, l - 1) or zero
                    down_dt = _pure_coeff(col_dt, l - 1) or zero
            else:
                up_d = _pure_coeff(col_d, l + 1)
                up_dt = _pure_coeff(col_dt, l + 1)
        if l < m - 1 and (up_d is None or up_dt is None):
            raise AssertionError(f"missing raising column at l={l}")
        d_coeffs.append((down_d, up_d))
        dt_coeffs.append((down_dt, up_dt))
    return d_coeffs, dt_coeffs


def _scale_sq(k: int) -> list:
    """Exact squared normalization factors, l = 0..m-1."""
    return [normalize(hom_space(k, l)[1]).scale_sq for l in range((k + 1) // 2)]


def assemble_from_definition(k: int, rep=None):
    """Float-mode first-principles assembly of both blocks, expressed in the
    normalized basis.  Each entry is rescaled by the square root of an exact
    ratio of consecutive squared scales, which stays a small number at
    every k.  Agrees with :func:`assemble_closed_form` to roundoff; the
    exact-arithmetic version of the comparison is
    :func:`assembly_matches_exact`."""
    _require_odd(k)
    m = (k + 1) // 2
    d_coeffs, dt_coeffs = definition_coeffs(k, exact=False, rep=rep)
    scale_sq = _scale_sq(k)
    # Column l holds (down, up) at entries (l-1, l) = sup[l-1] and (l+1, l) = sub[l].
    down_r = [math.sqrt(scale_sq[l] / scale_sq[l - 1]) for l in range(1, m)]
    up_r = [math.sqrt(scale_sq[l] / scale_sq[l + 1]) for l in range(m - 1)]

    def block(coeffs):
        sub = [up * r for (_, up), r in zip(coeffs, up_r)]
        sup = [down * r for (down, _), r in zip(coeffs[1:], down_r)]
        band = {-1: sub, 0: np.zeros(m), 1: sup}
        return DiracMatrix(k, {o: np.array(diag, dtype=np.complex128) for o, diag in band.items()})

    return block(d_coeffs), block(dt_coeffs)


def assembly_mismatch_float(k: int, rep=None, blocks=None) -> float:
    """Max entrywise deviation between the float first-principles assembly
    and the closed-form ``blocks`` (assembled when not given), over the
    bands of both blocks."""
    if blocks is None:
        blocks = assemble_closed_form(k)
    return float(
        max(
            np.max(np.abs(defined.band[o] - closed.band[o]), initial=0.0)
            for defined, closed in zip(assemble_from_definition(k, rep=rep), blocks)
            for o in (-1, 0, 1)
        )
    )


def assembly_matches_exact(k: int, rep=None) -> bool:
    """Exact-arithmetic assembly equivalence: the first-principles ladder
    coefficients must reproduce the closed-form integers, and the squared
    normalized entries must equal the exact squares of a_{k,l}."""
    m = (k + 1) // 2
    d_coeffs, dt_coeffs = definition_coeffs(k, exact=True, rep=rep)
    scale_sq = _scale_sq(k)
    for l in range(m):
        down, up = unnormalized_coeffs(k, l)
        down_d, up_d = d_coeffs[l]
        down_dt, up_dt = dt_coeffs[l]
        if down_d != QQi(down, 0) or down_dt != QQi(0, -down):
            return False
        if l < m - 1:
            if up_d != QQi(up, 0) or up_dt != QQi(0, up):
                return False
        # Consistency of the two closed forms: down(l) * up(l-1) = a^2
        if l >= 1:
            if down * (unnormalized_coeffs(k, l - 1)[1]) != a_coeff(k, l).square:
                return False
            # Normalized entry squared, exactly.
            if down * down * scale_sq[l] / scale_sq[l - 1] != a_coeff(k, l).square:
                return False
        if l + 1 <= m - 1:
            if up * up * scale_sq[l] / scale_sq[l + 1] != a_coeff(k, l + 1).square:
                return False
    return True


# ---------------------------------------------------------------------
# Exact spectral data
# ---------------------------------------------------------------------


def charpoly_exact(k: int) -> CharPoly:
    """Integer characteristic polynomial via the three-term recurrence for
    zero-diagonal Jacobi matrices: p_0 = 1, p_1 = x,
    p_j = x p_(j-1) - a_{k,j-1}^2 p_(j-2), all in big-integer arithmetic."""
    _require_odd(k)
    m = (k + 1) // 2
    p_prev = [1]
    p_cur = [0, 1]
    for j in range(2, m + 1):
        s = a_coeff(k, j - 1).square
        shifted = [0] + p_cur
        p_next = [
            shifted[i] - (s * p_prev[i] if i < len(p_prev) else 0)
            for i in range(len(shifted))
        ]
        p_prev, p_cur = p_cur, p_next
    return CharPoly(k, tuple(p_cur))


def kernel_dim(k: int) -> int:
    """1 iff the exact characteristic polynomial has zero constant term,
    cross-checked against the parity rule ((k+1)/2 odd <=> kernel)."""
    cp = charpoly_exact(k)
    if cp.kernel_dim != cp.m % 2:
        raise AssertionError(f"kernel parity rule violated at k={k}")
    return cp.kernel_dim


def signed_det(k: int) -> int:
    """Determinant of the first block: (-1)^m times the charpoly constant
    term (zero whenever m is odd)."""
    return charpoly_exact(k).signed_det


def abs_det(k: int, charpoly: CharPoly | None = None) -> int:
    """|det| as an exact integer for even m = (k+1)/2, asserted against the
    product of the odd-indexed squared off-diagonals.  ``charpoly`` is the
    exact charpoly of k, computed when not given."""
    _require_odd(k)
    m = (k + 1) // 2
    if m % 2 == 1:
        raise ValueError(
            f"determinant vanishes for k={k} ((k+1)/2 odd); use kernel_dim"
        )
    det = abs((charpoly or charpoly_exact(k)).signed_det)
    prod = 1
    for r in range(1, m // 2 + 1):
        prod *= a_coeff(k, 2 * r - 1).square
    if det != prod:
        raise AssertionError(f"determinant product identity failed at k={k}")
    return det


def p_diag_closed(k: int) -> tuple:
    """Diagonal of the second-order operator: (k+1)^2 - 3(2l+1)^2 - 1,
    asserted equal to 2(a_{k,l+1}^2 - a_{k,l}^2)."""
    _require_odd(k)
    m = (k + 1) // 2
    closed = tuple((k + 1) ** 2 - 3 * (2 * l + 1) ** 2 - 1 for l in range(m))
    alt = tuple(
        2 * (a_coeff(k, l + 1).square - a_coeff(k, l).square) for l in range(m)
    )
    if closed != alt:
        raise AssertionError(f"second-order diagonal identities disagree at k={k}")
    return closed


def check_commutator(blocks, tol: float = 1e-10) -> tuple:
    """Compare i[second, first] of the two ``blocks``, a band product in
    O(m), with :func:`p_diag_closed`.  Returns (ok, off): off is the
    largest modulus off the diagonal, and ok requires off and every
    imaginary part on the diagonal below ``tol`` and the real parts to
    round to the closed-form integers."""
    d, dt = blocks
    p = _bracket_defect(dt.band, d.band, {}, 0, d.m)
    diag = 1j * p.pop(0)
    off = max((float(np.max(np.abs(x), initial=0.0)) for x in p.values()), default=0.0)
    ok = (
        off < tol
        and float(np.max(np.abs(diag.imag))) < tol
        and tuple(int(round(x)) for x in diag.real) == p_diag_closed(d.k)
    )
    return ok, off


def p_operator(k: int, tol: float = 1e-10) -> tuple:
    """Diagonal of i[second, first], verified by :func:`check_commutator`
    on the closed-form blocks."""
    if not check_commutator(assemble_closed_form(k), tol)[0]:
        raise AssertionError(f"commutator differs from the closed-form diagonal at k={k}")
    return p_diag_closed(k)


# ---------------------------------------------------------------------
# Eigenvalues
# ---------------------------------------------------------------------


def spectrum(dm: DiracMatrix) -> np.ndarray:
    """All eigenvalues of a Hermitian tridiagonal block, ascending, by
    Sturm bisection of the real symmetric band (diagonal, |superdiagonal|),
    which conjugation by a diagonal unitary makes of the block without
    moving its eigenvalues."""
    if not all(np.allclose(dm.band[-o], dm.band[o].conj(), rtol=1e-10, atol=1e-12) for o in (0, 1)):
        raise ValueError("matrix is not Hermitian")
    return eigvalsh_tridiagonal(dm.band[0].real, np.abs(dm.band[1]))


def unitary_equivalence_exact(k: int, blocks=None) -> bool:
    """Entrywise check that conjugating the first closed-form block by
    diag(i^l) yields the second block exactly (hence equal spectra);
    ``blocks`` are assembled when not given."""
    d, dt = assemble_closed_form(k) if blocks is None else blocks
    u = np.array([_I_POW[l % 4] for l in range(d.m)])
    uc = u.conj()
    conj = {-1: u[1:] * d.band[-1] * uc[:-1], 0: u * d.band[0] * uc, 1: u[:-1] * d.band[1] * uc[1:]}
    return all(np.array_equal(conj[o], dt.band[o]) for o in conj)


def norm_bound_holds(k: int, radius: float) -> bool:
    """The chain radius >= a_{k,1} >= (k-1)/2, for the spectral radius of
    D_k, that drives the spectral unboundedness."""
    a1 = a_coeff(k, 1)
    lower = (k - 1) // 2
    return a1.square >= lower * lower and radius >= a1.value - 1e-9 * (1.0 + a1.value)


def norm_growth(k_max: int):
    """For each odd k <= k_max: (k, max |eigenvalue|, a_{k,1}, (k-1)/2),
    asserting :func:`norm_bound_holds`."""
    _require_odd(k_max)
    rows = []
    for k in range(1, k_max + 1, 2):
        radius = float(np.max(np.abs(spectrum(assemble_closed_form(k)[0]))))
        if not norm_bound_holds(k, radius):
            raise AssertionError(f"spectral radius bound failed at k={k}")
        rows.append((k, radius, a_coeff(k, 1).value, (k - 1) // 2))
    return rows


class KContext:
    """One odd k's data shared by the per-k checks and the report.  Each
    field is built on first use, once: the su(2) rep, the exact charpoly,
    the closed-form blocks, the real symmetric bands (diagonal,
    |superdiagonal|) the eigensolver sees of them, and the eigenvalues of
    the first block."""

    def __init__(self, k: int):
        self.k = k

    @cached_property
    def rep(self):
        return build_rep(self.k)

    @cached_property
    def charpoly(self) -> CharPoly:
        return charpoly_exact(self.k)

    @cached_property
    def blocks(self):
        return assemble_closed_form(self.k)

    @cached_property
    def bands(self):
        return tuple((block.band[0].real, np.abs(block.band[1])) for block in self.blocks)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return spectrum(self.blocks[0])


# ---------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------

CHECK_NAMES = (
    "assembly-match",
    "symmetry",
    "spectra-coincide",
    "kernel-rule",
    "p-eigenvalues",
    "norm-bound",
)


@dataclass(frozen=True)
class SpectrumReport:
    k: int
    m: int
    basis: str
    eigenvalues: tuple
    kernel_dim: int
    abs_det: int
    charpoly: CharPoly
    p_diag: tuple
    checks: dict
    signed_det: int


def build_report(
    k: int,
    tol_eig: float = 1e-10,
    tol_match: float = 1e-12,
    mode: str = "both",
) -> SpectrumReport:
    """Assemble, solve and verify one k with the registry checks of
    CHECK_NAMES, all on one :class:`KContext`; check failures are flagged,
    not raised, so a sweep always completes."""
    from .checks import per_k_checks  # checks imports this module

    _require_odd(k)
    if mode not in ("float", "exact", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    ctx = KContext(k)
    registry = per_k_checks(mode=mode, tol_eig=tol_eig, tol_match=tol_match)
    checks = {name: registry[name](ctx).ok for name in CHECK_NAMES}
    cp = ctx.charpoly
    return SpectrumReport(
        k=k,
        m=cp.m,
        basis="L-circ",
        eigenvalues=tuple(float(x) for x in ctx.eigenvalues),
        kernel_dim=cp.kernel_dim,
        abs_det=abs(cp.signed_det),
        charpoly=cp,
        p_diag=p_diag_closed(k),
        checks=checks,
        signed_det=cp.signed_det,
    )
