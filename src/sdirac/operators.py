"""Symplectic Dirac operator blocks on the complex projective line.

For odd k the two first-order operators restrict to Hermitian tridiagonal
matrices of size m = (k+1)/2 on the normalized intertwiner basis.  They are
assembled here along two independent routes:

  * closed form -- off-diagonals a_{k,l} = sqrt(2l((k+1)^2/4 - l^2));
  * first principles -- the defining combination of Clifford multiplication
    with the su(2) generator action, pushed through the intertwiners.

The module also produces exact integer characteristic polynomials, kernels,
determinants, eigenvalues (Sturm bisection via :mod:`sdirac.tridiag`) and
the diagonal second-order operator obtained as i times the commutator.
Everything is pure per k; distinct k may be processed concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .exact import QQi
from .hermite import MVector, MultiIndex, SpinorVector, clifford_apply
from .intertwine import hom_space, normalize
from .su2 import build_rep
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
    """Hermitian tridiagonal block of one of the two Dirac operators."""

    k: int
    m: int
    basis: str  # "L" (unnormalized) or "L-circ" (normalized)
    entries: np.ndarray

    def __post_init__(self):
        if self.entries.shape != (self.m, self.m):
            raise ValueError("entry matrix has the wrong shape")


@dataclass(frozen=True)
class CharPoly:
    """Exact integer characteristic polynomial det(lambda*I - D_k),
    coefficients in ascending degree order, leading coefficient 1."""

    k: int
    coeffs: tuple

    @property
    def m(self) -> int:
        return len(self.coeffs) - 1

    def eval_exact(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def assemble_closed_form(k: int):
    """The two operator blocks, size m = (k+1)/2, in the normalized basis:
    the first is real symmetric with off-diagonal a_{k,l}; the second has
    superdiagonal -i*a_{k,l} and subdiagonal +i*a_{k,l}."""
    _require_odd(k)
    m = (k + 1) // 2
    d = np.zeros((m, m), dtype=np.complex128)
    dt = np.zeros((m, m), dtype=np.complex128)
    for l in range(1, m):
        v = a_coeff(k, l).value
        d[l - 1, l] = v
        d[l, l - 1] = v
        dt[l - 1, l] = -1j * v
        dt[l, l - 1] = 1j * v
    return (
        DiracMatrix(k, m, "L-circ", d),
        DiracMatrix(k, m, "L-circ", dt),
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


def definition_coeffs(k: int, exact: bool = True):
    """Unnormalized ladder coefficients of both operators computed from the
    defining composite (Clifford multiplication after the generator action),
    column by column.

    Returns two lists over l = 0..m-1 of (down, up) scalars; up is None at
    l = m-1, where no polynomial column exists for the raising target.
    Raises AssertionError if any column fails to land in the two adjacent
    Hermite levels, and checks that no truncation overflow occurred.
    """
    _require_odd(k)
    rep = build_rep(k)
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
        for j in range(k + 1):
            s1 = rep.e1[j0][j]
            s2 = rep.e2[j0][j]
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
            elif j == j0 + 1:
                up_d = _pure_coeff(col_d, l + 1)
                up_dt = _pure_coeff(col_dt, l + 1)
            elif not (col_d.is_zero() and col_dt.is_zero()):
                raise AssertionError(
                    f"unexpected nonzero column at j={j} (expected only j0 +- 1)"
                )
        if l < m - 1 and (up_d is None or up_dt is None):
            raise AssertionError(f"missing raising column at l={l}")
        d_coeffs.append((down_d, up_d))
        dt_coeffs.append((down_dt, up_dt))
    return d_coeffs, dt_coeffs


def assemble_from_definition(k: int):
    """Float-mode first-principles assembly of both blocks, expressed in the
    normalized basis.  Agrees with :func:`assemble_closed_form` to roundoff;
    the exact-arithmetic version of the comparison is
    :func:`assembly_matches_exact`."""
    _require_odd(k)
    m = (k + 1) // 2
    d_coeffs, dt_coeffs = definition_coeffs(k, exact=False)
    scales = [normalize(hom_space(k, l)[1]).scale for l in range(m)]
    d = np.zeros((m, m), dtype=np.complex128)
    dt = np.zeros((m, m), dtype=np.complex128)
    for l in range(m):
        down_d, up_d = d_coeffs[l]
        down_dt, up_dt = dt_coeffs[l]
        if l >= 1:
            d[l - 1, l] = down_d * scales[l] / scales[l - 1]
            dt[l - 1, l] = down_dt * scales[l] / scales[l - 1]
        if l + 1 <= m - 1:
            d[l + 1, l] = up_d * scales[l] / scales[l + 1]
            dt[l + 1, l] = up_dt * scales[l] / scales[l + 1]
    return (
        DiracMatrix(k, m, "L-circ", d),
        DiracMatrix(k, m, "L-circ", dt),
    )


def assembly_mismatch_float(k: int) -> float:
    """Max entrywise deviation between the float first-principles assembly
    and the closed form, over both blocks."""
    d_def, dt_def = assemble_from_definition(k)
    d_cf, dt_cf = assemble_closed_form(k)
    return float(
        max(
            np.max(np.abs(d_def.entries - d_cf.entries)),
            np.max(np.abs(dt_def.entries - dt_cf.entries)),
        )
    )


def assembly_matches_exact(k: int) -> bool:
    """Exact-arithmetic assembly equivalence: the first-principles ladder
    coefficients must reproduce the closed-form integers, and the squared
    normalized entries must equal the exact squares of a_{k,l}."""
    m = (k + 1) // 2
    d_coeffs, dt_coeffs = definition_coeffs(k, exact=True)
    scale_sq = [normalize(hom_space(k, l)[1]).scale_sq for l in range(m)]
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
    dim = 1 if cp.coeffs[0] == 0 else 0
    parity = ((k + 1) // 2) % 2
    if dim != parity:
        raise AssertionError(f"kernel parity rule violated at k={k}")
    return dim


def signed_det(k: int) -> int:
    """Determinant of the first block: (-1)^m times the charpoly constant
    term (zero whenever m is odd)."""
    cp = charpoly_exact(k)
    m = cp.m
    return cp.coeffs[0] if m % 2 == 0 else -cp.coeffs[0]


def abs_det(k: int) -> int:
    """|det| as an exact integer for even m = (k+1)/2, asserted against the
    product of the odd-indexed squared off-diagonals."""
    _require_odd(k)
    m = (k + 1) // 2
    if m % 2 == 1:
        raise ValueError(
            f"determinant vanishes for k={k} ((k+1)/2 odd); use kernel_dim"
        )
    c0 = charpoly_exact(k).coeffs[0]
    prod = 1
    for r in range(1, m // 2 + 1):
        prod *= a_coeff(k, 2 * r - 1).square
    if abs(c0) != prod:
        raise AssertionError(f"determinant product identity failed at k={k}")
    return abs(c0)


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


def _commutator_numeric(k: int) -> np.ndarray:
    d, dt = assemble_closed_form(k)
    return 1j * (dt.entries @ d.entries - d.entries @ dt.entries)


def p_operator(k: int, tol: float = 1e-10) -> tuple:
    """Diagonal of i[second, first] verified numerically: the commutator of
    the closed-form blocks must be diagonal within ``tol`` and round to the
    closed-form integers exactly."""
    closed = p_diag_closed(k)
    p = _commutator_numeric(k)
    off = p - np.diag(np.diag(p))
    if np.max(np.abs(off)) >= tol:
        raise AssertionError(f"commutator is not diagonal at k={k}")
    diag = np.diag(p)
    if np.max(np.abs(diag.imag)) >= tol:
        raise AssertionError(f"commutator diagonal is not real at k={k}")
    rounded = tuple(int(round(x)) for x in diag.real)
    if rounded != closed:
        raise AssertionError(f"commutator diagonal mismatch at k={k}")
    return closed


# ---------------------------------------------------------------------
# Eigenvalues
# ---------------------------------------------------------------------


def _phase_strip(entries: np.ndarray):
    """Diagonal and off-diagonal magnitudes of a Hermitian tridiagonal
    matrix; conjugation by the corresponding diagonal unitary makes it real
    symmetric without moving eigenvalues."""
    m = entries.shape[0]
    band = np.zeros_like(entries)
    idx = np.arange(m)
    band[idx, idx] = entries[idx, idx]
    band[idx[:-1], idx[:-1] + 1] = entries[idx[:-1], idx[:-1] + 1]
    band[idx[:-1] + 1, idx[:-1]] = entries[idx[:-1] + 1, idx[:-1]]
    if np.count_nonzero(entries - band):
        raise ValueError("matrix is not tridiagonal")
    if not np.allclose(entries, entries.conj().T, rtol=1e-10, atol=1e-12):
        raise ValueError("matrix is not Hermitian")
    d = np.ascontiguousarray(np.diag(entries).real)
    b = np.abs(np.diagonal(entries, offset=1))
    return d, np.ascontiguousarray(b)


def spectrum(dm: DiracMatrix) -> np.ndarray:
    """All eigenvalues of a Hermitian tridiagonal block, ascending, by
    Sturm bisection after phase-stripping to real symmetric form."""
    d, b = _phase_strip(dm.entries)
    return eigvalsh_tridiagonal(d, b)


def unitary_equivalence_exact(k: int) -> bool:
    """Entrywise check that conjugating the first block by diag(i^l) yields
    the second block exactly (hence equal spectra)."""
    d, dt = assemble_closed_form(k)
    u = np.array([_I_POW[l % 4] for l in range(d.m)])
    conj = u[:, None] * d.entries * u.conj()[None, :]
    return bool(np.array_equal(conj, dt.entries))


def norm_growth(k_max: int):
    """For each odd k <= k_max: (k, max |eigenvalue|, a_{k,1}, (k-1)/2),
    asserting the chain max|eig| >= a_{k,1} >= (k-1)/2 that drives the
    spectral unboundedness."""
    _require_odd(k_max)
    rows = []
    for k in range(1, k_max + 1, 2):
        d, _ = assemble_closed_form(k)
        eigs = spectrum(d)
        mx = float(np.max(np.abs(eigs)))
        a1 = a_coeff(k, 1)
        lower = (k - 1) // 2
        if a1.square < lower * lower:
            raise AssertionError(f"a_{{k,1}} lower bound failed at k={k}")
        if mx < a1.value - 1e-9 * (1.0 + a1.value):
            raise AssertionError(f"spectral radius fell below a_{{k,1}} at k={k}")
        rows.append((k, mx, a1.value, lower))
    return rows


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
    """Assemble, solve and verify one k; check failures are flagged, not
    raised, so a sweep always completes."""
    _require_odd(k)
    if mode not in ("float", "exact", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    m = (k + 1) // 2
    cp = charpoly_exact(k)
    d, dt = assemble_closed_form(k)
    eig_d = spectrum(d)
    eig_dt = spectrum(dt)

    checks = {}
    ok = True
    if mode in ("float", "both"):
        ok = ok and assembly_mismatch_float(k) <= tol_match
    if mode in ("exact", "both"):
        ok = ok and assembly_matches_exact(k)
    checks["assembly-match"] = ok

    checks["symmetry"] = bool(np.max(np.abs(eig_d + eig_d[::-1])) <= tol_eig)
    checks["spectra-coincide"] = bool(
        np.max(np.abs(eig_d - eig_dt)) <= tol_eig
    ) and unitary_equivalence_exact(k)

    kdim = 1 if cp.coeffs[0] == 0 else 0
    checks["kernel-rule"] = kdim == ((k + 1) // 2) % 2

    closed = p_diag_closed(k)
    p = _commutator_numeric(k)
    off_ok = float(np.max(np.abs(p - np.diag(np.diag(p))))) < tol_eig
    diag = np.diag(p)
    diag_ok = (
        float(np.max(np.abs(diag.imag))) < tol_eig
        and tuple(int(round(x)) for x in diag.real) == closed
    )
    checks["p-eigenvalues"] = off_ok and diag_ok

    a1 = a_coeff(k, 1)
    mx = float(np.max(np.abs(eig_d)))
    lower = (k - 1) // 2
    checks["norm-bound"] = (
        a1.square >= lower * lower and mx >= a1.value - 1e-9 * (1.0 + a1.value)
    )

    return SpectrumReport(
        k=k,
        m=m,
        basis="L-circ",
        eigenvalues=tuple(float(x) for x in eig_d),
        kernel_dim=kdim,
        abs_det=abs(cp.coeffs[0]),
        charpoly=cp,
        p_diag=closed,
        checks=checks,
        signed_det=cp.coeffs[0] if m % 2 == 0 else -cp.coeffs[0],
    )
