"""Symplectic Dirac operator blocks on the complex projective line.

For odd k the two first-order operators restrict to Hermitian tridiagonal
matrices of size m = (k+1)/2 on the normalized intertwiner basis.  They are
assembled here along two independent routes:

  * closed form -- off-diagonals a_{k,l} = sqrt(2l((k+1)^2/4 - l^2));
  * first principles -- the defining combination of Clifford multiplication
    with the su(2) generator action, pushed through the intertwiners.  It
    runs the n = 1 ladder relations (:func:`sdirac.hermite.ladder`) once
    per k over the arrays of all levels l = 0..m-1, in complex doubles
    exact behind the guard of :mod:`sdirac.exact`, and normalizes with the
    ratio of consecutive squared scales
    (:func:`sdirac.intertwine.scale_sq_ratio`), of small integers.

A block is stored as its band, in the offset -> diagonal format of
:meth:`sdirac.su2.RepMatrices.bands`; the dense matrix is built only on
request (:attr:`DiracMatrix.entries`).  The module also produces exact
integer characteristic polynomials, kernels, determinants, eigenvalues
(Sturm bisection via :mod:`sdirac.tridiag`) and the diagonal second-order
operator obtained as i times the commutator, a band product of the blocks.
:class:`KContext` holds one k's rep, charpoly, determinant, blocks and
spectrum, each built once, for the checks and the report.  Everything
is pure per k; distinct k may be processed concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .exact import require_exact
from .hermite import ladder
from .intertwine import scale_sq_ratio
from .su2 import _bracket_defect, _dense, build_rep
from .tridiag import eigvalsh_tridiagonal

# The last odd k whose squares a_{k,l}^2, at most 0.77 ((k+1)/2)^3, are below 2**63.
A_SQUARES_MAX_K = 4_576_503


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


def a_squares(k: int) -> np.ndarray:
    """The exact squares a_{k,l}^2 = 2l((k+1)^2/4 - l^2) of :func:`a_coeff`,
    l = 0..m, as one int64 array (ValueError past A_SQUARES_MAX_K).  A
    big-integer route reads them by ``.tolist()``, never as int64 scalars."""
    _require_odd(k)
    if k > A_SQUARES_MAX_K:
        raise ValueError(f"the squares a_(k,l)^2 leave int64 past k = {A_SQUARES_MAX_K}, got {k}")
    l, m = np.arange((k + 3) // 2, dtype=np.int64), (k + 1) // 2
    return 2 * l * (m * m - l * l)


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
    """Exact integer characteristic polynomial det(lambda*I - D_k) of a
    zero-diagonal block, stored as its parity half: p(x) = x^parity q(x^2),
    with q's coefficients in ascending degree order, leading coefficient 1."""

    q: tuple
    parity: int

    @property
    def m(self) -> int:
        return 2 * (len(self.q) - 1) + self.parity

    @property
    def coeffs(self) -> tuple:
        """p's m + 1 coefficients in ascending degree order, zeros included."""
        coeffs = [0] * (self.m + 1)
        coeffs[self.parity :: 2] = self.q
        return tuple(coeffs)

    def sign_at(self, x: float) -> int:
        """Sign of p(x) at the float x, exactly.  x = n / 2^s is a dyadic
        rational, and the sign is that of the integer 2^(s m) p(x) =
        n^parity 2^(2 s d) q(n^2 / 2^(2s)), d = deg q: one Horner over q in
        y = n^2, its coefficients shifted, not multiplied, by powers of
        2^(2s).  That is m/2 steps, each growing by the bits of n^2."""
        n, den = float(x).as_integer_ratio()
        s = den.bit_length() - 1
        y, acc = n * n, 0
        for t, c in enumerate(reversed(self.q)):
            acc = acc * y + (c << 2 * s * t)
        total = n**self.parity * acc
        return (total > 0) - (total < 0)


def assemble_closed_form(k: int):
    """The two operator blocks, size m = (k+1)/2, in the normalized basis:
    the first is real symmetric with off-diagonal a_{k,l}; the second has
    superdiagonal -i*a_{k,l} and subdiagonal +i*a_{k,l}."""
    _require_odd(k)
    m = (k + 1) // 2
    # np.sqrt rounds the float64 squares correctly, as math.sqrt does
    a = np.sqrt(a_squares(k)[1:m].astype(np.float64)).astype(np.complex128)
    return (
        DiracMatrix(k, {-1: a, 0: np.zeros(m, dtype=np.complex128), 1: a.copy()}),
        DiracMatrix(k, {-1: 1j * a, 0: np.zeros(m, dtype=np.complex128), 1: -1j * a}),
    )


def unnormalized_coeffs(k: int):
    """Ladder coefficients of the first operator on the unnormalized basis,
    int64 arrays over l = 0..(k-1)/2: down[l] = l(k+1-2l) onto level l-1,
    up[l] = (k+1)/2 + l + 1 onto level l+1."""
    _require_odd(k)
    l = np.arange((k + 1) // 2, dtype=np.int64)
    return l * (k + 1 - 2 * l), (k + 1) // 2 + l + 1


# ---------------------------------------------------------------------
# First-principles assembly
# ---------------------------------------------------------------------


def definition_coeffs(k: int, rep=None):
    """Unnormalized ladder coefficients of both operators computed from the
    defining composite (Clifford multiplication after the generator action),
    over all levels at once.  Column l of an operator is its composite on
    h_l at row j0 = (k+1)/2 + l of e1 = R and e2 = i S, whose two stored
    entries, columns j0 -+ 1, are read as arrays from the bands of ``rep``
    (built when not given).  Entry j of row j0 turns h_l into
    (e1[j0, j] X_2 - e2[j0, j] X_1) h_l for the first operator and
    -(e1[j0, j] X_1 + e2[j0, j] X_2) h_l for the second.

    Returns ((down, up), (down, up)), one pair per operator, as complex128:
    down[l], for l = 0..m-1, is the coefficient of h_(l-1) from column
    j0 - 1 (0 at l = 0), and up[l], for l = 0..m-2, that of h_(l+1) from
    column j0 + 1 (at l = m-1 no raising column exists).  The entries read
    and the levels must pass the guard of :mod:`sdirac.exact`, which makes
    the values exact, or ValueError.  Raises AssertionError if either column has a part off its adjacent
    Hermite level.
    """
    _require_odd(k)
    if rep is None:
        rep = build_rep(k)
    h = (k + 1) // 2
    # Entry (j0, j0 - 1) is sub[j0 - 1]; (j0, j0 + 1) is sup[j0], for j0 < k.
    lo1, hi1 = rep.r[0][h - 1:], rep.r[1][h:]
    lo2, hi2 = 1j * rep.s[0][h - 1:], 1j * rep.s[1][h:]
    levels = np.arange(h)
    require_exact(lo1, hi1, lo2, hi2, levels)
    lowering = (ladder(-lo2, lo1, levels), ladder(-lo1, -lo2, levels))
    raising = (ladder(-hi2, hi1, levels[:-1]), ladder(-hi1, -hi2, levels[:-1]))
    if any(np.any(low[1]) or np.any(high[0]) for low, high in zip(lowering, raising)):
        raise AssertionError(f"a first-principles column at k={k} leaves its adjacent Hermite level")
    return tuple((low[0], high[1]) for low, high in zip(lowering, raising))


def assemble_from_definition(k: int, coeffs=None):
    """Float-mode first-principles assembly of both blocks, expressed in the
    normalized basis, from the :func:`definition_coeffs` of k (computed
    when ``coeffs`` is not given).  Column l holds down[l] at entry (l-1, l) = sup[l-1]
    and up[l] at entry (l+1, l) = sub[l], rescaled by the square roots of
    scale_sq[l]/scale_sq[l-1] and scale_sq[l]/scale_sq[l+1], each a ratio
    of small integers (:func:`sdirac.intertwine.scale_sq_ratio`) rounded
    once.  Agrees with :func:`assemble_closed_form` to roundoff; the
    exact-arithmetic version of the comparison is
    :func:`assembly_matches_exact`."""
    _require_odd(k)
    m = (k + 1) // 2
    num, den = scale_sq_ratio(k)
    lower, upper = np.sqrt(num / den), np.sqrt(den / num)
    return tuple(
        DiracMatrix(k, {-1: up * upper, 0: np.zeros(m, dtype=np.complex128), 1: down[1:] * lower})
        for down, up in (definition_coeffs(k) if coeffs is None else coeffs)
    )


def assembly_mismatch_float(k: int, coeffs, blocks) -> float:
    """Max entrywise deviation between the float first-principles assembly
    from ``coeffs`` and the closed-form ``blocks``, over the bands of both
    blocks."""
    return float(
        max(
            np.max(np.abs(defined.band[o] - closed.band[o]), initial=0.0)
            for defined, closed in zip(assemble_from_definition(k, coeffs), blocks)
            for o in (-1, 0, 1)
        )
    )


def assembly_matches_exact(k: int, coeffs=None) -> bool:
    """Exact-arithmetic assembly equivalence: the first-principles ladder
    coefficients ``coeffs`` (:func:`definition_coeffs` of k, computed when
    not given) must equal the closed-form integers, and the squared normalized entries the exact
    squares of a_{k,l}.  With scale_sq[l]/scale_sq[l-1] = num/den, those
    are down(l)^2 num = a_l^2 den and up(l-1)^2 den = a_l^2 num; with
    a_l^2 = down(l) up(l-1), also checked, and down, up > 0, both reduce
    to down(l) num = up(l-1) den.  Every product is at most m^3 < k^3
    (down, den <= m^2/2 and up, num <= 2m), below 2**63 for every k
    below 2**21, so for every k the check's K_LIMITS admits."""
    (down_d, up_d), (down_dt, up_dt) = definition_coeffs(k) if coeffs is None else coeffs
    down, up = unnormalized_coeffs(k)
    up, a_sq, (num, den) = up[:-1], a_squares(k)[1:-1], scale_sq_ratio(k)
    # the guard keeps k below 2**21, so the closed forms, below k^2, are
    # doubles exactly
    down_c, up_c = down.astype(np.float64), up.astype(np.float64)
    expected = ((down_d, down_c), (down_dt, -1j * down_c), (up_d, up_c), (up_dt, 1j * up_c))
    return bool(
        all(np.array_equal(x, y) for x, y in expected)
        # consistency of the two closed forms: down(l) * up(l-1) = a_l^2
        and np.array_equal(down[1:] * up, a_sq)
        and np.array_equal(down[1:] * num, up * den)
    )


# ---------------------------------------------------------------------
# Exact spectral data
# ---------------------------------------------------------------------


def charpoly_exact(k: int) -> CharPoly:
    """Integer characteristic polynomial via the three-term recurrence for
    zero-diagonal Jacobi matrices: p_0 = 1, p_1 = x,
    p_j = x p_(j-1) - a_{k,j-1}^2 p_(j-2), all in big-integer arithmetic.

    p_j has the parity of j, so only its nonzero coefficients are kept,
    lowest degree first: p_j = x^(j%2) sum_r Q_j[r] x^(2r), and
    Q_j[r] = Q_(j-1)[r - 1 + j%2] - a_{k,j-1}^2 Q_(j-2)[r].  Building each
    Q_j from its lowest-degree coefficient, the largest, up keeps the peak
    heap at that of the full recurrence.  Q_m is the q of the result."""
    _require_odd(k)
    m = (k + 1) // 2
    q_prev, q_cur = [1], [1]
    for j, s in zip(range(2, m + 1), a_squares(k)[1:m].tolist()):
        q_prev, q_cur = q_cur, [c - s * b for c, b in zip(q_cur if j % 2 else [0] + q_cur, q_prev + [0])]
    return CharPoly(tuple(q_cur), m % 2)


def _product(factors: list) -> int:
    """The product of a list of ints as a balanced tree, so that operands of
    about equal size meet: n growing factors cost about log2(n) products of
    the result's size, not n; runs of up to 16 factors go left to right."""
    if len(factors) <= 16:
        return math.prod(factors)
    half = len(factors) // 2
    return _product(factors[:half]) * _product(factors[half:])


def signed_det(k: int) -> int:
    """det D_k of the first block, exactly, from the zero-diagonal
    continuant D_0 = 1, D_1 = 0, D_j = -a_{k,j-1}^2 D_(j-2): 0 for odd m,
    else the :func:`_product` of the factors -a_{k,j-1}^2 of the even
    j <= m.  Equal to (-1)^m p(0) for the charpoly p of
    :func:`charpoly_exact`, which takes about m^2/4 big-integer steps."""
    _require_odd(k)
    m = (k + 1) // 2
    return 0 if m % 2 else _product((-a_squares(k)[1:m:2]).tolist())


def p_diag_closed(k: int) -> tuple:
    """Diagonal of the second-order operator: (k+1)^2 - 3(2l+1)^2 - 1,
    asserted equal to 2(a_{k,l+1}^2 - a_{k,l}^2), both in int64."""
    _require_odd(k)
    l = np.arange((k + 1) // 2, dtype=np.int64)
    closed = (k + 1) ** 2 - 3 * (2 * l + 1) ** 2 - 1
    if not np.array_equal(closed, 2 * np.diff(a_squares(k))):
        raise AssertionError(f"second-order diagonal identities disagree at k={k}")
    return tuple(closed.tolist())


def check_commutator(blocks, closed) -> tuple:
    """Compare i[second, first] of the two ``blocks``, a band product in
    O(m), with ``closed``, their k's :func:`p_diag_closed`.  Returns
    (ok, off): off is the largest modulus off the diagonal, and ok requires
    off and every imaginary part on the diagonal to be 0 and each real part
    within 16 u (s_l + s_(l+1)) of its closed-form integer,
    u = 2**-53, s_l = |b_l|^2 for the superdiagonal b of the first block
    and s_0 = s_m = 0; no nan or inf is.  Entry l, 2(a_(l+1)^2 - a_l^2),
    sums four products, each a_j^2 within 4u (a_j^2 rounds to a double,
    its root twice, the product once), in three additions, each rounding
    by u of at most 2(a_l^2 + a_(l+1)^2): 14 u (a_l^2 + a_(l+1)^2) to
    first order, and s_l is a_l^2 within 4u.  From k = 227,023 the sums
    pass 2**52 and an entry may round next to its closed form.  The zeros
    are exact: off the diagonal and in the imaginary part of the diagonal
    the two products of the bracket multiply the same doubles, in the other
    order and sign, and IEEE products commute."""
    d, dt = blocks
    p = _bracket_defect(dt.band, d.band, {}, 0, d.m)
    diag = 1j * p.pop(0)
    off = max((float(np.max(np.abs(x), initial=0.0)) for x in p.values()), default=0.0)
    s = np.abs(d.band[1]) ** 2
    tol = 16 * 2.0**-53 * (np.append(0.0, s) + np.append(s, 0.0))
    ok = (
        off == 0.0
        and not np.any(diag.imag)
        and bool(np.all(np.abs(diag.real - np.array(closed, dtype=np.float64)) <= tol))
    )
    return ok, off


def p_operator(k: int) -> tuple:
    """Diagonal of i[second, first], verified by :func:`check_commutator`
    on the closed-form blocks."""
    closed = p_diag_closed(k)
    if not check_commutator(assemble_closed_form(k), closed)[0]:
        raise AssertionError(f"commutator differs from the closed-form diagonal at k={k}")
    return closed


# ---------------------------------------------------------------------
# Eigenvalues
# ---------------------------------------------------------------------


def spectrum(dm: DiracMatrix) -> np.ndarray:
    """All eigenvalues of a Hermitian tridiagonal block with zero diagonal
    (ValueError otherwise), ascending, by Sturm bisection of the real
    symmetric band (diagonal, |superdiagonal|), which conjugation by a
    diagonal unitary makes of the block without moving its eigenvalues."""
    # the tolerance of np.allclose(lower, upper, rtol=1e-10, atol=1e-12) in
    # one comparison, which every nan and inf fails
    lower = np.concatenate((dm.band[-1], dm.band[0]))
    upper = np.concatenate((dm.band[1], dm.band[0])).conj()
    with np.errstate(invalid="ignore"):
        if not (np.abs(lower - upper) - 1e-10 * np.abs(upper) <= 1e-12).all():
            raise ValueError("matrix is not Hermitian")
    return eigvalsh_tridiagonal(dm.band[0].real, np.abs(dm.band[1]))


class KContext:
    """One odd k's data shared by the per-k checks and the report.  Each
    field is built on first use, once: the su(2) rep, the exact charpoly,
    the exact determinant of the first block, the closed-form blocks, the
    eigenvalues of the first block, and the closed-form diagonal of
    i[second, first].  Raises ValueError unless k is an odd
    integer >= 1."""

    def __init__(self, k: int):
        _require_odd(k)
        self.k = k

    @cached_property
    def rep(self):
        return build_rep(self.k)

    @cached_property
    def charpoly(self) -> CharPoly:
        return charpoly_exact(self.k)

    @cached_property
    def det(self) -> int:
        return signed_det(self.k)

    @cached_property
    def blocks(self):
        return assemble_closed_form(self.k)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return spectrum(self.blocks[0])

    @cached_property
    def p_diag(self) -> tuple:
        return p_diag_closed(self.k)


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


def build_report(k: int) -> dict:
    """Assemble, solve and verify one k with the registry checks of
    CHECK_NAMES, all on one :class:`KContext`; check failures are flagged,
    not raised, so a sweep always completes.  Returns the report as the
    dict that ``spectrum`` serializes, in its key order."""
    from .checks import PER_K_REGISTRY  # checks imports this module

    ctx = KContext(k)
    checks = {name: PER_K_REGISTRY[name](ctx).ok for name in CHECK_NAMES}
    cp, det = ctx.charpoly, ctx.det
    return {
        "k": k,
        "m": cp.m,
        "basis": "L-circ",
        "eigenvalues": ctx.eigenvalues.tolist(),
        "kernel_dim": int(det == 0),
        "abs_det": abs(det),
        "charpoly": list(cp.coeffs),
        "p_diag": list(ctx.p_diag),
        "checks": checks,
        "signed_det": det,
    }
