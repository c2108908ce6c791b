"""Named invariant checks backing the ``verify`` CLI command and the
``checks`` of every spectrum report.

Each check returns pass/fail plus a measured residual so failures are
diagnosable from the command line.  Global checks are k-independent: the
Clifford relations, grading and linearity, read off the bands of
Clifford multiplication by X_1 and X_2 on the Hermite functions h_l of one
variable (:func:`sdirac.hermite.clifford_band`) multiplied by the one band
product of :mod:`sdirac.su2`, and the oscillator eigenvalues
(:func:`sdirac.hermite.weight_on_Wl`), exact in complex128.  Per-k checks
cover the representation matrices, the intertwiner spaces and the
assembled operator blocks; the su(2), weight and determinant checks
compare int64 arrays and report exact defects, the last on the factors of
the determinant's continuant.  All per-k checks of one k read one
:class:`sdirac.operators.KContext`, so its rep, charpoly, determinant
factors, blocks and spectrum are each built once per k, and a check that
does not read the charpoly never builds it.  A check over many l makes
one call, over the array of them, to the function it is named after.
A float residual that IEEE arithmetic makes an exact zero, such as the
asymmetry of the mirrored spectrum, must be 0.  ``charpoly-eigs``
certifies each eigenvalue to 4 m eps by a Sturm count, and the printed
integer charpoly by a second recurrence, on the Gram matrix B^T B.

The check names are a contract: ``verify`` prints one line per check (and
k), and the benchmark under ``bench/`` fails an operation for each line or
report flag it misses.  A check that the storage format makes true, such as
``su2-weights`` or ``symmetry``, therefore stays and runs in O(k).
:func:`sdirac.operators.spectrum` stays importable from here for the same
reader.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .hermite import clifford_band, omega0, weight_on_Wl
from .intertwine import equivariance_residual, hom_space, hom_space_oracle
from .operators import (
    A_SQUARES_MAX_K,
    KContext,
    a_coeff,
    a_squares,
    assembly_matches_exact,
    assembly_mismatch_float,
    check_commutator,
    definition_coeffs,
    spectrum,  # noqa: F401 - kept importable from here; bench/selftest.py reads it
    unnormalized_coeffs,
)
from .su2 import _bracket_defect, bracket_defect
from .tridiag import _PIVOT_FLOOR, count_below


@dataclass(frozen=True)
class CheckResult:
    name: str
    k: int | None  # None for k-independent checks
    ok: bool
    residual: float


def _columns(band):
    """Offset -> column index of each stored entry: entry t of offset o
    sits at column t + max(0, o)."""
    return {o: np.arange(len(d)) + max(0, o) for o, d in band.items()}


def _wrong_entries(got, want) -> int:
    """Number of entries of ``got`` that differ from the array ``want``;
    all of them if the lengths differ."""
    got = np.asarray(got)
    if got.shape != want.shape:
        return max(got.size, want.size)
    return int(np.count_nonzero(got != want))


# -- global checks ------------------------------------------------------

# The Clifford checks' bands hold levels 0..TRUNC-1; oscillator reads l <= MAX_LEVEL.
TRUNC, MAX_LEVEL = 20, 18

# The basis X_1, X_2 as pairs (pos, der).
_BASIS = ((1.0, 0.0), (0.0, 1.0))


def check_ladder_commutator() -> CheckResult:
    """[X_a., X_b.] = -i omega0(X_a, X_b) id for every pair of basis
    vectors, read on the columns l <= TRUNC - 2 of the bands on levels
    0..TRUNC-1, where no term of the products leaves the levels.  The
    residual is the largest defect modulus there.

    The result is exact: every band entry is an integer below TRUNC or a
    half, so each defect entry, a sum of at most five products of two
    entries, is held by a double."""
    bands = [clifford_band(x, range(TRUNC)) for x in _BASIS]
    identity = {0: np.ones(TRUNC)}
    worst = 0.0
    for (xa, band_a), (xb, band_b) in product(zip(_BASIS, bands), repeat=2):
        defect = _bracket_defect(band_a, band_b, identity, -1j * omega0(xa, xb), TRUNC)
        cols = _columns(defect)
        worst = max(worst, *(np.max(np.abs(d[cols[o] <= TRUNC - 2]), initial=0.0) for o, d in defect.items()))
    return CheckResult("clifford-ladder", None, worst == 0.0, float(worst))


def check_grading() -> CheckResult:
    """A single Clifford multiplication moves h_l into h_(l-1) and h_(l+1)
    only: every nonzero entry of the band of a basis vector lies at offset
    +-1.  The residual is the number of nonzero entries that do not, an
    exact defect count."""
    bands = [clifford_band(x, range(TRUNC)) for x in _BASIS]
    wrong = sum(np.count_nonzero(d) for band in bands for o, d in band.items() if abs(o) != 1)
    return CheckResult("clifford-grading", None, wrong == 0, float(wrong))


def check_linearity() -> CheckResult:
    """band(a x + b y) = a band(x) + b band(y), exactly, on the sample
    x = (2, -4), y = (-2, 1), a = 3/2, b = -5, whose integral
    a x + b y = (13, -11) keeps every band entry in (1/2)Z, below 100, so
    every product and sum is exact.  The residual is the largest
    |lhs - rhs| entry."""
    x, y = (2, -4), (-2, 1)
    a, b = 1.5, -5
    levels = range(5)
    lhs = clifford_band((a * x[0] + b * y[0], a * x[1] + b * y[1]), levels)
    bx, by = clifford_band(x, levels), clifford_band(y, levels)
    diff = [lhs.get(o, 0) - a * bx.get(o, 0) - b * by.get(o, 0) for o in {*lhs, *bx, *by}]
    worst = float(max(np.max(np.abs(d)) for d in diff))
    return CheckResult("clifford-linearity", None, worst == 0.0, worst)


def check_oscillator() -> CheckResult:
    """The circle weights that :func:`sdirac.hermite.weight_on_Wl` reads
    off the ladder's closed form of the oscillator are 2l+1 for
    l <= MAX_LEVEL: each h_l is an eigenline with eigenvalue -(2l+1)/2.
    ``hom-oracle`` and ``equivariance`` read the same weights.  The
    residual is the number of wrong l, an exact defect count."""
    ls = np.arange(MAX_LEVEL + 1)
    wrong = _wrong_entries(weight_on_Wl(ls), 2 * ls + 1)
    return CheckResult("oscillator", None, wrong == 0, float(wrong))


# -- per-k checks: each reads one shared KContext ---------------------------


def check_su2_bracket(ctx: KContext) -> CheckResult:
    """The su(2) brackets hold exactly on the int64 bands.  The residual is
    :func:`sdirac.su2.bracket_defect`, an exact defect, 0 when passing, and
    inf where a stored entry could overflow int64."""
    defect = bracket_defect(ctx.rep)
    return CheckResult("su2-bracket", ctx.k, defect == 0, float(defect))


def check_su2_weights(ctx: KContext) -> CheckResult:
    """e0 = i W holds the simple weights W[j] = 2j - k.  Kept although
    :func:`sdirac.su2.build_rep` writes exactly these: it is one of the
    benchmark's verify lines, and it inspects the weights that
    ``hom-oracle`` and ``equivariance`` read.  The residual is the number
    of wrong entries, an exact defect count."""
    k = ctx.k
    wrong = _wrong_entries(ctx.rep.w, 2 * np.arange(k + 1) - k)
    return CheckResult("su2-weights", k, wrong == 0, float(wrong))


def check_su2_structure(ctx: KContext) -> CheckResult:
    """e1 = R is real and e2 = i S imaginary, both tridiagonal with zero
    diagonal, by storage; the check compares the 4k stored integers with
    the formulas of :func:`sdirac.su2.build_rep`: sub-diagonals j - k,
    super-diagonals j + 1 in R and -(j + 1) in S.  Kept although true by
    construction: it is one of the benchmark's verify lines.  The residual
    is the number of wrong entries, an exact defect count."""
    k, rep = ctx.k, ctx.rep
    j = np.arange(k)
    wrong = sum(map(_wrong_entries, (*rep.r, *rep.s), (j - k, j + 1, j - k, -j - 1)))
    return CheckResult("su2-structure", k, wrong == 0, float(wrong))


def check_hom_oracle(ctx: KContext) -> CheckResult:
    """Weight-matching dimensions equal the oracle's (the number of weights
    W[j] equal to the circle weight 2l+1 of h_l) for l = 0..k+2.  The
    residual is the number of l whose dimensions differ, an exact defect
    count."""
    k, ls = ctx.k, np.arange(ctx.k + 3)
    wrong = int(np.count_nonzero(hom_space(k, ls) != hom_space_oracle(k, ls, rep=ctx.rep)))
    return CheckResult("hom-oracle", k, wrong == 0, float(wrong))


def check_hom_dim(ctx: KContext) -> CheckResult:
    """The weight-matching dimensions of l = 0..k+1 add up to (k+1)/2, one
    generator per basis vector of a block.  The residual is the absolute
    difference, an exact defect count."""
    k = ctx.k
    wrong = abs(int(np.sum(hom_space(k, np.arange(k + 2)))) - (k + 1) // 2)
    return CheckResult("hom-dim", k, wrong == 0, float(wrong))


def check_equivariance(ctx: KContext) -> CheckResult:
    """The canonical generators satisfy the full weight-intertwining
    identity exactly, not just by dimension count.  The residual is the
    number of l whose generator fails it, an exact defect count."""
    k = ctx.k
    wrong = int(np.count_nonzero(~equivariance_residual(k, np.arange((k + 1) // 2), rep=ctx.rep)))
    return CheckResult("equivariance", k, wrong == 0, float(wrong))


# Share of the largest closed-form entry (at least 1) that float assembly may
# miss by: the entries grow like k^1.5, and so does one ulp of them.
TOL_MATCH = 1e-12


def check_assembly(ctx: KContext) -> CheckResult:
    """First-principles assembly against the closed form, in floats within
    TOL_MATCH and exactly (:func:`assembly_matches_exact`), both from one
    :func:`definition_coeffs` of the context's rep.  The residual is the
    float mismatch."""
    k = ctx.k
    coeffs = definition_coeffs(k, rep=ctx.rep)
    res = assembly_mismatch_float(k, coeffs, ctx.blocks)
    largest = float(np.max(np.abs(ctx.blocks[0].band[1]), initial=0.0))
    ok = res <= TOL_MATCH * max(1.0, largest) and assembly_matches_exact(k, coeffs=coeffs)
    return CheckResult("assembly-match", k, ok, res)


def _eigenvalues(ctx: KContext):
    """The context's eigenvalues, or None where the eigensolver refuses the
    block, as it does a nonzero diagonal: the checks that read them FAIL."""
    try:
        return ctx.eigenvalues
    except ValueError:
        return None


def check_symmetry(ctx: KContext) -> CheckResult:
    """Spectrum symmetric about 0: the residual max |x + x[::-1]| must be
    0.  The eigensolver mirrors the positive half of every zero-diagonal
    block, so it is 0 by construction; ``charpoly-parity`` certifies the
    symmetry exactly.  The check stays: ``verify`` prints one line per
    check and k, and a benchmark workload selects it by name."""
    eigs = _eigenvalues(ctx)
    res = np.nan if eigs is None else float(np.max(np.abs(eigs + eigs[::-1])))
    return CheckResult("symmetry", ctx.k, res == 0.0, res)


_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)  # i^l, exactly: complex ** would round


def check_coincide(ctx: KContext) -> CheckResult:
    """Conjugating the first closed-form block by U = diag(i^l) yields the
    second exactly, so their spectra coincide.  U D U* scales entry
    (r, r + o) by i^r i^-(r+o) = i^-o, one factor of +-1 or +-i per band,
    which is exact; so the bands the eigensolver sees of the two blocks,
    (diagonal, |superdiagonal|), are identical too.  The residual is the
    number of band entries that differ, an exact defect count."""
    d, dt = ctx.blocks
    wrong = sum(int(np.count_nonzero(_I_POW[-o % 4] * d.band[o] != dt.band[o])) for o in d.band)
    return CheckResult("spectra-coincide", ctx.k, wrong == 0, float(wrong))


def check_kernel_rule(ctx: KContext) -> CheckResult:
    """D_k has a kernel exactly when m = (k+1)/2 is odd: some factor of the
    determinant (:attr:`KContext.det_factors`) is 0 iff m is odd.  The
    kernel is then one-dimensional, as the eigenvalues of a Jacobi matrix
    are simple.  The residual is an exact defect count, 1 if the rule
    fails."""
    wrong = (0 in ctx.det_factors) != ((ctx.k + 1) // 2) % 2
    return CheckResult("kernel-rule", ctx.k, not wrong, float(wrong))


def check_p_eigenvalues(ctx: KContext) -> CheckResult:
    """i[second, first] of the blocks matches :attr:`KContext.p_diag`
    (:func:`sdirac.operators.check_commutator`), which is 2(a_{k,l+1}^2 -
    a_{k,l}^2) in int64.  The residual is the largest modulus off the diagonal."""
    closed = np.array(ctx.p_diag, dtype=np.int64)
    ok, off = check_commutator(ctx.blocks, closed)
    return CheckResult("p-eigenvalues", ctx.k, ok and np.array_equal(closed, 2 * np.diff(a_squares(ctx.k))), off)


def check_charpoly_parity(ctx: KContext) -> CheckResult:
    """Both closed-form blocks have an exactly zero diagonal.  That is the
    condition for p_j(-x) = (-1)^j p_j(x) to hold for every leading minor
    p_j of a block, whose continuant is p_j = (x - d_j) p_(j-1) -
    |b_(j-1)|^2 p_(j-2): so the charpoly has the parity of m and the
    spectrum is symmetric about 0, exactly.  The residual is the largest
    |diagonal entry|."""
    res = max(float(np.max(np.abs(block.band[0]))) for block in ctx.blocks)
    return CheckResult("charpoly-parity", ctx.k, res == 0.0, res)


def check_det_factors(ctx: KContext) -> CheckResult:
    """det D_k = (-1)^(m/2) a_{k,1}^2 a_{k,3}^2 ... a_{k,m-1}^2 for even m
    and 0 for odd m, factor by factor on :attr:`KContext.det_factors`: each
    factor -a_{k,l}^2 must equal -down(l) up(l-1), the square in its
    closed ladder form l(k+1-2l)((k+1)/2+l)
    (:func:`sdirac.operators.unnormalized_coeffs`), not the squares the
    factors are read from, so a wrong square fails; the last factor must be
    1 for even m and 0 for odd m.  The residual is the number of wrong
    factors, an exact defect count."""
    k, m = ctx.k, (ctx.k + 1) // 2
    down, up = unnormalized_coeffs(k)
    want = np.append(-down[1 + m % 2 : m : 2] * up[m % 2 : m - 1 : 2], 1 - m % 2)
    wrong = _wrong_entries(ctx.det_factors, want)
    return CheckResult("det-product", k, wrong == 0, float(wrong))


# The last odd k whose squares a_{k,l}^2, at most 0.77 ((k+1)/2)^3, are below 2**53.
COUNT_MAX_K = 454_045

# Half-width of the certificate's bracket around an exact 0 eigenvalue.  A
# count's absolute error is below the pivot floor or, where a quotient
# overflows instead, below the largest pivot that can overflow it,
# 2**53 / DBL_MAX < 5e-293 for squares below 2**53 (check_charpoly_eigs).
_ZERO_HALF_WIDTH = 1e10 * _PIVOT_FLOOR


def _worst_margin(x, lo, hi) -> float:
    """The largest share of the gap between a computed eigenvalue x[i] and
    a neighbour that its bracket [lo[i], hi[i]] covers: below 1, no
    bracket reaches a neighbouring eigenvalue."""
    with np.errstate(divide="ignore", invalid="ignore"):
        below = (x - lo) / np.diff(x, prepend=-np.inf)
        above = (hi - x) / np.diff(x, append=np.inf)
    return float(np.max(np.maximum(below, above), initial=0.0))


def _count_certificate(ctx: KContext):
    """Certify the computed eigenvalues x[0] < ... < x[m-1] of the first
    block by one Sturm count (:func:`sdirac.tridiag.count_below`) at the 2m
    points x[i] -+ h[i], h[i] = delta |x[i]| + _ZERO_HALF_WIDTH: the count
    must be i below the bracket and i + 1 above it.  That certifies each
    value, the ordering and completeness at once.  The count runs on the
    zero diagonal of the block and the exact squares a_{k,l}^2 as float64,
    exact while they stay below 2**53 (0.77 ((k+1)/2)^3 < 2**53, up to
    k = COUNT_MAX_K); a square that reaches it fails the certificate.

    Why delta = 4 m eps (eps = 2**-52, u = eps/2).  (1) A float Sturm
    count at y is the exact count of a matrix whose b^2 move by a relative
    2u (Kahan 1966; Demmel, Dhillon & Ren 1995): d - y is exact on a zero
    diagonal, and the division and the subtraction round once each.  A
    floored pivot adds a diagonal term below _PIVOT_FLOOR, and a quotient
    that overflows, only from a pivot below 2**53 / DBL_MAX, a term below
    that pivot.  (2) A zero-diagonal tridiagonal matrix is a permuted
    Golub-Kahan form of a bidiagonal matrix holding its m - 1 off-diagonal
    entries; scaling one entry by alpha moves every singular value, so
    every eigenvalue, by a factor within [1/alpha, alpha], and an exact 0
    stays 0 (Demmel & Kahan 1990).  So the count errs by at most
    (m-1) u |lambda| plus the absolute term, and bisection, which also
    squares rounded square roots (b^2 off by 5u in all), returns x within
    2.5 (m-1) u |lambda| plus one ulp, 2u |x|.  delta |x| = 8 m u |x| is
    over twice their sum with the rounding of the points x -+ h,
    (3.5 (m-1) + 3) u |x| to first order.  The exact
    middle 0 of an odd m needs the absolute term alone; _ZERO_HALF_WIDTH
    is above it and far below every nonzero eigenvalue.

    The count certifies the eigenvalues of the block that the squares
    define; :func:`_gram_q` ties the printed charpoly to the same squares.
    Builds no charpoly.  Returns (ok, lo, hi), with the brackets."""
    k, x = ctx.k, ctx.eigenvalues
    m = x.shape[0]
    squares = a_squares(k)[1:m]
    half = 4 * m * np.finfo(np.float64).eps * np.abs(x) + _ZERO_HALF_WIDTH
    lo, hi = x - half, x + half
    idx = np.arange(m)
    counts = count_below(squares.astype(np.float64), np.concatenate([lo, hi]))
    ok = squares.max(initial=0) < 2**53 and np.array_equal(counts, np.concatenate([idx, idx + 1]))
    return ok, lo, hi


def _gram_q(k: int) -> tuple:
    """q of the first block's charpoly p(x) = x^(m%2) q(x^2), ascending, by
    another recurrence on other integers than those of
    :func:`sdirac.operators.charpoly_exact`.  The even rows, then the odd
    ones, make the block [[0, B], [B^T, 0]], B bidiagonal (Golub & Kahan
    1965), so q(y) = det(y I - B^T B).  B^T B is tridiagonal of size m//2,
    with diagonal alpha_c = a_(2c+1)^2 + a_(2c+2)^2 and squared
    off-diagonal beta_c = a_(2c)^2 a_(2c+1)^2 (rows c-1, c), a_l^2 = 0 for
    l >= m: Q_c = (y - alpha_c) Q_(c-1) - beta_c Q_(c-2), in Python ints."""
    m = (k + 1) // 2
    sq = [0, *a_squares(k)[1:m].tolist(), 0]
    prev, cur = [0], [1]
    for c in range(m // 2):
        alpha, beta = sq[2 * c + 1] + sq[2 * c + 2], sq[2 * c] * sq[2 * c + 1]
        prev, cur = cur, [y - alpha * a - beta * b for a, y, b in zip(cur + [0], [0] + cur, prev + [0, 0])]
    return tuple(cur)


def check_charpoly_eigs(ctx: KContext) -> CheckResult:
    """:func:`_count_certificate`, then the printed charpoly
    (:attr:`KContext.charpoly`) must equal x^(m%2) q(x^2) for the q of
    :func:`_gram_q`.  Then it is the block's charpoly, whose roots are
    the eigenvalues the count certifies.  The residual is the worst margin
    (:func:`_worst_margin`) of the count's brackets."""
    if _eigenvalues(ctx) is None:
        return CheckResult("charpoly-eigs", ctx.k, False, np.nan)
    ok, lo, hi = _count_certificate(ctx)
    ok = ok and (ctx.charpoly.q, ctx.charpoly.parity) == (_gram_q(ctx.k), (ctx.k + 1) // 2 % 2)
    return CheckResult("charpoly-eigs", ctx.k, ok, _worst_margin(ctx.eigenvalues, lo, hi))


def check_norm_bound(ctx: KContext) -> CheckResult:
    """The chain radius >= a_{k,1}, for the spectral radius of D_k, that
    drives the spectral unboundedness, as a_{k,1} >= (k-1)/2 always:
    a_{k,1}^2 - ((k-1)/2)^2 = (m+3)(m-1) >= 0, m = (k+1)/2.  The
    residual, the slack (radius - a_{k,1}) / (1 + a_{k,1}), must be at
    least -1e-9."""
    k, a1, eigs = ctx.k, a_coeff(ctx.k, 1), _eigenvalues(ctx)
    radius = np.nan if eigs is None else float(np.max(np.abs(eigs)))
    slack = (radius - a1.value) / (1.0 + a1.value)
    return CheckResult("norm-bound", k, slack >= -1e-9, slack)


# Name -> check, in ``verify`` order; a per-k check takes one KContext.
GLOBAL_REGISTRY = {
    "clifford-ladder": check_ladder_commutator,
    "clifford-grading": check_grading,
    "clifford-linearity": check_linearity,
    "oscillator": check_oscillator,
}

PER_K_REGISTRY = {
    "su2-bracket": check_su2_bracket,
    "su2-weights": check_su2_weights,
    "su2-structure": check_su2_structure,
    "hom-oracle": check_hom_oracle,
    "hom-dim": check_hom_dim,
    "equivariance": check_equivariance,
    "assembly-match": check_assembly,
    "symmetry": check_symmetry,
    "spectra-coincide": check_coincide,
    "kernel-rule": check_kernel_rule,
    "p-eigenvalues": check_p_eigenvalues,
    "charpoly-parity": check_charpoly_parity,
    "det-product": check_det_factors,
    "charpoly-eigs": check_charpoly_eigs,
    "norm-bound": check_norm_bound,
}

# The largest k of each per-k check and of the ``charpoly`` command, the
# last at which an integer bound of the values it forms holds: float64
# squares below 2**53 for charpoly-eigs (COUNT_MAX_K), else int64 squares,
# as are assembly-match's products (operators.A_SQUARES_MAX_K).  A refusal
# names the first limit passed, in ``verify`` order.
K_LIMITS = dict.fromkeys((*PER_K_REGISTRY, "charpoly"), A_SQUARES_MAX_K) | {"charpoly-eigs": COUNT_MAX_K}

GLOBAL_CHECKS = tuple(GLOBAL_REGISTRY)
PER_K_CHECKS = tuple(PER_K_REGISTRY)
ALL_CHECKS = GLOBAL_CHECKS + PER_K_CHECKS


def run_checks(k_values, names=None):
    """Run the selected checks (all by default) over the given odd k values;
    global checks run once, and the per-k checks of one k share one
    KContext.  Returns a list of CheckResult."""
    selected = tuple(names) if names else ALL_CHECKS
    unknown = [n for n in selected if n not in ALL_CHECKS]
    if unknown:
        raise ValueError(f"unknown check name(s): {', '.join(unknown)}")
    results = [check() for name, check in GLOBAL_REGISTRY.items() if name in selected]
    for k in sorted(k_values):
        results += run_k(k, selected)
    return results


def run_k(k, names):
    """The per-k half of :func:`run_checks`: the checks among ``names`` on one KContext(k)."""
    ctx = KContext(k)
    return [check(ctx) for name, check in PER_K_REGISTRY.items() if name in names]
