"""Named invariant checks backing the ``verify`` CLI command and the
``checks`` of every spectrum report.

Each check returns pass/fail plus a measured residual so failures are
diagnosable from the command line.  Global checks are k-independent: the
Clifford relations, grading and linearity and the oscillator eigenvalues,
each read off bands of Clifford multiplication
(:func:`sdirac.hermite.clifford_band`) multiplied by the one band product
of :mod:`sdirac.su2`, in complex128 behind the exactness guard of
:mod:`sdirac.exact`.  Per-k checks cover the representation matrices, the
intertwiner spaces and the assembled operator blocks; the su(2) and weight
checks compare int64 arrays and report exact defects.  All per-k checks of
one k read one :class:`sdirac.operators.KContext`, so its rep, charpoly,
determinant, blocks and spectrum are each built once per k, and a check
that does not read the charpoly never builds it.  A check over many l
makes one call, over the array of them, to the function it is named after.
A float residual that IEEE arithmetic makes an exact zero, such as the
asymmetry of the mirrored spectrum, must be 0.  ``charpoly-eigs``
certifies each eigenvalue to 4 m eps by a Sturm count, then ties the
positive half exactly to the integer charpoly.

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

from .exact import EXACT_BOUND, exact_in_double
from .hermite import clifford_band, omega0, oscillator_band, weight_on_Wl
from .intertwine import equivariance_residual, hom_space, hom_space_oracle
from .operators import (
    A_SQUARES_MAX_K,
    KContext,
    _product,
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


def _box_degrees(n: int, size: int) -> np.ndarray:
    """Total degree of each multi-index of the n-dimensional box
    0..size-1, in the row-major order of :func:`clifford_band`."""
    return np.indices((size,) * n).reshape(n, -1).sum(axis=0)


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

# The Clifford checks' boxes hold levels 0..TRUNC-1; oscillator reads l <= MAX_LEVEL.
TRUNC, MAX_LEVEL = 20, 18


def check_ladder_commutator() -> CheckResult:
    """[X_a., X_b.] = -i omega0(X_a, X_b) id for n = 1, 2 and every pair of
    basis vectors, read on the columns of total degree <= TRUNC - 2 of the
    bands on levels 0..TRUNC-1, where no term of the products leaves the
    box.  The residual is the largest defect modulus there.

    The result is exact: every band entry passes the guard of
    :mod:`sdirac.exact` (the check fails otherwise), so each defect entry,
    a sum of at most five products of two entries, is held by a double."""
    worst = 0.0
    exact = True
    for n in (1, 2):
        size = TRUNC ** n
        interior = _box_degrees(n, TRUNC) <= TRUNC - 2
        basis = [tuple(float(a == c) for c in range(2 * n)) for a in range(2 * n)]
        bands = [clifford_band(x, range(TRUNC)) for x in basis]
        exact = exact and exact_in_double(*bands)
        identity = {0: np.ones(size)}
        for (xa, band_a), (xb, band_b) in product(zip(basis, bands), repeat=2):
            defect = _bracket_defect(band_a, band_b, identity, -1j * omega0(xa, xb), size)
            cols = _columns(defect)
            worst = max(worst, *(np.max(np.abs(d[interior[cols[o]]]), initial=0.0) for o, d in defect.items()))
    return CheckResult("clifford-ladder", None, exact and worst == 0.0, float(worst))


def check_grading() -> CheckResult:
    """A single Clifford multiplication moves a degree-l Hermite function
    into degrees l-1 and l+1 only: every nonzero entry of the band of a
    basis vector joins multi-indices whose degrees differ by one.  The
    residual is the number of nonzero entries that do not, an exact defect
    count."""
    wrong = 0
    for n in (1, 2):
        deg = _box_degrees(n, TRUNC)
        for a in range(2 * n):
            band = clifford_band(tuple(int(a == c) for c in range(2 * n)), range(TRUNC))
            for o, cols in _columns(band).items():
                wrong += np.count_nonzero((band[o] != 0) & (np.abs(deg[cols - o] - deg[cols]) != 1))
    return CheckResult("clifford-grading", None, wrong == 0, float(wrong))


def check_linearity() -> CheckResult:
    """band(a x + b y) = a band(x) + b band(y), exactly, on the sample
    x = (2, 0, -4, 0), y = (0, -2, 0, 1), a = 3/2, b = -5, whose integral
    a x + b y keeps every band entry in (1/2)Z.  The scalars and the bands
    they multiply must pass the guard of :mod:`sdirac.exact` (the check
    fails otherwise).  The residual is the largest |lhs - rhs| entry."""
    x = (2, 0, -4, 0)
    y = (0, -2, 0, 1)
    a, b = 1.5, -5
    levels = range(5)
    lhs = clifford_band(tuple(a * p + b * q for p, q in zip(x, y)), levels)
    bx, by = clifford_band(x, levels), clifford_band(y, levels)
    diff = [lhs.get(o, 0) - a * bx.get(o, 0) - b * by.get(o, 0) for o in {*lhs, *bx, *by}]
    worst = float(max(np.max(np.abs(d)) for d in diff))
    return CheckResult("clifford-linearity", None, exact_in_double(a, b, bx, by) and worst == 0.0, worst)


def check_oscillator() -> CheckResult:
    """The exact oscillator band on levels 0..MAX_LEVEL+1 has -(2l+1)/2 on
    its diagonal and 0 off it in every column l <= MAX_LEVEL, and the
    derived circle weights (:func:`sdirac.hermite.weight_on_Wl`) are 2l+1.
    The residual is the largest deviation of the band from that form."""
    worst = 0.0
    band = oscillator_band(range(MAX_LEVEL + 2))
    for o, cols in _columns(band).items():
        expect = -(2 * cols + 1) / 2 if o == 0 else 0
        worst = max(worst, float(np.max(np.abs(band[o] - expect)[cols <= MAX_LEVEL], initial=0.0)))
    ls = np.arange(MAX_LEVEL + 1)
    ok = worst == 0.0 and np.array_equal(weight_on_Wl(ls), 2 * ls + 1)
    return CheckResult("oscillator", None, ok, worst)


# -- per-k checks: each reads one shared KContext ---------------------------


def check_su2_bracket(ctx: KContext) -> CheckResult:
    """The su(2) brackets hold exactly on the int64 bands.  The residual is
    :func:`sdirac.su2.bracket_defect`, an exact defect, 0 when passing."""
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
    coeffs = definition_coeffs(ctx.k, rep=ctx.rep)
    res = assembly_mismatch_float(ctx.k, coeffs, ctx.blocks)
    largest = float(np.max(np.abs(ctx.blocks[0].band[1]), initial=0.0))
    ok = res <= TOL_MATCH * max(1.0, largest) and assembly_matches_exact(ctx.k, coeffs=coeffs)
    return CheckResult("assembly-match", ctx.k, ok, res)


def check_symmetry(ctx: KContext) -> CheckResult:
    """Spectrum symmetric about 0: the residual max |x + x[::-1]| must be
    0.  The eigensolver mirrors the positive half of every zero-diagonal
    block, so it is 0 by construction; ``charpoly-parity`` certifies the
    symmetry exactly.  The check stays: ``verify`` prints one line per
    check and k, and a benchmark workload selects it by name."""
    eigs = ctx.eigenvalues
    res = float(np.max(np.abs(eigs + eigs[::-1])))
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
    """D_k has a kernel exactly when m = (k+1)/2 is odd: the exact
    determinant (:attr:`KContext.det`) is 0 iff m is odd.  The kernel is
    then one-dimensional, as the eigenvalues of a Jacobi matrix are simple.
    The residual is an exact defect count, 1 if the rule fails."""
    wrong = (ctx.det == 0) != ((ctx.k + 1) // 2) % 2
    return CheckResult("kernel-rule", ctx.k, not wrong, float(wrong))


def check_p_eigenvalues(ctx: KContext) -> CheckResult:
    ok, off = check_commutator(ctx.blocks, ctx.p_diag)
    return CheckResult("p-eigenvalues", ctx.k, ok, off)


def check_charpoly_parity(ctx: KContext) -> CheckResult:
    """Both closed-form blocks have an exactly zero diagonal.  That is the
    condition for p_j(-x) = (-1)^j p_j(x) to hold for every leading minor
    p_j of a block, whose continuant is p_j = (x - d_j) p_(j-1) -
    |b_(j-1)|^2 p_(j-2): so the charpoly has the parity of m and the
    spectrum is symmetric about 0, exactly.  The residual is the largest
    |diagonal entry|."""
    res = max(float(np.max(np.abs(block.band[0]))) for block in ctx.blocks)
    return CheckResult("charpoly-parity", ctx.k, res == 0.0, res)


def check_det_product(ctx: KContext) -> CheckResult:
    """|det D_k| is the product a_{k,1}^2 a_{k,3}^2 ... a_{k,m-1}^2 of the
    odd-indexed squares for even m, and det D_k = 0 for odd m, on the
    exact determinant (:attr:`KContext.det`).  Each square is taken in
    its closed ladder form a_{k,l}^2 = down(l) up(l-1) = l(k+1-2l)
    ((k+1)/2+l) (:func:`sdirac.operators.unnormalized_coeffs`), not from
    the squares the determinant is built of, so a wrong square fails; the
    product is a balanced tree (:func:`sdirac.operators._product`).
    The residual is an exact defect count, 1 if the identity fails."""
    k, m = ctx.k, (ctx.k + 1) // 2
    down, up = unnormalized_coeffs(k)
    want = 0 if m % 2 else _product((down[1:m:2] * up[0 : m - 1 : 2]).tolist())
    wrong = abs(ctx.det) != want
    return CheckResult("det-product", k, not wrong, float(wrong))


# Half-width of the certificate's bracket around an exact 0 eigenvalue.  A
# count's absolute error is below the pivot floor or, where a quotient
# overflows instead, below the largest pivot that can overflow it,
# 2**53 / DBL_MAX < 5e-293 for squares below 2**53 (check_charpoly_eigs).
_ZERO_HALF_WIDTH = 1e10 * _PIVOT_FLOOR

# Significant bits of the dyadic endpoints of the exact tie, widest first.
_TIE_BITS = (16, 32, 53)


def _dyadic(v, bits, rounding):
    """Each entry of the positive array v rounded by ``rounding`` (np.floor
    or np.ceil) to a float of at most ``bits`` significant bits."""
    frac, exp = np.frexp(v)
    return np.ldexp(rounding(np.ldexp(frac, bits)), exp - bits)


def _worst_margin(x, lo, hi) -> float:
    """The largest share of the gap between a computed eigenvalue x[i] and
    a neighbour that its bracket [lo[i], hi[i]] covers: below 1, no
    bracket reaches a neighbouring eigenvalue."""
    with np.errstate(divide="ignore", invalid="ignore"):
        below = (x - lo) / np.diff(x, prepend=-np.inf)
        above = (hi - x) / np.diff(x, append=np.inf)
    return float(np.max(np.maximum(below, above), initial=0.0))


def _exact_tie(ctx: KContext, lo, hi):
    """Tie the positive brackets [lo, hi] to the exact charpoly
    p = x^(m%2) q(x^2) (:class:`sdirac.operators.CharPoly`).

    Each end is rounded outward to a dyadic of 16 significant bits, which
    keeps the integers of the Horner steps short.  If the brackets then
    touch, the next entry of _TIE_BITS is tried, as the relative gaps
    shrink like 1/k (2e-3 at k = 1999).  Then p must change sign (or
    vanish) across every dyadic bracket (:meth:`CharPoly.sign_at`, integer
    Horner over q in x^2).  On x > 0 the sign of p is that of q(x^2), and
    q, of degree m//2, has no more positive roots than there are brackets;
    disjoint positive brackets each holding a root thus isolate every
    positive root of p, exactly.  Returns (ok, lo, hi) with the dyadic
    brackets in the positive places."""
    cp = ctx.charpoly
    first = cp.m - cp.m // 2
    for bits in _TIE_BITS:
        left, right = _dyadic(lo[first:], bits, np.floor), _dyadic(hi[first:], bits, np.ceil)
        if np.all(left[:1] > 0) and np.all(right[:-1] < left[1:]):
            break
    else:
        return False, lo, hi
    lo, hi = lo.copy(), hi.copy()
    lo[first:], hi[first:] = left, right
    ok = all(cp.sign_at(a) * cp.sign_at(b) <= 0 for a, b in zip(left, right))
    return ok, lo, hi


def _count_certificate(ctx: KContext):
    """Certify the computed eigenvalues x[0] < ... < x[m-1] of the first
    block by one Sturm count (:func:`sdirac.tridiag.count_below`) at the 2m
    points x[i] -+ h[i], h[i] = delta |x[i]| + _ZERO_HALF_WIDTH: the count
    must be i below the bracket and i + 1 above it.  That certifies each
    value, the ordering and completeness at once.  The count runs on the
    zero diagonal of the block and the exact squares a_{k,l}^2 as float64,
    exact while they stay below 2**53 (0.77 ((k+1)/2)^3 < 2**53, up to
    k = 454,045); ValueError if a square reaches it.

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

    The exact tie does not replace it: its dyadic brackets are wider than
    x -+ h, by up to 2**-16 |x|, and exact signs at x -+ h itself would
    triple the time of the whole check at k = 1999.
    Builds no charpoly.  Returns (ok, lo, hi), with the brackets."""
    k, x = ctx.k, ctx.eigenvalues
    m = x.shape[0]
    squares = a_squares(k)[1:m]
    if squares.max(initial=0) >= 2**53:
        raise ValueError(f"a square a_(k,l)^2 reaches 2**53 at k = {k}: the count would round it")
    bsq = squares.astype(np.float64)
    half = 4 * m * np.finfo(np.float64).eps * np.abs(x) + _ZERO_HALF_WIDTH
    lo, hi = x - half, x + half
    idx = np.arange(m)
    ok = np.array_equal(count_below(bsq, np.concatenate([lo, hi])), np.concatenate([idx, idx + 1]))
    return ok, lo, hi


def check_charpoly_eigs(ctx: KContext) -> CheckResult:
    """:func:`_count_certificate`, then :func:`_exact_tie`.  The residual
    is the worst margin (:func:`_worst_margin`) of the brackets tested."""
    ok, lo, hi = _count_certificate(ctx)
    if ok:
        ok, lo, hi = _exact_tie(ctx, lo, hi)
    return CheckResult("charpoly-eigs", ctx.k, bool(ok), _worst_margin(ctx.eigenvalues, lo, hi))


def check_norm_bound(ctx: KContext) -> CheckResult:
    """The chain radius >= a_{k,1} >= (k-1)/2, for the spectral radius of
    D_k, that drives the spectral unboundedness: a_{k,1}^2 >= ((k-1)/2)^2
    exactly, and the residual, the slack (radius - a_{k,1}) / (1 + a_{k,1}),
    is at least -1e-9."""
    k, a1 = ctx.k, a_coeff(ctx.k, 1)
    slack = (float(np.max(np.abs(ctx.eigenvalues))) - a1.value) / (1.0 + a1.value)
    ok = slack >= -1e-9 and a1.square >= ((k - 1) // 2) ** 2
    return CheckResult("norm-bound", k, ok, slack)


# The largest k of each check, and of the ``charpoly`` command, with an exact
# route: past it a level or rep entry reaches the 2**20 of :mod:`sdirac.exact`
# (hom-oracle reads weights of l <= k + 2, equivariance of l <= (k - 1)/2, and
# assembly-match rep entries up to k), a square a_{k,l}^2 leaves int64
# (operators.a_squares), or one reaches the 2**53 of _count_certificate.
K_LIMITS = {"hom-oracle": EXACT_BOUND - 5, "equivariance": 2 * EXACT_BOUND - 3, "assembly-match": EXACT_BOUND - 1,
            "charpoly-eigs": 454_045}
K_LIMITS |= dict.fromkeys(("symmetry", "spectra-coincide", "kernel-rule", "p-eigenvalues", "charpoly-parity",
                           "det-product", "norm-bound", "charpoly"), A_SQUARES_MAX_K)

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
    "det-product": check_det_product,
    "charpoly-eigs": check_charpoly_eigs,
    "norm-bound": check_norm_bound,
}

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
