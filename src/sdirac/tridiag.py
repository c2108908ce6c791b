"""Eigenvalues of real symmetric tridiagonal matrices with zero diagonal,
by Sturm bisection.

This is the one numerically hot loop in the package.  Plain bisection
brackets each eigenvalue from the global Gershgorin interval [-r, r] by
counting, via the Sturm pivot recurrence, how many eigenvalues lie below
the midpoint, and halves until the bracket collapses to adjacent floats.
A count pass is m sequential row steps of a few numpy calls, vectorized
over the points it counts at.

``_search`` reads plain bisection's answer off the threshold of the
count.  For an upper-half index i (i >= m - m // 2) plain bisection's
path rises from its first midpoint, 0.0, as count(0.0) <= m // 2 <= i:
at 0.0 the first pivot is floored to +_PIVOT_FLOOR, and a pivot after a
negative one, 0.0 - b^2 / q with q < 0, is not negative, so no two
adjacent pivots are.  Let t be the least float with count(t) > i.  If
prev(t) >= _MONOTONE_MIN and t <= r, every later midpoint is at least
t / 2, where counts are monotone (below); so each decision is
count(mid) <= i exactly when mid < t, the last bracket is [prev(t), t]
and the result 0.5 * (prev(t) + t).  If count(r) <= i and
r >= _MONOTONE_MIN, every later midpoint lies in [r / 2, r) and counts
at most count(r), so the path rises at every step and the result is
0.5 * (prev(r) + r).  The search runs in the int64 order of the positive
floats: its first pass counts at consecutive floats about each seed, a
lane whose t lies outside them gallops outward in doubling ulps, and an
open bracket is split evenly.  Seeds only choose the points counted, so a
wrong seed costs passes, never bits.  A lane with count(_MONOTONE_MIN)
> i, which no Dirac block has, goes to ``_bisect``, plain bisection.

Monotone counts (Kahan, 1966; Demmel, Dhillon & Ren, 1995): for x < y,
count(x) <= count(y) when |x| >= 2**-943.  IEEE operations are monotone,
so by induction over the rows (negatives so far, pivot) at x precedes that
at y in the order fewer negatives first, then larger pivot first: a pivot
(0.0 - x) - b^2 / q falls with x and rises with q on each side of 0.  The
floor of a zero pivot to +_PIVOT_FLOOR breaks that order only if the pivot
at x lies strictly between 0 and the floor while the one at y is 0, and a
nonzero pivot below 2**-996 needs |x| < 2**-943: otherwise 0.0 - x and
b^2 / q are far apart or both multiples of 2**-996.

The eigenvalues are bit-identical to plain bisection, and a count in one
lane does not depend on the other points of its pass, so the result
depends neither on which indices are requested nor on the seeds.

A pass sweeps the rows in blocks and tallies each block's negative
pivots as uint8 sums.  The first row's zero pivots are floored before the
sweep; a pass is redone with the floor only when it meets a later zero
pivot.  ``count_below`` runs one such pass.

Every phase-stripped Dirac block has zero diagonal, so it is similar to
its own negative (Golub & Kahan, 1965): ``eigvalsh_tridiagonal`` solves
the upper half of the indices and mirrors it, so the spectrum is exactly
antisymmetric and the middle eigenvalue of an odd size exactly 0.
"""

from __future__ import annotations

import math

import numpy as np

# Substitute for an exactly-zero Sturm pivot; any overflow it causes is
# benign (the count recurrence is IEEE-stable through +-inf).
_PIVOT_FLOOR = 1e-300

# Float64 pivots one bisection pass holds at once.  Larger problems sweep
# their rows in blocks of this many entries, which keeps the block in cache
# and the pass's memory small.
_BLOCK_ENTRIES = 1 << 15

# Points one pass of the search counts at: at most this many across its
# lanes, or one a lane when it has more, but for its first pass, which
# takes 2C + 1 points a lane of n, C = max(2, _PASS_POINTS // 2n).  At
# this width a pass over a small block costs about as much as a one-point
# pass.
_PASS_POINTS = 512

# Largest size seeded by LAPACK's singular values of the half-size
# bidiagonal; larger sizes take the limiting law's seeds and their Newton
# steps.  On the Dirac blocks LAPACK's seeds make the solve faster up to
# m = 400 and tie at m = 450 (in process, 2-core Intel Xeon, medians of 31
# alternating solves: 4.0 against 5.6 ms at m = 300, 9.8 against 10.9 ms
# at m = 400); at m = 475 they take twice as long (27 against 13 ms).
_SEED_MAX_M = 400

# Newton steps that refine the law's seeds.
_NEWTON_STEPS = 2

# The search counts only at floats at least this far from 0, so every
# midpoint of the paths it stands in for lies at least 2**-943 from 0,
# where counts are proved monotone (see above).
_MONOTONE_MIN = 2.0**-942


def _sturm_counts(bsq, base, careful):
    """Number of negative pivots of the Sturm recurrence
    q[i] = base - bsq[i-1] / q[i-1] of a zero diagonal, base = 0.0 - mid,
    one lane per entry of mid: the number of eigenvalues below each mid.
    ``bsq`` lists 0-d float64 arrays, which a ufunc takes faster than
    floats.

    The rows are swept in blocks of _BLOCK_ENTRIES pivots, of 1 to 255
    rows, so each block's negative pivots are tallied as uint8 sums; a
    block starts from the last row of the one before.  The first row's
    zero pivots are replaced by _PIVOT_FLOOR up front.  With ``careful``
    every exactly-zero pivot is, before it divides.  Without, the sweep
    returns None at the first block holding a zero pivot, whose quotient
    is inf or nan.  A zero of either sign counts as nonnegative, so the
    floor changes no tally and 0.0 - mid gives the counts of (+-0.0) - mid
    bit for bit."""
    m, n = len(bsq) + 1, base.shape[0]
    height = max(1, min(m, 255, _BLOCK_ENTRIES // max(n, 1)))
    q = np.empty((height, n))
    rows, flags = list(q), np.empty((height, n), dtype=bool)
    counts = np.zeros(n, dtype=np.int64)
    prev = rows[0]
    for start in range(0, m, height):
        size = min(height, m - start)
        if start == 0:
            np.copyto(prev, base)
            np.copyto(prev, _PIVOT_FLOOR, where=np.equal(prev, 0.0, out=flags[0]))
            todo, coeffs = rows[1:size], bsq
        else:
            todo, coeffs = rows[:size], bsq[start - 1 : start - 1 + size]
        for b, row in zip(coeffs, todo):
            if careful:
                np.copyto(prev, _PIVOT_FLOOR, where=prev == 0.0)
            np.divide(b, prev, row)
            np.subtract(base, row, row)
            prev = row
        divisors = min(size, m - 1 - start)
        if not careful and np.equal(q[:divisors], 0.0, out=flags[:divisors]).any():
            return None
        np.less(q[:size], 0.0, out=flags[:size])
        counts += np.add.reduce(flags[:size].view(np.uint8), axis=0, dtype=np.uint8)
    return counts


def _count(bsq, points):
    """Eigenvalues below each of ``points``.  A zero pivot past the first
    row is rare; only then is the pass redone with the floor.  Callers
    silence the floating-point warnings of inf and nan pivots."""
    base = 0.0 - points
    counts = _sturm_counts(bsq, base, careful=False)
    return _sturm_counts(bsq, base, careful=True) if counts is None else counts


def _newton(bsq, x):
    """``x`` after _NEWTON_STEPS Newton steps on det(T - x), the product
    of the Sturm pivots: each step is x <- x - 1 / sum(q_j' / q_j), one
    sweep of the pivots q_j and their derivatives q_j' = -1 +
    (b_{j-1}^2 / q_{j-1}) q_{j-1}' / q_{j-1}.  A zero pivot makes the step
    nan, which only costs its lane passes."""
    t = np.empty_like(x)
    for _ in range(_NEWTON_STEPS):
        base = 0.0 - x
        q = base.copy()
        ratio = -1.0 / q
        total = ratio.copy()
        for b in bsq:
            np.divide(b, q, out=t)
            np.multiply(t, ratio, out=ratio)
            np.subtract(ratio, 1.0, out=ratio)
            np.subtract(base, t, out=q)
            np.divide(ratio, q, out=ratio)
            np.add(total, ratio, out=total)
        x = x - 1.0 / total
    return x


def _bisect(bsq, r, idx):
    """Eigenvalues with the ascending indices ``idx`` by plain bisection
    from the Gershgorin bracket [-r, r], one midpoint 0.5 * (lo + hi) a
    lane per pass.  A lane stops when its midpoint equals an end of its
    bracket.  Every halving that does not stop keeps a strict subset of the
    floats, and a finite bracket below 2**1024 collapses to adjacent floats
    within about 2,100 halvings, so no iteration cap is needed.

    The first pass counts at every path's first midpoint, 0.0, and at
    _MONOTONE_MIN.  A lane i with count(0.0) <= i and count(_MONOTONE_MIN)
    > i would next count at r / 2, ..., r / 2**J, J the difference of the
    binary exponents of r and _MONOTONE_MIN: each is exact and at least
    _MONOTONE_MIN, so by monotone counts each counts above i, and the lane
    starts from [+0.0, r / 2**J] instead.  That skips about 940 of the
    1,080 halvings of an exact zero eigenvalue."""
    bsq = list(map(np.asarray, bsq))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        at_zero, at_min = _count(bsq, np.array([0.0, _MONOTONE_MIN]))
        rise = at_zero <= idx
        lo, hi = np.where(rise, 0.0, -r), np.where(rise, r, 0.0)
        jump = max(math.frexp(r)[1] - math.frexp(_MONOTONE_MIN)[1], 0)
        hi[rise & (at_min > idx)] = math.ldexp(r, -jump)
        while True:
            mid = 0.5 * (lo + hi)
            lanes = np.flatnonzero((mid != lo) & (mid != hi))
            if not lanes.size:
                break
            mid = mid[lanes]
            below = _count(bsq, mid) <= idx[lanes]
            lo[lanes[below]], hi[lanes[~below]] = mid[below], mid[~below]
    return 0.5 * (lo + hi)


def _probes(lo, hi, floor, top, size):
    """``size`` ascending keys a lane for the next pass of the search,
    strictly inside each bracket (lo, hi) of keys and within [floor, top].
    A bracket with both ends counted is split evenly.  One with an end not
    yet counted, past floor or top, gallops outward from its counted end:
    by 1, 2, ..., h ulps, h = size // 2, then by h 2**j, and last to floor
    or top."""
    span = (hi - lo)[:, None]
    split = lo[:, None] + np.clip((span * (np.arange(1, size + 1) / (size + 1))).astype(np.int64), 1, span - 1)
    up, down = hi > top, lo < floor
    steps, h = np.arange(1.0, size + 1), size // 2
    steps[h:] = h * 2.0 ** np.arange(1, size - h + 1)
    steps[-1] = np.inf
    reach = np.minimum(steps, np.where(up, top - lo, hi - floor)[:, None]).astype(np.int64)
    rise = np.minimum(lo[:, None] + reach, top)
    fall = np.maximum(hi[:, None] - reach, floor)[:, ::-1]
    return np.where(up[:, None], rise, np.where(down[:, None], fall, split))


def _search(bsq, r, idx, seeds):
    """Eigenvalues with the indices ``idx``, bit-identical to
    :func:`_bisect`, found as the thresholds t of the count (see the
    module docstring) in the int64 order of the positive floats, near the
    approximate eigenvalues ``seeds``.

    The first pass counts at the 2C + 1 floats whose keys lie within C of
    each seed's, clipped into [_MONOTONE_MIN, r], with C as many as fit
    _PASS_POINTS points, and at least 2.  Each later pass
    counts at :func:`_probes` of the lanes still open, as many as fit
    _PASS_POINTS and their brackets still hold.  A lane keeps as its
    bracket the last point counted at most its index and the first above
    it; one whose count at r is at most its index ends at [prev(r), r].
    A lane fails when count(_MONOTONE_MIN) is above its index: then
    :func:`_bisect` solves it.  The indices must be upper-half ones."""
    n = idx.shape[0]
    c = max(2, _PASS_POINTS // (2 * max(n, 1)))
    floor, top = np.array([_MONOTONE_MIN, r]).view(np.int64)
    if top - floor <= 2 * c:  # r lies too close to _MONOTONE_MIN for a window
        return _bisect(bsq, r, idx)
    key = np.minimum(np.maximum(seeds.view(np.int64), floor + c), top - c)
    points = key[:, None] + np.arange(-c, c + 1)
    # an end past floor or top is not yet counted
    lo, hi, lanes = np.full(n, floor - 1), np.full(n, top + 1), np.arange(n)
    failed = np.zeros(n, dtype=bool)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        counts = _count(bsq, points.ravel().view(np.float64))
        while True:
            below = (counts.reshape(points.shape) <= idx[lanes, None]).sum(1)
            ends = np.concatenate((lo[lanes, None], points, hi[lanes, None]), axis=1)
            rows = np.arange(lanes.size)
            lo[lanes], hi[lanes] = ends[rows, below], ends[rows, below + 1]
            failed |= hi == floor
            lanes = np.flatnonzero((hi - lo > 1) & ~failed)
            if not lanes.size:
                break
            size = max(1, min(_PASS_POINTS // lanes.size, int(np.max(hi[lanes] - lo[lanes])) - 1))
            points = _probes(lo[lanes], hi[lanes], floor, top, size)
            counts = _count(bsq, points.ravel().view(np.float64))
    # count(r) <= i: plain bisection's last bracket is [prev(r), r]
    above = lo == top
    lo[above], hi[above] = top - 1, top
    eigs = 0.5 * (lo.view(np.float64) + hi.view(np.float64))
    if failed.any():
        eigs[failed] = _bisect(bsq, r, idx[failed])
    return eigs


def _gershgorin_radius(b) -> float:
    """Radius r of the Gershgorin interval [-r, r] of a zero diagonal,
    which holds every eigenvalue: the largest sum of the two off-diagonal
    moduli of a row.  Every bisection midpoint 0.5 * (lo + hi) inside it
    is finite: ``_as_tridiagonal`` keeps each b * b finite, so
    |b| < 1.35e154 and 2r < 5.4e154."""
    ab = np.abs(b)
    # an end row's one modulus is at most its sum with its neighbour's
    return float(max(ab.max(initial=0.0), (ab[1:] + ab[:-1]).max(initial=0.0)))


# The limiting law F of lambda / m^(3/2) on the Dirac blocks of size m,
# whose off-diagonals are about m^(3/2) a(l / m), a(t)^2 = 2t(1 - t^2):
# the t-average over [0, 1] of the arcsine laws on [-2a(t), 2a(t)]
# (Kuijlaars & Van Assche, 1999), tabulated on [0, edge], edge = max 2a, at
# the ends of _LAW_PANELS panels.  Plain floats: a numpy array built at
# import costs the process memory even when no block needs the law, and
# each solve that takes the law's seeds (past _SEED_MAX_M) tabulates it
# anew, in about 0.2 ms.
_LAW_EDGE = math.sqrt(16 / (3 * math.sqrt(3)))
_LAW_PANELS = 64
_GAUSS = ((0.5 - math.sqrt(0.15), 5 / 18), (0.5, 8 / 18), (0.5 + math.sqrt(0.15), 5 / 18))


def _law_density(x):
    """The density f = F' at each 0 <= x <= edge: (1/pi) times the
    integral of dt / sqrt(8t(1 - t^2) - x^2) between the roots t1 < t2 in
    [0, 1] of 8t(1 - t^2) = x^2.  The substitution t = (t1 + t2)/2 -
    (t2 - t1)/2 cos(u) makes it 1 / (sqrt(8) AGM(sqrt(t1 + 2 t2),
    sqrt(2 t1 + t2))), and the first AGM step reads only t1 + t2 = -t3 and
    t1 t2 = x^2 / (-8 t3), t3 the cubic's negative root, by Newton."""
    c = x * x / 8
    t = np.full_like(x, -1.2)
    for _ in range(6):
        t -= (t * t * t - t + c) / (3 * t * t - 1)
    s, g = -t, np.sqrt(2 * t * t - c / t)
    a, b = np.sqrt((1.5 * s + g) / 2), np.sqrt(g)
    for _ in range(4):
        a, b = (a + b) / 2, np.sqrt(a * b)
    return 1 / (math.sqrt(8) * a)


def _law_integral(start, width):
    """The integral of f over each [start, start + width], by 3-point
    Gauss-Legendre."""
    return width * sum(w * _law_density(start + width * x) for x, w in _GAUSS)


def _law_table():
    """The panel width h, the panel ends j h and F at them."""
    h = _LAW_EDGE / _LAW_PANELS
    ends = np.arange(_LAW_PANELS + 1) * h
    return h, ends, 0.5 + np.concatenate(([0.0], np.cumsum(_law_integral(ends[:-1], h))))


def _law_seeds(m: int, idx) -> np.ndarray:
    """The quantiles m^(3/2) F^-1((i + 1/2) / m) for the indices i of
    ``idx`` in the upper half, approximate eigenvalues of the Dirac block
    of size m: two Newton steps on F from the table's interpolant."""
    h, ends, table = _law_table()
    p = (idx + 0.5) / m
    x = np.interp(p, table, ends)
    for _ in range(2):
        j = np.minimum((x / h).astype(np.intp), _LAW_PANELS - 1)
        x = x - (table[j] + _law_integral(ends[j], x - ends[j]) - p) / _law_density(x)
    return m**1.5 * x


def _seeds(b, bsq, idx):
    """Approximate eigenvalues with the upper-half indices ``idx``: up to
    _SEED_MAX_M rows LAPACK's singular values of the half-size bidiagonal
    matrix with diagonal b[0::2] and superdiagonal b[1::2], of which the
    matrix is a permuted Golub-Kahan form (None when LAPACK does not
    converge), past it the law's quantiles after Newton steps."""
    m = b.shape[0] + 1
    if m > _SEED_MAX_M:
        return _newton(bsq, _law_seeds(m, idx))
    half = np.zeros((m // 2, m - m // 2))
    half.flat[:: m - m // 2 + 1] = b[0::2]
    half.flat[1 :: m - m // 2 + 1] = b[1::2]
    try:
        return np.linalg.svd(half, compute_uv=False)[::-1]
    except np.linalg.LinAlgError:
        return None


def _as_tridiagonal(diag, offdiag):
    """The size m, float64 off-diagonal and squared off-diagonal of a
    zero-diagonal tridiagonal matrix, validated: both arrays
    one-dimensional, offdiag one shorter, every diagonal entry +-0.0 and
    every off-diagonal entry and square finite."""
    d = np.asarray(diag, dtype=np.float64)
    b = np.ascontiguousarray(offdiag, dtype=np.float64)
    if d.ndim != 1 or b.ndim != 1:
        raise ValueError("diag and offdiag must be one-dimensional")
    m = d.shape[0]
    if b.shape[0] != max(m - 1, 0):
        raise ValueError(f"offdiag must have length {max(m - 1, 0)}, got {b.shape[0]}")
    if not (d == 0.0).all():
        raise ValueError("diag must be zero: the solver takes only zero-diagonal matrices")
    with np.errstate(over="ignore"):
        bsq = b * b
    if not np.isfinite(bsq).all():
        raise ValueError("offdiag must be finite, with squares below the float64 maximum")
    return m, b, bsq


def count_below(bsq, points) -> np.ndarray:
    """Number of eigenvalues strictly below each of ``points``, for the
    zero diagonal and the float64 squared off-diagonal ``bsq``, in one
    vectorized Sturm pass over all the points."""
    points = np.asarray(points, dtype=np.float64)
    bsq = list(map(np.asarray, np.asarray(bsq, dtype=np.float64)))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return _count(bsq, points)


def eigvalsh_tridiagonal(diag, offdiag) -> np.ndarray:
    """All eigenvalues, ascending, of the real symmetric tridiagonal matrix
    with the given off-diagonal and a diagonal that must be zero (ValueError
    otherwise, nan and inf included).

    Only the upper half of the spectrum is solved; the lower half is its
    exact mirror and, for odd size, the middle eigenvalue is exactly 0.
    Approximate eigenvalues (see :func:`_seeds`) choose where the search
    counts; they change how many passes the solve takes, never its result.
    """
    m, b, bsq = _as_tridiagonal(diag, offdiag)
    idx, r = np.arange(m - m // 2, m), _gershgorin_radius(b)
    if not idx.size:
        return np.zeros(m)
    bsq = list(map(np.asarray, bsq))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        seeds = _seeds(b, bsq, idx)
    eigs = _bisect(bsq, r, idx) if seeds is None else _search(bsq, r, idx, seeds)
    return np.concatenate([-eigs[::-1], np.zeros(m % 2), eigs])
