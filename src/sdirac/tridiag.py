"""Eigenvalues of real symmetric tridiagonal matrices with zero diagonal,
by Sturm bisection.

This is the one numerically hot loop in the package.  ``_bisect`` is a
pure-numpy kernel vectorized over eigenvalue indices: each eigenvalue is
bracketed from the global Gershgorin interval by counting, via the Sturm
pivot recurrence, how many eigenvalues lie below the midpoint, and halving
until the bracket collapses to adjacent floats (well past 1e-13 relative
accuracy).  A pass is m sequential row steps of a few numpy calls, so at
the sizes of the Dirac blocks it costs about the same whatever its width.
Each pass therefore counts at the midpoints of the next few levels of every
lane's bisection tree (multisection; Demmel, Dhillon & Ren, 1995), as many
levels as fit _PASS_POINTS midpoints, and then walks those levels with the
decision of plain bisection.  Every lane starts from the same bracket, so
the first pass counts one tree, shared by all lanes and as deep as the
width of the later passes allows.  Large blocks have many lanes and
resolve one level a pass after it.

Up to _SEED_MAX_M rows the first pass is seeded instead:
``eigvalsh_tridiagonal`` takes approximate eigenvalues from LAPACK
(``np.linalg.eigvalsh`` of the matrix written out dense, one transient
float64 m x m array), and one pass counts, for every lane, the whole
plain-bisection path from the Gershgorin bracket toward its seed, up to
_SEED_LEVELS levels.  Each lane keeps the levels whose counts agree with
the path, and the first level where they disagree, decided by its own
count; the multisection passes finish from there.  A seed only chooses
where that pass counts, so a wrong or missing one costs passes, never
bits.  Larger blocks keep the unseeded first pass: their passes are bound
more by their points than by numpy's call overhead, and LAPACK's time and
memory grow as m^3 and m^2.

The eigenvalues are bit-identical to plain bisection, one level a pass.
Each tree midpoint is formed as 0.5 * (lo + hi) from the bracket plain
bisection would hold at that node, the walk takes the same decisions, and
a count in one lane does not depend on the other lanes in its pass: every
lane performs the same IEEE operations whichever other points are counted
with it.  So every count that moves a bracket is taken at exactly the
point plain bisection evaluates, and no monotonicity of the counts is
assumed.  Once a lane stops, its midpoint is its result, whichever way the
walk goes (see ``_bisect``).  The result depends neither on which indices
are requested, nor on how many levels a pass resolves, nor on the seeds.

A pass sweeps the rows in cache-sized blocks of one scratch buffer per
solve and tallies each block's negative pivots as uint8 sums.  The
diagonal is zero, so every row starts from one 0.0 - mid array.  The first
row's zero pivots are floored before the sweep, and a pass is redone with
the zero-pivot floor only when it meets a later pivot that is exactly
zero.  ``count_below`` runs the same pass once over any set of points; the
``charpoly-eigs`` certificate is one such pass.

Every phase-stripped Dirac block has zero diagonal (``charpoly-parity``
checks it), so it is a permuted Golub-Kahan form, similar to its own
negative (Golub & Kahan, 1965): its spectrum is +-sigma, plus an exact 0
when the size is odd.  ``eigvalsh_tridiagonal`` takes only such matrices:
it bisects the upper half of the indices and mirrors it, so the spectrum
is exactly antisymmetric and its middle eigenvalue is exactly 0.
"""

from __future__ import annotations

import numpy as np

# Substitute for an exactly-zero Sturm pivot; any overflow it causes is
# benign (the count recurrence is IEEE-stable through +-inf).
_PIVOT_FLOOR = 1e-300

# Float64 pivots one bisection pass holds at once.  Larger problems sweep
# their rows in blocks of this many entries, which keeps the block in cache
# and the scratch memory small.
_BLOCK_ENTRIES = 1 << 16

# Midpoints one bisection pass counts at, at most, across all its lanes.  At
# this width a pass costs about as much as a one-point pass, so a pass over
# few lanes resolves several levels of their bisection trees.
_PASS_POINTS = 512

# Largest size whose first bisection pass is seeded from LAPACK.  Small
# passes cost mostly numpy call overhead, so the passes a seed saves
# outweigh LAPACK's O(m^3) solve, and the transient dense matrix stays
# within 0.32 MB.  CHANGES.md records the measured crossover.
_SEED_MAX_M = 200

# Levels of each lane's predicted path the seeded first pass counts, at
# most; the paths of the Dirac blocks it seeds (k <= 399) stop within 62.
_SEED_LEVELS = 64


def _sturm_counts(bsq, mid, q, rows, careful):
    """Number of negative pivots of the Sturm recurrence
    q[i] = (0.0 - mid) - bsq[i-1] / q[i-1] of a zero diagonal, one lane
    per entry of mid: the number of eigenvalues below each mid.  ``bsq``
    lists 0-d float64 arrays, which a ufunc takes faster than floats.

    The rows are swept in blocks of q's height, at most 255 rows, so each
    block's negative pivots are tallied as uint8 sums; ``rows`` lists q's
    row views.  The first row's zero pivots are replaced by _PIVOT_FLOOR up
    front.  With ``careful`` every exactly-zero pivot is, before it
    divides.  Without, the sweep returns None at the first block holding
    a zero pivot, whose quotient is inf or nan.  A zero of either sign
    counts as nonnegative, so the floor changes no tally and 0.0 - mid
    gives the counts of (+-0.0) - mid bit for bit."""
    m, height = len(bsq) + 1, q.shape[0]
    r = np.empty(q.shape[1])
    carry = np.empty(q.shape[1])
    flags = np.empty(q.shape, dtype=bool)
    counts = np.zeros(q.shape[1], dtype=np.intp)
    base = 0.0 - mid
    for start in range(0, m, height):
        size = min(height, m - start)
        if start == 0:
            np.copyto(rows[0], np.where(base == 0.0, _PIVOT_FLOOR, base))
            prev, todo, coeffs = rows[0], rows[1:size], bsq
        else:
            prev, todo, coeffs = carry, rows[:size], bsq[start - 1 : start - 1 + size]
        for b, row in zip(coeffs, todo):
            if careful:
                np.copyto(prev, _PIVOT_FLOOR, where=prev == 0.0)
            np.divide(b, prev, r)
            np.subtract(base, r, row)
            prev = row
        divisors = min(size, m - 1 - start)
        if not careful and np.equal(q[:divisors], 0.0, out=flags[:divisors]).any():
            return None
        np.less(q[:size], 0.0, out=flags[:size])
        counts += np.add.reduce(flags[:size].view(np.uint8), axis=0, dtype=np.uint8)
        np.copyto(carry, prev)
    return counts


def _pivot_height(m: int, points: int, entries: int = _BLOCK_ENTRIES) -> int:
    """Rows of a block of ``entries`` pivots over ``points`` points: at
    least one, and at most m and 255, the most a uint8 tally holds."""
    return max(1, min(m, 255, entries // max(points, 1)))


def _pivot_rows(m: int, points: int, buf=None):
    """The pivot block of a pass over ``points`` points, and its rows: a
    view of the scratch ``buf`` as tall as it holds, or of a new one of at
    most _BLOCK_ENTRIES pivots (or one row)."""
    height = _pivot_height(m, points, _BLOCK_ENTRIES if buf is None else buf.shape[0])
    q = (np.empty(height * points) if buf is None else buf[: height * points]).reshape(height, points)
    return q, list(q)


def _count_pass(bsq, mid, q, rows):
    """Eigenvalues below each mid.  A zero pivot past the first row is
    rare; only then is the pass redone with the floor.  Callers silence
    the floating-point warnings of inf and nan pivots."""
    counts = _sturm_counts(bsq, mid, q, rows, careful=False)
    return _sturm_counts(bsq, mid, q, rows, careful=True) if counts is None else counts


def _pass_depth(lanes: int) -> int:
    """Bisection levels one pass resolves for ``lanes`` lanes: the largest
    depth whose 2**depth - 1 midpoints per lane fit in _PASS_POINTS, and
    at least 1."""
    return max(1, (_PASS_POINTS // max(lanes, 1) + 1).bit_length() - 1)


def _seeded_pass(bsq, lo, hi, idx, seeds, buf):
    """The brackets [lo, hi] of the lanes ``idx`` after the first pass of
    a seeded solve.  The pass counts the midpoints of every lane's
    plain-bisection path toward its seed, which predicts the decision
    count <= index at each midpoint as seed >= midpoint (a nan seed
    predicts every decision down).  The paths run _SEED_LEVELS levels and
    are cut after the last level where some lane's midpoint lies strictly
    inside its bracket: a stopped bracket's children are stopped, so the
    levels that hold one form a prefix.  Each lane keeps the levels whose
    counted decisions agree with the predicted ones and the first level
    where they disagree, decided by that level's own count: up to there
    each midpoint is the one plain bisection evaluates."""
    los, his, mids, ups = [], [], [], []
    for _ in range(_SEED_LEVELS):
        mid = 0.5 * (lo + hi)
        up = seeds >= mid
        los.append(lo), his.append(hi), mids.append(mid), ups.append(up)
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    los, his, tree = np.array(los), np.array(his), np.array(mids)
    levels = ((tree != los) & (tree != his)).any(axis=1).sum()
    if not levels:
        return los[0], his[0]
    tree = tree[:levels]
    q, rows = _pivot_rows(len(bsq) + 1, tree.size, buf)
    taken = _count_pass(bsq, tree.ravel(), q, rows).reshape(tree.shape) <= idx
    miss = taken != ups[:levels]
    miss[-1] = True
    j, lanes = miss.argmax(axis=0), np.arange(idx.shape[0])
    up, mid = taken[j, lanes], tree[j, lanes]
    return np.where(up, mid, los[j, lanes]), np.where(up, his[j, lanes], mid)


def _bisect(bsq, r, idx, seeds=None):
    """Eigenvalues with the ascending indices ``idx``, one bisection lane
    each, all starting from the Gershgorin bracket [-r, r].  A lane stops
    when its midpoint equals an end of its bracket.  Every halving that
    does not stop keeps a strict subset of the floats, and a finite
    bracket below 2**1024 collapses to adjacent floats within about 2,100
    halvings, so no iteration cap is needed.

    Each pass counts at the midpoints of the next ``depth`` levels of
    every lane's bisection tree, then walks those levels with the decision
    of plain bisection, count <= index.  Level j of the tree holds 2**j
    brackets per lane; the children of its bracket p are p (the lower
    half) and p + 2**j (the upper half) of level j + 1.  A stopped bracket
    [lo, hi], whose midpoint equals lo or hi, has as children itself and
    the point [mid, mid]; both are stopped and end at mid, the value plain
    bisection returns, so the walk may take either.  Every lane starts
    from the same bracket, so the first pass counts one tree, shared by
    all lanes and as deep as the width of the later passes allows, and
    each lane walks it with its own index.

    ``seeds``, one approximate eigenvalue per lane, replace that first
    pass with :func:`_seeded_pass`, which counts each lane's whole
    predicted path.  They only choose the points it counts, and every
    bracket move still comes from a count at a midpoint of plain
    bisection, so the result does not depend on them."""
    m, n = len(bsq) + 1, idx.shape[0]
    depth = _pass_depth(n)
    width = ((1 << depth) - 1) * max(n, 1)
    # the seeded pass sweeps in blocks of this buffer too: up to
    # _SEED_MAX_M rows it holds at least _SEED_LEVELS * n pivots
    buf = np.empty(_pivot_height(m, width) * width)
    wide = _pivot_rows(m, width, buf)
    bsq = list(map(np.asarray, bsq))
    lo, hi, lanes = np.full(n, -r), np.full(n, r), np.arange(n)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if seeds is None:
            trees, cols, levels = 1, np.zeros(n, dtype=np.intp), (width + 1).bit_length() - 1
            q, rows = _pivot_rows(m, (1 << levels) - 1, buf)
        else:
            lo, hi = _seeded_pass(bsq, lo, hi, idx, seeds, buf)
            trees, cols, levels, (q, rows) = n, lanes, depth, wide
        while True:
            los, his, mids = [lo[None, :trees]], [hi[None, :trees]], []
            for _ in range(levels):
                l, h = los[-1], his[-1]
                mid = 0.5 * (l + h)
                mids.append(mid)
                los.append(np.concatenate((l, mid)))
                his.append(np.concatenate((mid, h)))
            if not ((mids[0] != los[0]) & (mids[0] != his[0])).any():
                break
            tree = np.concatenate(mids)
            counts = _count_pass(bsq, tree.ravel(), q, rows).reshape(tree.shape)
            node = np.zeros(n, dtype=np.intp)
            for j in range(levels):
                node += (counts[(1 << j) - 1 + node, cols] <= idx) << j
            lo = los[levels][node, cols]
            hi = his[levels][node, cols]
            if cols is not lanes:
                trees, cols, levels, (q, rows) = n, lanes, depth, wide
    return 0.5 * (lo + hi)


def _gershgorin_radius(b) -> float:
    """Radius r of the Gershgorin interval [-r, r] of a zero diagonal,
    which holds every eigenvalue: the largest sum of the two off-diagonal
    moduli of a row.  Every bisection midpoint 0.5 * (lo + hi) inside it
    is finite: ``_as_tridiagonal`` keeps each b * b finite, so
    |b| < 1.35e154 and 2r < 5.4e154."""
    ab = np.abs(b)
    return float(np.max(np.append(ab, 0.0) + np.append(0.0, ab)))


def _seeds(b, idx):
    """Approximate eigenvalues with the indices ``idx``, from LAPACK on
    the matrix written out dense in one float64 array, or None when m
    exceeds _SEED_MAX_M or LAPACK does not converge."""
    m = b.shape[0] + 1
    if m > _SEED_MAX_M:
        return None
    dense = np.zeros((m, m))
    dense.flat[1 :: m + 1] = b
    dense.flat[m :: m + 1] = b
    with np.errstate(all="ignore"):
        try:
            return np.linalg.eigvalsh(dense)[idx]
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
    if not np.all(d == 0.0):
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
    points = np.ascontiguousarray(points, dtype=np.float64)
    bsq = list(map(np.asarray, np.asarray(bsq, dtype=np.float64)))
    q, rows = _pivot_rows(len(bsq) + 1, points.shape[0])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return _count_pass(bsq, points, q, rows)


def eigvalsh_tridiagonal(diag, offdiag) -> np.ndarray:
    """All eigenvalues, ascending, of the real symmetric tridiagonal matrix
    with the given off-diagonal and a diagonal that must be zero (ValueError
    otherwise, nan and inf included).

    Only the upper half of the spectrum is bisected; the lower half is its
    exact mirror and, for odd size, the middle eigenvalue is exactly 0.  Up
    to _SEED_MAX_M rows the first bisection pass is seeded from LAPACK,
    with the same result.
    """
    m, b, bsq = _as_tridiagonal(diag, offdiag)
    if m == 0:
        return np.empty(0)
    idx = np.arange(m - m // 2, m)
    eigs = _bisect(bsq, _gershgorin_radius(b), idx, _seeds(b, idx))
    return np.concatenate([-eigs[::-1], np.zeros(m % 2), eigs])
