"""Eigenvalues of real symmetric tridiagonal matrices by Sturm bisection.

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
decision of plain bisection.  Large blocks have many lanes and resolve one
level a pass.

The eigenvalues are bit-identical to plain bisection, one level a pass.
Each tree midpoint is formed as 0.5 * (lo + hi) from the bracket plain
bisection would hold at that node, the walk takes the same decisions, and
a count in one lane does not depend on the other lanes in its pass: every
lane performs the same IEEE operations whichever other points are counted
with it.  So every count that moves a bracket is taken at exactly the
point plain bisection evaluates, and no monotonicity of the counts is
assumed.  Once a lane stops, its midpoint is its result, whichever way the
walk goes (see ``_bisect``).  The result depends neither on which indices
are requested nor on how many levels a pass resolves.

A pass sweeps the rows in cache-sized blocks, and is redone with the
zero-pivot floor only when it meets a pivot that is exactly zero.
``count_below`` runs the same pass once over any set of points; the
``charpoly-eigs`` certificate is one such pass.

A tridiagonal matrix with zero diagonal, which every phase-stripped Dirac
block is, is similar to its own negative (Golub & Kahan, 1965): its
spectrum is +-sigma, plus an exact 0 when the size is odd.
``eigvalsh_tridiagonal`` observes that property of its input, bisects only
the upper half of the indices and mirrors it, so such spectra are exactly
antisymmetric and their middle eigenvalue is exactly 0.
"""

from __future__ import annotations

import numpy as np

# Substitute for an exactly-zero Sturm pivot; any overflow it causes is
# benign (the count recurrence is IEEE-stable through +-inf).
_PIVOT_FLOOR = 1e-300

_MAX_BISECT_ITER = 200

# Float64 pivots one bisection pass holds at once.  Larger problems sweep
# their rows in blocks of this many entries, which keeps the block in cache
# and the scratch memory small.
_BLOCK_ENTRIES = 1 << 16

# Midpoints one bisection pass counts at, at most, across all its lanes.  At
# this width a pass costs about as much as a one-point pass, so a pass over
# few lanes resolves several levels of their bisection trees.
_PASS_POINTS = 512


def _sturm_counts(d, bsq, mid, q, rows, careful):
    """Number of negative pivots of the Sturm recurrence
    q[i] = (d[i] - mid) - bsq[i-1] / q[i-1], one lane per entry of mid:
    the number of eigenvalues below each mid.

    The rows are swept in blocks of q's height; ``rows`` lists q's row
    views.  With ``careful`` an exactly-zero pivot is replaced by
    _PIVOT_FLOOR before it divides.  Without, the sweep returns None at
    the first block holding a zero pivot, whose quotient is inf or nan."""
    m, height = d.shape[0], q.shape[0]
    r = np.empty(q.shape[1])
    carry = np.empty(q.shape[1])
    neg = np.empty(q.shape, dtype=bool)
    counts = np.zeros(q.shape[1], dtype=np.intp)
    for start in range(0, m, height):
        size = min(height, m - start)
        np.subtract.outer(d[start : start + size], mid, out=q[:size])
        if start == 0:
            prev, todo, coeffs = rows[0], rows[1:size], bsq
        else:
            prev, todo, coeffs = carry, rows[:size], bsq[start - 1 : start - 1 + size]
        for b, row in zip(coeffs, todo):
            if careful:
                np.copyto(prev, _PIVOT_FLOOR, where=prev == 0.0)
            np.divide(b, prev, out=r)
            np.subtract(row, r, out=row)
            prev = row
        if not careful and not q[: min(size, m - 1 - start)].all():
            return None
        np.less(q[:size], 0.0, out=neg[:size])
        counts += neg[:size].sum(axis=0)
        np.copyto(carry, prev)
    return counts


def _pivot_block(m: int, lanes: int) -> np.ndarray:
    """Scratch pivots for one pass: at most _BLOCK_ENTRIES of them."""
    return np.empty((max(1, min(m, _BLOCK_ENTRIES // max(lanes, 1))), lanes))


def _count_pass(d, bsq, mid, q, rows):
    """Eigenvalues below each mid.  A zero pivot is rare (the first
    midpoint of a zero-diagonal matrix is one); only then is the pass
    redone with the floor.  Callers silence the floating-point warnings
    of inf and nan pivots."""
    counts = _sturm_counts(d, bsq, mid, q, rows, careful=False)
    return _sturm_counts(d, bsq, mid, q, rows, careful=True) if counts is None else counts


def _pass_depth(lanes: int) -> int:
    """Bisection levels one pass resolves for ``lanes`` lanes: the largest
    depth whose 2**depth - 1 midpoints per lane fit in _PASS_POINTS, and
    at least 1."""
    return max(1, (_PASS_POINTS // max(lanes, 1) + 1).bit_length() - 1)


def _bisect(d, bsq, lo0, hi0, idx):
    """Eigenvalues with the ascending indices ``idx``, one bisection lane
    each, all starting from the bracket [lo0, hi0].  A lane stops when its
    midpoint equals an end of its bracket, or after _MAX_BISECT_ITER
    halvings.

    Each pass counts at the midpoints of the next ``depth`` levels of
    every lane's bisection tree, then walks those levels with the decision
    of plain bisection, count <= index.  Level j of the tree holds 2**j
    brackets per lane; the children of its bracket p are p (the lower
    half) and p + 2**j (the upper half) of level j + 1.  A stopped bracket
    [lo, hi], whose midpoint equals lo or hi, has as children itself and
    the point [mid, mid]; both are stopped and end at mid, the value plain
    bisection returns, so the walk may take either."""
    n = idx.shape[0]
    depth = _pass_depth(n)
    lo = np.full(n, lo0)
    hi = np.full(n, hi0)
    lanes = np.arange(n)
    q = _pivot_block(d.shape[0], ((1 << depth) - 1) * n)
    rows = list(q)
    bsq = bsq.tolist()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for levels in range(0, _MAX_BISECT_ITER, depth):
            los, his, mids = [lo[None]], [hi[None]], []
            for _ in range(depth):
                l, h = los[-1], his[-1]
                mid = 0.5 * (l + h)
                mids.append(mid)
                los.append(np.concatenate((l, mid)))
                his.append(np.concatenate((mid, h)))
            if not ((mids[0] != lo) & (mids[0] != hi)).any():
                break
            tree = np.concatenate(mids)
            up = _count_pass(d, bsq, tree.ravel(), q, rows).reshape(tree.shape) <= idx
            walk = min(depth, _MAX_BISECT_ITER - levels)
            node = np.zeros(n, dtype=np.intp)
            for j in range(walk):
                node += up[(1 << j) - 1 + node, lanes] << j
            lo = los[walk][node, lanes]
            hi = his[walk][node, lanes]
    return 0.5 * (lo + hi)


def _gershgorin_bracket(d, b) -> tuple[float, float]:
    """Interval [lo, hi] holding every eigenvalue (Gershgorin discs)."""
    radius = np.zeros(d.shape[0])
    ab = np.abs(b)
    radius[:-1] += ab
    radius[1:] += ab
    return float(np.min(d - radius)), float(np.max(d + radius))


def _as_tridiagonal(diag, offdiag):
    """Float64 copies of a diagonal and off-diagonal, validated as one
    tridiagonal matrix, and the squared off-diagonal: both one-dimensional,
    offdiag one shorter, every entry and every square finite."""
    d = np.ascontiguousarray(diag, dtype=np.float64)
    b = np.ascontiguousarray(offdiag, dtype=np.float64)
    if d.ndim != 1 or b.ndim != 1:
        raise ValueError("diag and offdiag must be one-dimensional")
    m = d.shape[0]
    if b.shape[0] != max(m - 1, 0):
        raise ValueError(f"offdiag must have length {max(m - 1, 0)}, got {b.shape[0]}")
    if not np.isfinite(d).all():
        raise ValueError("diag must be finite")
    with np.errstate(over="ignore"):
        bsq = b * b
    if not np.isfinite(bsq).all():
        raise ValueError("offdiag must be finite, with squares below the float64 maximum")
    return d, b, bsq


def count_below(d, bsq, points) -> np.ndarray:
    """Number of eigenvalues strictly below each of ``points``, for the
    float64 diagonal ``d`` and squared off-diagonal ``bsq``, in one
    vectorized Sturm pass over all the points."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    q = _pivot_block(d.shape[0], points.shape[0])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return _count_pass(d, np.asarray(bsq, dtype=np.float64).tolist(), points, q, list(q))


def sturm_count(diag, offdiag, x):
    """Number of eigenvalues strictly below x; for an array x, an array of
    the counts below each of its points, all counted in one pass."""
    d, _, bsq = _as_tridiagonal(diag, offdiag)
    if d.shape[0] == 0:
        raise ValueError("the matrix is empty")
    points = np.asarray(x, dtype=np.float64)
    if not np.isfinite(points).all():
        raise ValueError("x must be finite")
    counts = count_below(d, bsq, points.ravel())
    return int(counts[0]) if points.ndim == 0 else counts.reshape(points.shape)


def eigvalsh_tridiagonal(diag, offdiag) -> np.ndarray:
    """All eigenvalues, ascending, of the real symmetric tridiagonal matrix
    with the given diagonal and off-diagonal.

    If the diagonal is identically zero, only the upper half of the
    spectrum is bisected; the lower half is its exact mirror and, for odd
    size, the middle eigenvalue is exactly 0.
    """
    d, b, bsq = _as_tridiagonal(diag, offdiag)
    m = d.shape[0]
    if m == 0:
        return np.empty(0)
    lo0, hi0 = _gershgorin_bracket(d, b)
    if d.any():
        return _bisect(d, bsq, lo0, hi0, np.arange(m))
    pos = _bisect(d, bsq, lo0, hi0, np.arange(m - m // 2, m))
    return np.concatenate([-pos[::-1], np.zeros(m % 2), pos])
