"""Eigenvalues of real symmetric tridiagonal matrices by Sturm bisection.

This is the one numerically hot loop in the package.  ``_bisect`` is a
pure-numpy kernel vectorized over eigenvalue indices: each eigenvalue is
bracketed from the global Gershgorin interval by counting, via the Sturm
pivot recurrence, how many eigenvalues lie below the midpoint, and halving
until the bracket collapses to adjacent floats (well past 1e-13 relative
accuracy).  Every lane performs the same IEEE operations whichever other
indices are bisected with it, so the result is deterministic and does not
depend on which indices are requested.  A pass sweeps the rows in
cache-sized blocks, and is redone with the zero-pivot floor only when it
meets a pivot that is exactly zero.  ``count_below`` runs the same pass once
over any set of points; the ``charpoly-eigs`` certificate is one such pass.

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


def _bisect(d, bsq, lo0, hi0, idx):
    """Eigenvalues with the ascending indices ``idx``, one bisection lane
    each, all starting from the bracket [lo0, hi0].  A lane stops when its
    midpoint equals an end of its bracket, or after _MAX_BISECT_ITER
    halvings."""
    n = idx.shape[0]
    lo = np.full(n, lo0)
    hi = np.full(n, hi0)
    q = _pivot_block(d.shape[0], n)
    rows = list(q)
    bsq = bsq.tolist()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(_MAX_BISECT_ITER):
            mid = 0.5 * (lo + hi)
            active = (mid != lo) & (mid != hi)
            if not active.any():
                break
            below = _count_pass(d, bsq, mid, q, rows) <= idx
            lo = np.where(active & below, mid, lo)
            hi = np.where(active & ~below, mid, hi)
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
    tridiagonal matrix: both one-dimensional, offdiag one shorter."""
    d = np.ascontiguousarray(diag, dtype=np.float64)
    b = np.ascontiguousarray(offdiag, dtype=np.float64)
    if d.ndim != 1 or b.ndim != 1:
        raise ValueError("diag and offdiag must be one-dimensional")
    m = d.shape[0]
    if b.shape[0] != max(m - 1, 0):
        raise ValueError(f"offdiag must have length {max(m - 1, 0)}, got {b.shape[0]}")
    return d, b


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
    d, b = _as_tridiagonal(diag, offdiag)
    if d.shape[0] == 0:
        raise ValueError("the matrix is empty")
    points = np.asarray(x, dtype=np.float64)
    counts = count_below(d, b * b, points.ravel())
    return int(counts[0]) if points.ndim == 0 else counts.reshape(points.shape)


def eigvalsh_tridiagonal(diag, offdiag) -> np.ndarray:
    """All eigenvalues, ascending, of the real symmetric tridiagonal matrix
    with the given diagonal and off-diagonal.

    If the diagonal is identically zero, only the upper half of the
    spectrum is bisected; the lower half is its exact mirror and, for odd
    size, the middle eigenvalue is exactly 0.
    """
    d, b = _as_tridiagonal(diag, offdiag)
    m = d.shape[0]
    if m == 0:
        return np.empty(0)
    lo0, hi0 = _gershgorin_bracket(d, b)
    bsq = b * b
    if d.any():
        return _bisect(d, bsq, lo0, hi0, np.arange(m))
    pos = _bisect(d, bsq, lo0, hi0, np.arange(m - m // 2, m))
    return np.concatenate([-pos[::-1], np.zeros(m % 2), pos])
