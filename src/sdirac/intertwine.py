"""Circle-equivariant maps from degree-k polynomials to Hermite lines.

A map L sending p_{k,j} to c_j * h_l intertwines the circle actions iff its
coefficients satisfy the weight-matching condition 2j - k = 2l + 1, which
pins down a one-dimensional space exactly when k is odd and l <= (k-1)/2.
Its canonical generator has the single coefficient 1, at j = (k+1)/2 + l,
so no generator is stored: :func:`hom_space` returns the dimension and
:func:`equivariance_residual` reads the support j inline.

Two independent routes give the dimension: the weight-matching closed
form and an oracle that reads the stored weights.  e0 = i W is stored as
the integer diagonal W, so the equivariance system (e0^T - i w I) c = 0
is diagonal and its nullity is the number of entries of W equal to the
integer weight w of h_l (:func:`sdirac.hermite.weight_on_Wl`): the oracle
counts them, by binary search of the ascending W, instead of eliminating.
Each function takes an int l, giving a Python scalar, or an int array,
giving an array (int64 or bool, also when empty).
"""

from __future__ import annotations

import numpy as np

from .hermite import weight_on_Wl
from .su2 import RepMatrices, build_rep


def hom_space(k: int, l):
    """Dimension of the equivariant-map space: 1 for odd k and
    l <= (k-1)/2, else 0."""
    ls = np.asarray(l)
    if k < 0 or ls.min(initial=0) < 0:
        raise ValueError("k and l must be non-negative")
    dim = (ls <= (k - 1) // 2) * (k % 2)
    return dim if ls.ndim else int(dim)


def hom_space_oracle(k: int, l, rep: RepMatrices | None = None):
    """Dimension of the equivariant-map space read from the rep: the nullity
    of the system  L o e0 = i w L  over all k+1 unknown coefficients, for
    the weight w of h_l that :func:`sdirac.hermite.weight_on_Wl` reads off
    the oscillator.  Equation j reads c_j i (W[j] - w) = 0, because e0 = i W
    is stored as its integer diagonal, so the nullity is the number of j
    with W[j] == w."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if rep is None:
        rep = build_rep(k)
    w = weight_on_Wl(l)  # ValueError for a negative l
    count = np.searchsorted(rep.w, w, side="right") - np.searchsorted(rep.w, w, side="left")
    return count if np.ndim(l) else int(count)


def scale_sq_ratio(k: int):
    """(num, den), int64 arrays over l = 1..m-1 with m = (k+1)/2:
    the ratio scale_sq(l)/scale_sq(l-1) is num/den = (m+l)/(2l(m-l)), where
    scale_sq(l) = (m+l)! (m-1-l)! / (2^l l!) is the square of the factor
    that rescales the canonical generator of (k, l) so the assembled
    operators come out Hermitian.  Term by term from its factorials,
    (m+l)!/(m+l-1)! = m+l, (m-1-l)!/(m-l)! = 1/(m-l) and
    2^(l-1)(l-1)!/(2^l l!) = 1/(2l), so no factorial is built.  The
    ratios fit a float; scale_sq itself passes the float maximum from
    k = 197.  num and den are below 2**53 while k is below 2**27, so
    num / den rounds once, as the quotient of the exact integers does."""
    m = (k + 1) // 2
    l = np.arange(1, m, dtype=np.int64)
    return m + l, 2 * l * (m - l)


def equivariance_residual(k: int, l, rep: RepMatrices | None = None):
    """Exact residual of the canonical generator of (k, l) under the weight
    condition: L o e0 - i(2l+1) L.  Returns True iff it is identically
    zero (the full identity, not just dimension counting).  The generator
    sends p_{k,j} to h_l with coefficient 1 at its support
    j = (k+1)/2 + l and 0 elsewhere, and e0 = i W is diagonal, so the
    residual is i (W[j] - (2l+1)) h_l on p_j and zero on every other basis
    vector; the integers are compared."""
    if not np.all(hom_space(k, l)):
        raise ValueError(f"no generator for (k={k}, l={l})")
    if rep is None:
        rep = build_rep(k)
    holds = rep.w[(k + 1) // 2 + np.asarray(l, dtype=np.int64)] == weight_on_Wl(l)
    return holds if np.ndim(l) else bool(holds)
