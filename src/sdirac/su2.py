"""Irreducible SU(2) actions on homogeneous polynomials.

The degree-k space has basis p_{k,j}(z1, z2) = z1^(k-j) * z2^j, j = 0..k.
Only the Lie-algebra-level matrices of the basis

    E0 = [[i, 0], [0, i]]-type weight generator,
    E1, E2 spanning the symplectic complement

are built; the group-level action is never exponentiated.  Each matrix is
stored as the int64 band of its integer part: e0 = i W with W diagonal,
e1 = R and e2 = i S with R, S tridiagonal with zero diagonal, so e0 is
diagonal, e1 real and e2 imaginary by storage.  The bracket check
multiplies these bands, in O(k).  Dense complex128 matrices are built only
on request (:meth:`RepMatrices.as_arrays`, which the benchmark under
``bench/`` times).  No polynomial is ever stored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RepMatrices:
    """int64 bands of the su(2) generators in the monomial basis, as their
    integer parts: e0 = i diag(w), e1 = R and e2 = i S.  w holds the k+1
    weights 2j - k; r and s are each a pair (sub, sup) of the k entries
    (j+1, j) and (j, j+1) of R and S."""

    k: int
    w: np.ndarray
    r: tuple
    s: tuple

    def bands(self):
        """(W, R, S) as mappings diagonal offset o -> int64 entries; entry t
        of offset o sits at row t + max(0, -o), column that + o."""
        return {0: self.w}, dict(zip((-1, 1), self.r)), dict(zip((-1, 1), self.s))

    def as_arrays(self):
        """Complex128 dense (e0, e1, e2) = (i W, R, i S)."""
        return tuple(
            scale * _dense(band, self.k + 1, np.complex128) for scale, band in zip((1j, 1, 1j), self.bands())
        )


def build_rep(k: int) -> RepMatrices:
    """Bands of the su(2) generators on degree-k polynomials:

        e0 p_j = i(2j - k) p_j
        e1 p_j = (j - k) p_(j+1) + j p_(j-1)
        e2 p_j = i(j - k) p_(j+1) - i j p_(j-1)

    with out-of-range targets contributing nothing.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    j = np.arange(k + 1, dtype=np.int64)
    lower, upper = j[:-1] - k, j[1:]
    return RepMatrices(k, 2 * j - k, (lower, upper), (lower.copy(), -upper))


def _dense(band, n: int, dtype) -> np.ndarray:
    """The n x n matrix of a band, 0 off the band."""
    out = np.zeros((n, n), dtype=dtype)
    for o, diag in band.items():
        rows = np.arange(len(diag)) + max(0, -o)
        out[rows, rows + o] = diag
    return out


def _band_mul_into(out, a, b, n: int, sign: int) -> None:
    """Add sign * (a @ b) into ``out``; a, b and out are bands of n x n
    matrices with numpy diagonals."""
    for oa, da in a.items():
        for ob, db in b.items():
            o = oa + ob
            # rows r with r, r + oa and r + o all inside the matrix
            lo, hi = max(0, -oa, -o), min(n, n - oa, n - o)
            if lo >= hi:
                continue
            sa, sb, so = max(0, -oa), max(0, -ob), max(0, -o)
            prod = da[lo - sa:hi - sa] * db[lo + oa - sb:hi + oa - sb]
            if o not in out:
                out[o] = np.zeros(n - abs(o), dtype=prod.dtype)
            out[o][lo - so:hi - so] += prod if sign == 1 else -prod


def _bracket_defect(a, b, c, s, n: int):
    """Band of [a, b] - s c."""
    out = {o: -s * d for o, d in c.items()}
    _band_mul_into(out, a, b, n, 1)
    _band_mul_into(out, b, a, n, -1)
    return out


def bracket_defect(rep: RepMatrices, dtype=np.int64):
    """Largest modulus of an entry of [W,R] - 2S, [W,S] - 2R and
    [R,S] - 2W, that is of [e0,e1] - 2e2, -([e0,e2] + 2e1) and
    -i([e1,e2] - 2e0), computed in ``dtype``.  A partial sum of a defect
    entry holds at most four products of stored entries and a doubled one,
    so int64 is exact while 4 M (M + 1) < 2**63 for the largest stored
    modulus M (M = k for build_rep(k)); beyond it the int64 route returns
    inf, so a wrapped product never passes as 0."""
    bands = rep.bands()
    if dtype is np.int64:
        big = max((max(int(d.max()), -int(d.min())) for band in bands for d in band.values() if d.size), default=0)
        if 4 * big * (big + 1) >= 2**63:
            return np.inf
    w, r, s = ({o: np.asarray(d, dtype=dtype) for o, d in band.items()} for band in bands)
    n = rep.k + 1
    defects = (_bracket_defect(*args, 2, n) for args in ((w, r, s), (w, s, r), (r, s, w)))
    return max((np.max(np.abs(d)) for band in defects for d in band.values() if d.size), default=0)


def check_bracket(rep: RepMatrices, mode: str = "exact") -> bool:
    """True iff [e0,e1] = 2 e2, [e0,e2] = -2 e1, [e1,e2] = 2 e0: the int64
    :func:`bracket_defect` is 0 (exact mode) or its float64 value is at
    most 1e-13 (float mode, kept because the benchmark under ``bench/``
    times both)."""
    if mode not in ("exact", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact":
        return bracket_defect(rep) == 0
    return bracket_defect(rep, np.float64) <= 1e-13
