"""Irreducible SU(2) actions on homogeneous polynomials.

The degree-k space has basis p_{k,j}(z1, z2) = z1^(k-j) * z2^j, j = 0..k.
Only the Lie-algebra-level matrices of the basis

    E0 = [[i, 0], [0, i]]-type weight generator,
    E1, E2 spanning the symplectic complement

are built; the group-level action is never exponentiated.  Each matrix is
stored as its band of exact Gaussian integers (:class:`sdirac.exact.QQi`):
the diagonal of e0 and the sub- and super-diagonals of e1 and e2.  So e0 is
diagonal and e1, e2 are tridiagonal with zero diagonal by storage; the
``su2-weights`` and ``su2-structure`` checks inspect every stored entry.
The bracket check multiplies bands, in O(k).  Dense exact and complex128
matrices are built only on request: tests multiply :meth:`RepMatrices.dense`
by hand, and the benchmark under ``bench/`` times
:meth:`RepMatrices.as_arrays`.  No polynomial is ever stored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exact import QQI_ZERO, QQi


@dataclass(frozen=True)
class RepMatrices:
    """Bands of the three su(2) generators in the monomial basis.

    e0 holds the k+1 diagonal entries i*(2j - k).  e1 and e2 are each a
    pair (sub, sup) of k entries: sub[j] is entry (j+1, j) and sup[j] is
    entry (j, j+1).  e1 is real and e2 purely imaginary.  Entries are
    exact (QQi).
    """

    k: int
    e0: tuple
    e1: tuple
    e2: tuple

    def bands(self):
        """(e0, e1, e2) as mappings diagonal offset o -> entries; entry t
        of offset o sits at row t + max(0, -o), column that + o."""
        return (
            {0: self.e0},
            {-1: self.e1[0], 1: self.e1[1]},
            {-1: self.e2[0], 1: self.e2[1]},
        )

    def dense(self):
        """Exact dense (e0, e1, e2), row-major tuples of QQi."""
        return tuple(
            tuple(map(tuple, _dense(band, self.k + 1, object, QQI_ZERO))) for band in self.bands()
        )

    def as_arrays(self):
        """Complex128 copies of (e0, e1, e2).  No command reads them; the
        benchmark under ``bench/`` times this call."""
        return tuple(_dense(band, self.k + 1, np.complex128) for band in self.bands())


def build_rep(k: int) -> RepMatrices:
    """Bands of the su(2) generators on degree-k polynomials:

        e0 p_j = i(2j - k) p_j
        e1 p_j = (j - k) p_(j+1) + j p_(j-1)
        e2 p_j = i(j - k) p_(j+1) - i j p_(j-1)

    with out-of-range targets contributing nothing.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    return RepMatrices(
        k,
        tuple(QQi(0, 2 * j - k) for j in range(k + 1)),
        (tuple(QQi(j - k, 0) for j in range(k)), tuple(QQi(j + 1, 0) for j in range(k))),
        (tuple(QQi(0, j - k) for j in range(k)), tuple(QQi(0, -j - 1) for j in range(k))),
    )


def _dense(band, n: int, dtype, fill=0) -> np.ndarray:
    """The n x n matrix of a band, ``fill`` off the band."""
    out = np.full((n, n), fill, dtype=dtype)
    for o, diag in band.items():
        rows = np.arange(len(diag)) + max(0, -o)
        out[rows, rows + o] = diag
    return out


def _band_mul_into(out, a, b, n: int, sign: int) -> None:
    """Add sign * (a @ b) into ``out``; a, b and out are bands of n x n
    matrices with numpy diagonals (object dtype for QQi)."""
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


def _bracket_defect(a, b, c, s: int, n: int):
    """Band of [a, b] - s c."""
    out = {o: -s * d for o, d in c.items()}
    _band_mul_into(out, a, b, n, 1)
    _band_mul_into(out, b, a, n, -1)
    return out


def check_bracket(rep: RepMatrices, mode: str = "exact", tol: float = 1e-13) -> bool:
    """True iff [e0,e1] = 2 e2, [e0,e2] = -2 e1, [e1,e2] = 2 e0.

    The commutators are band products, O(k).  Exact mode compares Gaussian
    rationals; float mode compares complex128 entries within ``tol``.  The
    ``su2-bracket`` check runs the exact mode; the float mode stays because
    the benchmark under ``bench/`` times both.
    """
    if mode not in ("exact", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    dtype = object if mode == "exact" else np.complex128
    e0, e1, e2 = ({o: np.array(d, dtype=dtype) for o, d in b.items()} for b in rep.bands())
    n = rep.k + 1
    identities = ((e0, e1, e2, 2), (e0, e2, e1, -2), (e1, e2, e0, 2))
    defects = [d for args in identities for d in _bracket_defect(*args, n).values()]
    if mode == "exact":
        return not any(any(d) for d in defects)
    return all(np.max(np.abs(d), initial=0.0) <= tol for d in defects)
