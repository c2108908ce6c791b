"""Circle-equivariant maps from degree-k polynomials to Hermite lines.

A map L sending p_{k,j} to c_j * h_l intertwines the circle actions iff its
coefficients satisfy the weight-matching condition 2j - k = 2l + 1, which
pins down a one-dimensional space exactly when k is odd and l <= (k-1)/2.
Two independent routes are implemented: the weight-matching closed form and
an oracle that reads the stored weights.  e0 is stored as its diagonal, so
the equivariance system (e0^T - w I) c = 0 is diagonal and its nullity is
the number of entries of e0 equal to the weight w of h_l: the oracle counts
them instead of eliminating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .hermite import weight_on_Wl
from .su2 import RepMatrices, build_rep


@dataclass(frozen=True)
class Intertwiner:
    """The canonical circle-equivariant map for (k, l): p_{k,j} maps to h_l
    with coefficient 1 at j = :attr:`support` and 0 elsewhere.  Weight
    matching allows no other coefficients, so none are stored."""

    k: int
    l: int

    @property
    def support(self) -> int:
        """Basis index carrying the generator's single nonzero coefficient."""
        return (self.k + 1) // 2 + self.l


@dataclass(frozen=True)
class NormalizedIntertwiner:
    """Canonical generator rescaled so the assembled operators come out
    Hermitian.  ``scale_sq`` is the exact square of the factor; it grows
    like a factorial, so it is never converted to a float (at k >= 197 it
    would overflow one)."""

    k: int
    l: int
    scale_sq: Fraction

    @property
    def support(self) -> int:
        return (self.k + 1) // 2 + self.l


def hom_space(k: int, l: int):
    """Dimension of the equivariant-map space and, when it is nontrivial,
    its canonical generator (coefficient 1 at index (k+1)/2 + l)."""
    if k < 0 or l < 0:
        raise ValueError("k and l must be non-negative")
    if k % 2 == 0 or l > (k - 1) // 2:
        return 0, None
    return 1, Intertwiner(k, l)


def hom_space_oracle(k: int, l: int, rep: RepMatrices | None = None) -> int:
    """Dimension of the equivariant-map space read from the rep: the nullity
    of the system  L o e0 = i(2l+1) L  over all k+1 unknown coefficients.
    Equation j reads c_j (e0[j] - w) = 0, because e0 is stored as its
    diagonal, so the nullity is the number of j with e0[j] == w, counted
    in exact arithmetic."""
    if k < 0 or l < 0:
        raise ValueError("k and l must be non-negative")
    if rep is None:
        rep = build_rep(k)
    w = weight_on_Wl(l)
    return sum(x == w for x in rep.e0)


def normalize(L: Intertwiner) -> NormalizedIntertwiner:
    """Rescale the canonical generator by
    sqrt( ((k+1)/2 + l)! ((k-1)/2 - l)! / (2^l l!) )."""
    k, l = L.k, L.l
    if hom_space(k, l)[0] == 0:
        raise ValueError(f"no generator for (k={k}, l={l})")
    scale_sq = Fraction(
        math.factorial((k + 1) // 2 + l) * math.factorial((k - 1) // 2 - l),
        2**l * math.factorial(l),
    )
    return NormalizedIntertwiner(k, l, scale_sq)


def scale_sq_ratio(k: int):
    """(num, den), object arrays of ints over l = 1..m-1 with m = (k+1)/2:
    the ratio scale_sq(l)/scale_sq(l-1) of :func:`normalize` is num/den =
    (m+l)/(2l(m-l)).  Term by term from its factorials,
    (m+l)!/(m+l-1)! = m+l, (m-1-l)!/(m-l)! = 1/(m-l) and
    2^(l-1)(l-1)!/(2^l l!) = 1/(2l), so no factorial is built."""
    m = (k + 1) // 2
    l = np.arange(1, m, dtype=object)
    return m + l, 2 * l * (m - l)


def dim_invariant_space(k: int) -> int:
    """Dimension (k+1)^2/2 of the full invariant block for odd k, zero for
    even k; cross-checked against the sum of equivariant-map dimensions."""
    if k < 0:
        raise ValueError("k must be non-negative")
    closed = (k + 1) ** 2 // 2 if k % 2 == 1 else 0
    summed = (k + 1) * sum(hom_space(k, l)[0] for l in range(k + 2))
    if summed != closed:
        raise AssertionError(f"invariant-space dimension mismatch at k={k}")
    return closed


def equivariance_residual(k: int, l: int, rep: RepMatrices | None = None):
    """Exact residual of the generator under the weight condition:
    L o e0 - i(2l+1) L.  Returns True iff it is identically zero (the full
    identity, not just dimension counting).  The generator has one nonzero
    coefficient, at its support j, and e0 is diagonal, so the residual is
    (e0[j] - i(2l+1)) h_l on p_j and zero on every other basis vector."""
    dim, gen = hom_space(k, l)
    if dim == 0 or gen is None:
        raise ValueError(f"no generator for (k={k}, l={l})")
    if rep is None:
        rep = build_rep(k)
    return rep.e0[gen.support] == weight_on_Wl(l)
