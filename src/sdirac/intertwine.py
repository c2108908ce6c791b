"""Circle-equivariant maps from degree-k polynomials to Hermite lines.

A map L sending p_{k,j} to c_j * h_l intertwines the circle actions iff its
coefficients satisfy the weight-matching condition 2j - k = 2l + 1, which
pins down a one-dimensional space exactly when k is odd and l <= (k-1)/2.
Two independent routes are implemented: the weight-matching closed form and
an oracle that builds the full equivariance system (e0^T - w I) c = 0 from
the stored band of e0 as sparse rows and counts its null space with the
generic exact elimination :func:`sdirac.exact.nullspace_dim`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import nullspace_dim
from .hermite import weight_on_Wl
from .su2 import RepMatrices, build_rep


@dataclass(frozen=True)
class Intertwiner:
    """A circle-equivariant map: p_{k,j} maps to row[j] * h_l."""

    k: int
    l: int
    row: tuple

    def __post_init__(self):
        if len(self.row) != self.k + 1:
            raise ValueError(f"need {self.k + 1} coefficients, got {len(self.row)}")

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
    j = (k + 1) // 2 + l
    row = [0] * (k + 1)
    row[j] = 1
    return 1, Intertwiner(k, l, tuple(row))


def hom_space_oracle(k: int, l: int, rep: RepMatrices | None = None) -> int:
    """Brute-force dimension of the equivariant-map space: the null-space
    dimension of the linear system  L o e0 = i(2l+1) L  over all k+1
    unknown coefficients, solved in exact arithmetic."""
    if k < 0 or l < 0:
        raise ValueError("k and l must be non-negative")
    if rep is None:
        rep = build_rep(k)
    w = weight_on_Wl(l)
    # Row vector c of length k+1; equation j reads
    # sum_r c_r e0[r][j] - w c_j = 0, i.e. the matrix (e0^T - w I) acting on
    # c.  e0 is stored as its diagonal, so row j holds one entry.
    system = [{j: x - w} for j, x in enumerate(rep.e0)]
    return nullspace_dim(system, k + 1)


def normalize(L: Intertwiner) -> NormalizedIntertwiner:
    """Rescale the canonical generator by
    sqrt( ((k+1)/2 + l)! ((k-1)/2 - l)! / (2^l l!) )."""
    k, l = L.k, L.l
    dim, gen = hom_space(k, l)
    if dim == 0 or gen is None or gen.row != L.row:
        raise ValueError(f"not the canonical generator for (k={k}, l={l})")
    scale_sq = Fraction(
        math.factorial((k + 1) // 2 + l) * math.factorial((k - 1) // 2 - l),
        2**l * math.factorial(l),
    )
    return NormalizedIntertwiner(k, l, scale_sq)


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
    identity, not just dimension counting)."""
    dim, gen = hom_space(k, l)
    if dim == 0 or gen is None:
        raise ValueError(f"no generator for (k={k}, l={l})")
    if rep is None:
        rep = build_rep(k)
    w = weight_on_Wl(l)
    # (L o e0)(p_j) = sum_r row[r] e0[r][j], compared against w * row[j].
    # e0 is diagonal, so only the columns j of nonzero row[j] can differ.
    return all(not (x * rep.e0[j] - w * x) for j, x in enumerate(gen.row) if x)
