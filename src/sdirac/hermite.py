"""Hermite ladder calculus and symplectic Clifford multiplication as bands.

CP^1 is a real surface, so its symplectic spinors are the Hermite
functions h_l of one variable.  They are handled purely symbolically:
every operator acts through the ladder relations

    X_1 . h_l = -i*l * h_(l-1)  -  i/2 * h_(l+1)
    X_2 . h_l =   -l * h_(l-1)  +  1/2 * h_(l+1)

for the symplectic basis X_1, X_2 (X_1 acts as i*x, X_2 as d/dx).  No
pointwise evaluation on R ever happens.  :func:`ladder` is the one
implementation of these relations: :func:`clifford_band` calls it over
arrays of levels to build the matrix of a Clifford multiplication, and
first-principles assembly (:func:`sdirac.operators.definition_coeffs`)
calls it once per k over arrays of all levels l = 0..m-1.

A multiplication is stored as its band, the offset -> diagonal format of
:meth:`sdirac.su2.RepMatrices.bands`, on a run of consecutive levels;
products of bands go through :func:`sdirac.su2._band_mul_into`.
Coefficients are complex128.  The bands are exact: their operands pass the
guard of :mod:`sdirac.exact` (parts in (1/2)Z below 2**20), or they are
refused.  The circle weights are read off oscillator bands, one table per
power of two.  All operations are pure.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .exact import EXACT_BOUND, require_exact
from .su2 import _band_mul_into


def omega0(x, y):
    """Standard symplectic form on pairs (pos, der) of coordinates of
    pos X_1 + der X_2: omega0(X_1, X_2) = 1."""
    if len(x) != 2 or len(y) != 2:
        raise ValueError("omega0 needs two pairs (pos, der)")
    return x[0] * y[1] - x[1] * y[0]


def ladder(pos, der, l):
    """Coefficients (down, up) of h_(l-1) and h_(l+1) in (pos X_1 + der X_2) . h_l:

        down = -l (der + i pos),   up = (der - i pos) / 2,

    as complex128, elementwise on numpy arrays; exact when the operands
    pass the guard of :mod:`sdirac.exact`."""
    return -l * (der + 1j * pos), (der - 1j * pos) * 0.5


def clifford_band(x, levels):
    """Band of Clifford multiplication by x = (pos, der), that is by
    pos X_1 + der X_2, on the Hermite functions h_l with l in ``levels``
    (consecutive levels): lowering terms at offset +1, raising terms at
    offset -1, and a term that leaves the levels is dropped; {} for x = 0.
    Exact complex128 diagonals; ValueError unless x is a pair and the
    coordinates and levels pass the guard of :mod:`sdirac.exact`."""
    if len(x) != 2:
        raise ValueError("x must be one pair (pos, der)")
    levels = np.asarray(levels)
    require_exact(np.asarray(x), levels)
    pos, der = map(float, x)
    if pos == 0 and der == 0:
        return {}
    down, up = ladder(pos, der, levels)
    # entry t of offset +1 is column t + 1; of -1, column t
    return {1: down[1:], -1: np.full(len(levels[1:]), up)}


def oscillator_band(levels):
    """Band of the harmonic-oscillator Hamiltonian (X_1^2 + X_2^2)/2
    = (d^2/dx^2 - x^2)/2 on the one-dimensional Hermite functions h_l,
    l in ``levels``: one band product of two Clifford multiplications.
    Their entries are l or 1/2 on levels that :func:`clifford_band`
    guards, so the product is exact.  On h_l it is -(2l+1)/2 * h_l
    wherever h_(l-1) and h_(l+1) lie in ``levels``."""
    out = {}
    for x in ((1, 0), (0, 1)):
        band = clifford_band(x, levels)
        _band_mul_into(out, band, band, len(levels), 1)
    return {o: 0.5 * d for o, d in out.items()}


# Columns of one oscillator band that _weights derives at a time: a band on
# all 2**20 levels would hold hundreds of MB of complex128 diagonals.
_WINDOW = 1 << 14


@cache
def _weights(stop: int) -> np.ndarray:
    """The circle weights w_l of :func:`weight_on_Wl` for l = 0..stop-1,
    read-only int64, read off oscillator bands in windows of _WINDOW
    columns: columns a..b-1 from the band on levels a-2..b+1, clipped to
    0..stop, which holds every path l -> l -+ 1 -> l, l -+ 2 of those
    columns, so each of their entries is that of one band on levels
    0..stop.  w_l is -2 times the diagonal entry of column l.  Where that
    is not an integer, or the column holds another nonzero entry, h_l is
    not an eigenline, and w_l is 0, which no weight 2j - k of an odd k is."""
    weights = np.zeros(stop, dtype=np.int64)
    for a in range(0, stop, _WINDOW):
        b = min(a + _WINDOW, stop)
        lo = max(a - 2, 0)
        band = oscillator_band(range(lo, min(b + 1, stop) + 1))
        derived = -2 * band[0][a - lo : b - lo]
        for o, d in band.items():
            if o:
                # entry t of offset o sits at column lo + t + max(0, o)
                cols = lo + max(0, o) + np.flatnonzero(d)
                derived[cols[(a <= cols) & (cols < b)] - a] = 0
        weights[a:b] = np.where(derived == np.round(derived.real), derived.real, 0)
    weights.flags.writeable = False
    return weights


def weight_on_Wl(l):
    """The integer w with i w the eigenvalue of the circle generator's
    action on the degree-l Hermite line, 2l+1 (0 if h_l is no eigenline),
    for an int l or an int array, read from the :func:`_weights` of the
    power of two above the largest l; each is derived once, so the weights
    of all l <= L cost O(L) in all.  The oscillator on h_l reaches h_(l+1),
    a level the guard of :mod:`sdirac.exact` keeps below 2**20, so l must
    be in 0..2**20 - 2 (ValueError otherwise)."""
    ls = np.asarray(l)
    lo, hi = int(ls.min(initial=0)), int(ls.max(initial=0))
    if lo < 0 or hi >= EXACT_BOUND - 1:
        raise ValueError(f"l must be in 0..{EXACT_BOUND - 2}, got {lo if lo < 0 else hi}")
    w = _weights(min(1 << hi.bit_length(), EXACT_BOUND - 1))[ls]
    return w if ls.ndim else int(w)
