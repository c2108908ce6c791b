"""Hermite ladder calculus and symplectic Clifford multiplication as bands.

Hermite functions are handled purely symbolically: a basis element is a
multi-index alpha and all operators act through the ladder relations

    X_j     . h_alpha = -i*alpha_j * h_(alpha-<j>)  -  i/2 * h_(alpha+<j>)
    X_(n+j) . h_alpha =   -alpha_j * h_(alpha-<j>)  +  1/2 * h_(alpha+<j>)

for the symplectic basis X_1..X_2n (X_j acts as i*x_j, X_(n+j) as d/dx_j).
No pointwise evaluation on R^n ever happens.  :func:`ladder` is the one
implementation of these relations: :func:`clifford_band` calls it over
arrays of levels to build the matrix of a Clifford multiplication, and
first-principles assembly (:func:`sdirac.operators.definition_coeffs`)
calls it once per k over arrays of all levels l = 0..m-1.

A multiplication is stored as its band, the offset -> diagonal format of
:meth:`sdirac.su2.RepMatrices.bands`, on the box of multi-indices whose
entries all lie in a given run of levels; products of bands go through
:func:`sdirac.su2._band_mul_into`.  Coefficients are complex128.  The bands
are exact: their operands pass the guard of :mod:`sdirac.exact` (parts in
(1/2)Z below 2**20), or they are refused.  The circle weights are read
off oscillator bands, one table per power of two.  All operations are pure.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .exact import EXACT_BOUND, require_exact
from .su2 import _band_mul_into


def omega0(x, y):
    """Standard symplectic form on coordinate tuples of length 2n:
    omega0(X_j, X_(n+k)) = delta_jk."""
    if len(x) != len(y) or len(x) % 2:
        raise ValueError("omega0 needs two coordinate tuples of the same even length")
    n = len(x) // 2
    return sum(x[j] * y[n + j] - x[n + j] * y[j] for j in range(n))


def ladder(pos, der, l):
    """Coefficients (down, up) of h_(l-1) and h_(l+1) in (pos X_1 + der X_2) . h_l:

        down = -l (der + i pos),   up = (der - i pos) / 2,

    as complex128, elementwise on numpy arrays; exact when the operands
    pass the guard of :mod:`sdirac.exact`."""
    return -l * (der + 1j * pos), (der - 1j * pos) * 0.5


def clifford_band(x, levels):
    """Band of Clifford multiplication by x = (x_1, ..., x_2n) on the
    Hermite functions h_alpha with every alpha_j in ``levels`` (consecutive
    levels), flattened row-major: direction j has stride
    len(levels)**(n-1-j).  Lowering terms sit at offset +stride, raising
    terms at -stride, and a term that leaves the box is an explicit 0.
    Exact complex128 diagonals; ValueError unless the coordinates and
    levels pass the guard of :mod:`sdirac.exact`."""
    if len(x) % 2:
        raise ValueError("coordinate count must be even (pairs X_j, X_(n+j))")
    levels = np.asarray(levels)
    require_exact(np.asarray(x), levels)
    x = tuple(map(float, x))
    n, size = len(x) // 2, len(levels)
    box = np.indices((size,) * n).reshape(n, -1)
    band = {}
    for j in range(n):
        pos, der = x[j], x[n + j]
        if pos == 0 and der == 0:
            continue
        stride = size ** (n - 1 - j)
        down, up = ladder(pos, der, levels[box[j]])
        # entry t of offset +stride is column t + stride; of -stride, column t
        for o, coeff, keep in ((stride, down, box[j] > 0), (-stride, up, box[j] < size - 1)):
            entries = np.where(keep, coeff, 0)
            entries = entries[o:] if o > 0 else entries[:o]
            band[o] = band[o] + entries if o in band else entries
    return band


def oscillator_band(levels):
    """Band of the harmonic-oscillator Hamiltonian (X_1^2 + X_2^2)/2
    = (d^2/dx^2 - x^2)/2 on the one-dimensional Hermite functions h_l,
    l in ``levels``: one band product of two Clifford multiplications,
    whose entries must pass the guard of :mod:`sdirac.exact`.  On h_l it
    is -(2l+1)/2 * h_l wherever h_(l-1) and h_(l+1) lie in the box."""
    out = {}
    for x in ((1, 0), (0, 1)):
        band = clifford_band(x, levels)
        require_exact(band)
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
    0..stop.  Column l must hold -w_l/2 on its diagonal and nothing else,
    cross-checked against the closed form 2l + 1."""
    closed = 2 * np.arange(stop, dtype=np.int64) + 1
    for a in range(0, stop, _WINDOW):
        b = min(a + _WINDOW, stop)
        lo = max(a - 2, 0)
        band = oscillator_band(range(lo, min(b + 1, stop) + 1))
        # entry t of offset o sits at column lo + t + max(0, o)
        if any(np.any(d[max(a - lo - max(0, o), 0) : b - lo - max(0, o)]) for o, d in band.items() if o != 0):
            raise AssertionError("oscillator action on a Hermite line is not diagonal")
        derived = -2 * band[0][a - lo : b - lo]
        wrong = np.flatnonzero(derived != closed[a:b])
        if wrong.size:
            l = a + wrong[0]
            raise AssertionError(f"weight mismatch at l={l}: {derived[wrong[0]]} vs {closed[l]}")
    closed.flags.writeable = False
    return closed


def weight_on_Wl(l):
    """The integer w = 2l+1 with i w the eigenvalue of the circle
    generator's action on the degree-l Hermite line, for an int l or an
    int array, read from the :func:`_weights` of the power of two above
    the largest l; each is derived once, so the weights of all l <= L cost
    O(L) in all.  The oscillator on h_l reaches h_(l+1), a level the guard
    of :mod:`sdirac.exact` keeps below 2**20, so l must be in
    0..2**20 - 2 (ValueError otherwise)."""
    ls = np.asarray(l)
    lo, hi = int(ls.min(initial=0)), int(ls.max(initial=0))
    if lo < 0 or hi >= EXACT_BOUND - 1:
        raise ValueError(f"l must be in 0..{EXACT_BOUND - 2}, got {lo if lo < 0 else hi}")
    w = _weights(min(1 << hi.bit_length(), EXACT_BOUND - 1))[ls]
    return w if ls.ndim else int(w)
