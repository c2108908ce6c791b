"""Hermite ladder calculus and symplectic Clifford multiplication as bands.

CP^1 is a real surface, so its symplectic spinors are the Hermite
functions h_l of one variable.  They are handled purely symbolically:
every operator acts through the ladder relations

    X_1 . h_l = -i*l * h_(l-1)  -  i/2 * h_(l+1)
    X_2 . h_l =   -l * h_(l-1)  +  1/2 * h_(l+1)

for the symplectic basis X_1, X_2 (X_1 acts as i*x, X_2 as d/dx).  No
pointwise evaluation on R ever happens.  :func:`ladder` is the one
implementation of these relations: :func:`clifford_band` calls it to build
the band of a Clifford multiplication (the offset -> diagonal format of
:meth:`sdirac.su2.RepMatrices.bands`), first-principles assembly
(:func:`sdirac.operators.definition_coeffs`) once per k over all levels,
and :func:`_weights` the circle weights.  Coefficients are complex128,
exact while each product of two is below 2**53: the Clifford checks read
integers and halves on levels below 20, the weights products of at most
(l+1)^2.  All operations are pure.
"""

from __future__ import annotations

from functools import cache

import numpy as np

# weight_on_Wl takes l below this: its table of 2**23 int64 weights takes
# 64 MB, and each product the weights read, at most 2**46, is a double.
WEIGHT_LEVELS = 1 << 23
_CHUNK = 1 << 18  # levels _weights derives at a time: bounds its temporaries


def omega0(x, y):
    """Standard symplectic form on pairs (pos, der) of coordinates of
    pos X_1 + der X_2: omega0(X_1, X_2) = 1."""
    if len(x) != 2 or len(y) != 2:
        raise ValueError("omega0 needs two pairs (pos, der)")
    return x[0] * y[1] - x[1] * y[0]


def ladder(pos, der, l):
    """Coefficients (down, up) of h_(l-1) and h_(l+1) in (pos X_1 + der X_2) . h_l:

        down = -l (der + i pos),   up = (der - i pos) / 2,

    as complex128, elementwise on numpy arrays."""
    return -l * (der + 1j * pos), (der - 1j * pos) * 0.5


def clifford_band(x, levels):
    """Band of Clifford multiplication by x = (pos, der), that is by
    pos X_1 + der X_2, on the Hermite functions h_l with l in ``levels``
    (consecutive levels): lowering terms at offset +1, raising terms at
    offset -1, and a term that leaves the levels is dropped; {} for x = 0.
    ValueError unless x is a pair."""
    if len(x) != 2:
        raise ValueError("x must be one pair (pos, der)")
    pos, der = map(float, x)
    if pos == 0 and der == 0:
        return {}
    down, up = ladder(pos, der, np.asarray(levels))
    # entry t of offset +1 is column t + 1; of -1, column t
    return {1: down[1:], -1: np.full(len(levels[1:]), up)}


@cache
def _weights(stop: int) -> np.ndarray:
    """The circle weights w_l of :func:`weight_on_Wl` for l = 0..stop-1,
    read-only int64, read off the oscillator (X_1^2 + X_2^2)/2 on h_l, a
    sum over x = X_1, X_2 of two :func:`ladder` steps: its diagonal is
    1/2 sum up_x (down_x(l) + down_x(l+1)), its coefficients of h_(l-2)
    and h_(l+2) are 1/2 sum down_x(l) down_x(l-1) and 1/2 sum up_x^2.
    w_l is -2 times the diagonal; where that is not an integer, or either
    other coefficient is not 0, h_l is not an eigenline, and w_l is 0,
    which no weight 2j - k of an odd k is."""
    weights = np.zeros(stop, dtype=np.int64)
    for a in range(0, stop, _CHUNK):
        l = np.arange(a, min(a + _CHUNK, stop))
        w = lower = upper = 0  # -2 times the diagonal, twice the other two
        for x in ((1, 0), (0, 1)):
            (down, up), (down_next, _), (down_prev, _) = (ladder(*x, l + s) for s in (0, 1, -1))
            w, lower, upper = w - up * (down + down_next), lower + down * down_prev, upper + up * up
        weights[a : a + len(l)] = np.where((w == np.round(w.real)) & (lower == 0) & (upper == 0), w.real, 0)
    weights.flags.writeable = False
    return weights


def weight_on_Wl(l):
    """The integer w with i w the eigenvalue of the circle generator's
    action on the degree-l Hermite line, 2l+1 (0 if h_l is no eigenline),
    for an int l in 0..WEIGHT_LEVELS - 1 (ValueError otherwise) or an int
    array, read from the :func:`_weights` of the power of two above the
    largest l; each is derived once, so all l <= L cost O(L) in all."""
    ls = np.asarray(l)
    lo, hi = int(ls.min(initial=0)), int(ls.max(initial=0))
    if lo < 0 or hi >= WEIGHT_LEVELS:
        raise ValueError(f"l must be in 0..{WEIGHT_LEVELS - 1}, got {lo if lo < 0 else hi}")
    w = _weights(1 << hi.bit_length())[ls]
    return w if ls.ndim else int(w)
