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
:func:`sdirac.su2._band_mul_into`.  Coefficients are dual mode: exact
Gaussian rationals (:class:`sdirac.exact.QQi`) for exact coordinates,
complex doubles for float ones.  All operations here are pure.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

import numpy as np

from .exact import QQi, QQI_I
from .su2 import _band_mul_into


def _half_rational(a):
    """a / 2, an int when a is an even int, else a Fraction."""
    return a >> 1 if isinstance(a, int) and not a & 1 else Fraction(a, 2)


# Exact halving, elementwise on object arrays: integral halves stay ints, so
# the exact band products downstream run int arithmetic where they can.
_halve = np.frompyfunc(lambda v: QQi(_half_rational(v.re), _half_rational(v.im)), 1, 1)


def omega0(x, y):
    """Standard symplectic form on coordinate tuples of length 2n:
    omega0(X_j, X_(n+k)) = delta_jk."""
    if len(x) != len(y) or len(x) % 2:
        raise ValueError("omega0 needs two coordinate tuples of the same even length")
    n = len(x) // 2
    return sum(x[j] * y[n + j] - x[n + j] * y[j] for j in range(n))


def _is_float(x) -> bool:
    """True for float or complex scalars and for float or complex arrays."""
    return isinstance(x, (float, complex)) or getattr(getattr(x, "dtype", None), "kind", None) in ("f", "c")


def ladder(pos, der, l):
    """Coefficients (down, up) of h_(l-1) and h_(l+1) in (pos X_1 + der X_2) . h_l:

        down = -l (der + i pos),   up = (der - i pos) / 2.

    Elementwise on numpy arrays of levels and coordinates.  Float or
    complex inputs give complex doubles; anything else (int, Fraction,
    QQi, or integer and object arrays of them) stays exact, with QQi
    results whose integral components are ints."""
    if _is_float(pos) or _is_float(der):
        return -l * (der + 1j * pos), (der - 1j * pos) * 0.5
    i_pos = QQI_I * pos
    return -l * (der + i_pos), _halve(der - i_pos)


def clifford_band(x, levels):
    """Band of Clifford multiplication by x = (x_1, ..., x_2n) on the
    Hermite functions h_alpha with every alpha_j in ``levels`` (consecutive
    levels), flattened row-major: direction j has stride
    len(levels)**(n-1-j).  Lowering terms sit at offset +stride, raising
    terms at -stride, and a term that leaves the box is an explicit 0.
    Float coordinates give complex128 diagonals; any other coordinates
    give exact object arrays of QQi."""
    if len(x) % 2:
        raise ValueError("coordinate count must be even (pairs X_j, X_(n+j))")
    if any(map(_is_float, x)):
        x = tuple(map(float, x))
    levels = np.asarray(levels)
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
    """Exact band of the harmonic-oscillator Hamiltonian (X_1^2 + X_2^2)/2
    = (d^2/dx^2 - x^2)/2 on the one-dimensional Hermite functions h_l,
    l in ``levels``: one band product of two Clifford multiplications.  On
    h_l it is -(2l+1)/2 * h_l wherever h_(l-1) and h_(l+1) lie in the box."""
    out = {}
    for x in ((1, 0), (0, 1)):
        band = clifford_band(x, levels)
        _band_mul_into(out, band, band, len(levels), 1)
    return {o: _halve(d) for o, d in out.items()}


@cache
def weight_on_Wl(l: int) -> QQi:
    """Eigenvalue i*(2l+1) of the circle generator's action on the degree-l
    Hermite line, derived from the oscillator band on levels l-2..l+2 and
    cross-checked against the closed form.  A pure function of l, so each
    l is derived once per process; callers must not mutate the shared
    result."""
    if l < 0:
        raise ValueError("l must be non-negative")
    lo = max(0, l - 2)
    col = l - lo
    band = oscillator_band(range(lo, l + 3))
    # entry t of offset o sits at column t + max(0, o)
    column = {o: d[col - max(0, o)] for o, d in band.items() if 0 <= col - max(0, o) < len(d)}
    if any(column[o] for o in column if o != 0):
        raise AssertionError("oscillator action on h_l is not diagonal")
    eig = column[0]
    if eig.im != 0:
        raise AssertionError("oscillator eigenvalue is not real")
    derived = QQi(0, -2 * eig.re)
    closed = QQi(0, 2 * l + 1)
    if derived != closed:
        raise AssertionError(f"weight mismatch at l={l}: {derived!r} vs {closed!r}")
    return closed
