"""The exactness guard of the complex128 routes that claim exact values.

Every exact value here is a Gaussian integer or half-integer of small
modulus, so it runs in int64 or complex128.  If every operand of a product
has real and imaginary parts in (1/2)Z below 2**20, each product is in
(1/4)Z below 2**40, and a double holds it, and a sum of a few of them,
exactly.  The routes that claim exactness test their operands with
:func:`exact_in_double` and refuse or fail outside it, so no rounded value
passes as exact.  The int64 su(2) bracket has its own guard
(:func:`sdirac.su2.bracket_defect`).
"""

from __future__ import annotations

import numpy as np

# Real and imaginary parts of a guarded operand are below this in modulus.
EXACT_BOUND = 2**20


def exact_in_double(*operands) -> bool:
    """True iff every real and imaginary part of every entry of the
    operands (numbers, arrays or offset -> diagonal bands) is in (1/2)Z
    below EXACT_BOUND in modulus; a non-number, such as a Fraction, fails."""
    arrays = [np.asarray(a) for x in operands for a in (x.values() if isinstance(x, dict) else (x,))]
    if any(a.dtype.kind not in "biufc" for a in arrays):
        return False
    parts = np.concatenate([np.zeros(0)] + [p.ravel() for a in arrays for p in (a.real, a.imag)])
    # an integer that rounds on conversion is far above the bound
    twice = 2 * parts.astype(np.float64)
    return bool(np.array_equal(twice, np.round(twice)) and np.all(np.abs(twice) < 2 * EXACT_BOUND))


def require_exact(*operands) -> None:
    """Raise ValueError unless :func:`exact_in_double` holds."""
    if not exact_in_double(*operands):
        raise ValueError("an operand is outside (1/2)Z or not below 2**20 in modulus, so a double would not hold it exactly")
