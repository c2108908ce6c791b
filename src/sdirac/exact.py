"""Exact Gaussian-rational scalars.

Every coefficient appearing in the ladder formulas, the su(2) matrices and
the intertwiner weights is of the form a + b*i with a, b rational, so a
tiny exact scalar type is enough to run all verification paths without
rounding.  Components are kept as plain ``int`` whenever possible (int and
``fractions.Fraction`` mix transparently) so that the common integer-only
paths stay fast.  The type is a ring: it adds, subtracts, negates and
multiplies, and compares with itself and with rationals.  Nothing divides
by a Gaussian rational: no linear system is solved (the one the checks
pose, the intertwiner equivariance system, is diagonal, and
:mod:`sdirac.intertwine` counts its null space by comparing weights), and
the exact assembly check compares squares on integers.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational


class QQi:
    """A Gaussian rational a + b*i with exact rational components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re
        self.im = im

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, QQi):
            return QQi(self.re + other.re, self.im + other.im)
        if isinstance(other, Rational):
            return QQi(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, QQi):
            return QQi(self.re - other.re, self.im - other.im)
        if isinstance(other, Rational):
            return QQi(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, Rational):
            return QQi(other - self.re, -self.im)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, QQi):
            return QQi(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, Rational):
            return QQi(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return QQi(-self.re, -self.im)

    # -- comparisons / conversions --------------------------------------

    def __eq__(self, other):
        if isinstance(other, QQi):
            return self.re == other.re and self.im == other.im
        if isinstance(other, Rational):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((Fraction(self.re), Fraction(self.im)))

    def __complex__(self):
        return float(self.re) + 1j * float(self.im)

    def __repr__(self):
        return f"QQi({self.re!r}, {self.im!r})"


QQI_ZERO = QQi(0, 0)
QQI_ONE = QQi(1, 0)
QQI_I = QQi(0, 1)
