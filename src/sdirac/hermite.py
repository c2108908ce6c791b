"""Multi-index Hermite basis and symplectic Clifford multiplication.

Hermite functions are handled purely symbolically: a basis element is a
multi-index alpha and all operators act through the ladder relations

    X_j     . h_alpha = -i*alpha_j * h_(alpha-<j>)  -  i/2 * h_(alpha+<j>)
    X_(n+j) . h_alpha =   -alpha_j * h_(alpha-<j>)  +  1/2 * h_(alpha+<j>)

for the symplectic basis X_1..X_2n (X_j acts as i*x_j, X_(n+j) as d/dx_j).
No pointwise evaluation on R^n ever happens.  :func:`ladder` is the one
implementation of these relations: :func:`clifford_apply` calls it for
each term of a spinor, and first-principles assembly
(:func:`sdirac.operators.definition_coeffs`) calls it once per k over
arrays of all levels l = 0..m-1.

Coefficients are dual mode: exact Gaussian rationals (:class:`sdirac.exact.QQi`)
on verification paths, complex doubles on spectral paths.  A spinor's
``trunc`` bounds the degrees it may hold; Clifford multiplication raises
it by one, so no term is ever clipped.  All operations here are pure and
every value is immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .exact import QQi, QQI_I, QQI_ONE

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class MultiIndex:
    """A tuple of non-negative integers indexing a Hermite basis function."""

    entries: tuple

    def __post_init__(self):
        if any((not isinstance(a, int)) or a < 0 for a in self.entries):
            raise ValueError(f"multi-index entries must be non-negative integers: {self.entries}")

    @property
    def degree(self) -> int:
        return sum(self.entries)

    def raised(self, j: int) -> "MultiIndex":
        e = list(self.entries)
        e[j] += 1
        return MultiIndex(tuple(e))

    def lowered(self, j: int) -> "MultiIndex":
        e = list(self.entries)
        e[j] -= 1
        return MultiIndex(tuple(e))


@dataclass(frozen=True)
class MVector:
    """A real vector in the 2n-dimensional symplectic model space,
    expressed in the fixed symplectic basis (X_1, ..., X_2n)."""

    coords: tuple

    @property
    def n(self) -> int:
        return len(self.coords) // 2

    def __post_init__(self):
        if len(self.coords) % 2 != 0:
            raise ValueError("coordinate count must be even (pairs X_j, X_(n+j))")

    def __add__(self, other: "MVector") -> "MVector":
        if len(self.coords) != len(other.coords):
            raise ValueError("dimension mismatch")
        return MVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def scaled(self, s) -> "MVector":
        return MVector(tuple(s * a for a in self.coords))

    @staticmethod
    def basis(n: int, a: int) -> "MVector":
        """The basis vector X_(a+1), 0-based: a in 0..2n-1."""
        c = [0] * (2 * n)
        c[a] = 1
        return MVector(tuple(c))


def omega0(x: MVector, y: MVector):
    """Standard symplectic form: omega0(X_j, X_(n+k)) = delta_jk."""
    n = x.n
    if y.n != n:
        raise ValueError("dimension mismatch")
    return sum(
        x.coords[j] * y.coords[n + j] - x.coords[n + j] * y.coords[j]
        for j in range(n)
    )


@dataclass(frozen=True)
class SpinorVector:
    """A finite linear combination of Hermite basis functions h_alpha
    with total degree at most ``trunc``."""

    n: int
    trunc: int
    coeffs: dict

    def __post_init__(self):
        cleaned = {}
        for alpha, c in self.coeffs.items():
            if not isinstance(alpha, MultiIndex):
                alpha = MultiIndex(tuple(alpha))
            if len(alpha.entries) != self.n:
                raise ValueError(f"multi-index {alpha.entries} does not have {self.n} entries")
            if alpha.degree > self.trunc:
                raise ValueError(f"degree {alpha.degree} exceeds truncation {self.trunc}")
            if c == 0:
                continue
            cleaned[alpha] = c
        object.__setattr__(self, "coeffs", cleaned)

    @classmethod
    def basis(cls, n: int, alpha, trunc: int | None = None, exact: bool = True) -> "SpinorVector":
        """The single Hermite function h_alpha, with coefficient 1."""
        mi = alpha if isinstance(alpha, MultiIndex) else MultiIndex(tuple(alpha))
        if trunc is None:
            trunc = mi.degree
        one = QQI_ONE if exact else (1 + 0j)
        return cls(n, trunc, {mi: one})

    def __add__(self, other: "SpinorVector") -> "SpinorVector":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        merged = dict(self.coeffs)
        for alpha, c in other.coeffs.items():
            merged[alpha] = merged[alpha] + c if alpha in merged else c
        return SpinorVector(self.n, max(self.trunc, other.trunc), merged)

    def scaled(self, s) -> "SpinorVector":
        return SpinorVector(self.n, self.trunc, {alpha: c * s for alpha, c in self.coeffs.items()})

    def coeff(self, alpha):
        mi = alpha if isinstance(alpha, MultiIndex) else MultiIndex(tuple(alpha))
        return self.coeffs.get(mi, 0)

    def degrees(self) -> set:
        return {alpha.degree for alpha in self.coeffs}

    def is_zero(self) -> bool:
        return not self.coeffs


def _is_float(x) -> bool:
    """True for float or complex scalars and for float or complex arrays."""
    return isinstance(x, (float, complex)) or getattr(getattr(x, "dtype", None), "kind", None) in ("f", "c")


def ladder(pos, der, l):
    """Coefficients (down, up) of h_(l-1) and h_(l+1) in (pos X_1 + der X_2) . h_l:

        down = -l (der + i pos),   up = (der - i pos) / 2.

    Elementwise on numpy arrays of levels and coordinates.  Float or
    complex inputs give complex doubles; anything else (int, Fraction,
    QQi, or integer and object arrays of them) stays exact."""
    i, half = (1j, 0.5) if _is_float(pos) or _is_float(der) else (QQI_I, _HALF)
    i_pos = i * pos
    return -l * (der + i_pos), (der - i_pos) * half


def _accum(acc: dict, alpha: MultiIndex, term) -> None:
    acc[alpha] = acc[alpha] + term if alpha in acc else term


def clifford_apply(x: MVector, phi: SpinorVector) -> SpinorVector:
    """Apply the symplectic Clifford multiplication by x to phi.  The
    truncation window grows by one degree, so nothing is ever clipped.
    Each term c h_alpha and direction j goes through :func:`ladder`, which
    is linear in (pos, der), so c is folded into the coordinates; a zero
    coordinate is passed as the int 0, not as the product c * 0."""
    n = phi.n
    if x.n != n:
        raise ValueError(f"dimension mismatch: vector has n={x.n}, spinor has n={n}")
    acc: dict = {}
    for alpha, c in phi.coeffs.items():
        for j in range(n):
            pos = x.coords[j]
            der = x.coords[n + j]
            if pos == 0 and der == 0:
                continue
            aj = alpha.entries[j]
            down, up = ladder(c * pos if pos else 0, c * der if der else 0, aj)
            if aj:
                _accum(acc, alpha.lowered(j), down)
            _accum(acc, alpha.raised(j), up)
    return SpinorVector(n, phi.trunc + 1, acc)


def oscillator_apply(phi: SpinorVector) -> SpinorVector:
    """Harmonic-oscillator Hamiltonian (d^2/dx^2 - x^2)/2 on a one-dimensional
    spinor, composed from two Clifford multiplications.  On a pure h_l this
    gives exactly -(2l+1)/2 * h_l."""
    if phi.n != 1:
        raise ValueError("oscillator_apply is defined for n = 1 only")
    x1 = MVector((1, 0))
    x2 = MVector((0, 1))
    out = clifford_apply(x2, clifford_apply(x2, phi)) + clifford_apply(x1, clifford_apply(x1, phi))
    return out.scaled(_HALF)


@cache
def weight_on_Wl(l: int) -> QQi:
    """Eigenvalue i*(2l+1) of the circle generator's action on the degree-l
    Hermite line, derived from the oscillator eigenvalue and cross-checked
    against the closed form.  A pure function of l, so each l is derived
    once per process; callers must not mutate the shared result."""
    if l < 0:
        raise ValueError("l must be non-negative")
    h_l = SpinorVector.basis(1, (l,), exact=True)
    out = oscillator_apply(h_l)
    if set(out.coeffs) != {MultiIndex((l,))}:
        raise AssertionError("oscillator action on h_l is not diagonal")
    eig = out.coeff((l,))
    if eig.im != 0:
        raise AssertionError("oscillator eigenvalue is not real")
    derived = QQi(0, -2 * eig.re)
    closed = QQi(0, 2 * l + 1)
    if derived != closed:
        raise AssertionError(f"weight mismatch at l={l}: {derived!r} vs {closed!r}")
    return closed
