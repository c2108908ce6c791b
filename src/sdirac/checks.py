"""Named invariant checks backing the ``verify`` CLI command and the
``checks`` of every spectrum report.

Each check returns pass/fail plus a measured residual so failures are
diagnosable from the command line.  Global checks are k-independent
(Clifford ladder algebra, oscillator eigenvalues); per-k checks cover the
representation matrices, the intertwiner spaces and the assembled operator
blocks.  All per-k checks of one k read one
:class:`sdirac.operators.KContext`, so its rep, charpoly, blocks, bands and
spectrum are each built once per k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .exact import QQi
from .hermite import MVector, SpinorVector, clifford_apply, omega0, oscillator_apply, weight_on_Wl
from .intertwine import dim_invariant_space, equivariance_residual, hom_space, hom_space_oracle
from .operators import (
    KContext,
    abs_det,
    assembly_matches_exact,
    assembly_mismatch_float,
    check_commutator,
    norm_bound_holds,
    spectrum,  # noqa: F401 - kept importable from here; bench/selftest.py reads it
    unitary_equivalence_exact,
)
from .su2 import check_bracket


@dataclass(frozen=True)
class CheckResult:
    name: str
    k: int | None  # None for k-independent checks
    ok: bool
    residual: float


def _interior_indices(n: int, max_degree: int):
    """All multi-indices with n entries and total degree <= max_degree."""
    if n == 1:
        return [(d,) for d in range(max_degree + 1)]
    out = []
    for a in range(max_degree + 1):
        for b in range(max_degree + 1 - a):
            out.append((a, b))
    return out


def _spinor_diff_max(u: SpinorVector, v: SpinorVector) -> float:
    d = u + v.scaled(-1)
    if not d.coeffs:
        return 0.0
    return max(abs(complex(c)) for c in d.coeffs.values())


# -- global checks ------------------------------------------------------


def check_ladder_commutator(mode: str = "both", trunc: int = 20) -> CheckResult:
    """[X_a., X_b.] = -i omega0(X_a, X_b) id on all interior basis vectors,
    exactly in rational mode and to 1e-14 in float mode."""
    worst = 0.0
    ok = True
    exact_modes = {"exact": (True,), "float": (False,), "both": (True, False)}[mode]
    for n in (1, 2):
        basis_vecs = [MVector.basis(n, a) for a in range(2 * n)]
        for exact in exact_modes:
            for alpha in _interior_indices(n, trunc - 2):
                phi = SpinorVector.basis(n, alpha, exact=exact)
                for a, b in product(range(2 * n), repeat=2):
                    xa, xb = basis_vecs[a], basis_vecs[b]
                    lhs = clifford_apply(xa, clifford_apply(xb, phi)) + clifford_apply(
                        xb, clifford_apply(xa, phi)
                    ).scaled(-1)
                    w = omega0(xa, xb)
                    rhs = phi.scaled(QQi(0, -w) if exact else complex(0, -w))
                    if exact:
                        if not (lhs + rhs.scaled(-1)).is_zero():
                            ok = False
                            worst = max(worst, _spinor_diff_max(lhs, rhs))
                    else:
                        dev = _spinor_diff_max(lhs, rhs)
                        worst = max(worst, dev)
                        if dev > 1e-14:
                            ok = False
    return CheckResult("clifford-ladder", None, ok, worst)


def check_grading(trunc: int = 20) -> CheckResult:
    """A single Clifford multiplication moves a pure degree-l vector into
    degrees {l-1, l+1} only."""
    ok = True
    for n in (1, 2):
        for a in range(2 * n):
            x = MVector.basis(n, a)
            for alpha in _interior_indices(n, trunc - 2):
                phi = SpinorVector.basis(n, alpha)
                out = clifford_apply(x, phi)
                deg = sum(alpha)
                if not out.degrees() <= {deg - 1, deg + 1}:
                    ok = False
    return CheckResult("clifford-grading", None, ok, 0.0)


def check_linearity() -> CheckResult:
    """clifford_apply(aX + bY, phi) = a X.phi + b Y.phi on a fixed sample of
    exact vectors and spinors."""
    ok = True
    n = 2
    x = MVector((1, 0, Fraction(2, 3), 0))
    y = MVector((0, -2, 0, Fraction(1, 2)))
    a, b = Fraction(3, 4), -5
    phi = (
        SpinorVector.basis(n, (1, 2))
        + SpinorVector.basis(n, (0, 0)).scaled(QQi(2, -1))
        + SpinorVector.basis(n, (3, 1)).scaled(QQi(Fraction(1, 3), 0))
    )
    lhs = clifford_apply(x.scaled(a) + y.scaled(b), phi)
    rhs = clifford_apply(x, phi).scaled(a) + clifford_apply(y, phi).scaled(b)
    if not (lhs + rhs.scaled(-1)).is_zero():
        ok = False
    return CheckResult("clifford-linearity", None, ok, 0.0)


def check_oscillator(max_level: int = 18) -> CheckResult:
    """Oscillator eigenvalue -(2l+1)/2 on h_l, exact, plus the derived
    circle weight i(2l+1)."""
    ok = True
    for l in range(max_level + 1):
        phi = SpinorVector.basis(1, (l,))
        out = oscillator_apply(phi)
        expect = phi.scaled(Fraction(-(2 * l + 1), 2))
        if not (out + expect.scaled(-1)).is_zero():
            ok = False
        if weight_on_Wl(l) != QQi(0, 2 * l + 1):
            ok = False
    return CheckResult("oscillator", None, ok, 0.0)


# -- per-k checks: each reads one shared KContext ---------------------------


def check_su2_bracket(ctx: KContext, mode: str = "both") -> CheckResult:
    ok = True
    if mode in ("exact", "both"):
        ok = ok and check_bracket(ctx.rep, mode="exact")
    if mode in ("float", "both"):
        ok = ok and check_bracket(ctx.rep, mode="float", tol=1e-13)
    return CheckResult("su2-bracket", ctx.k, ok, 0.0)


def check_su2_weights(ctx: KContext) -> CheckResult:
    """e0, stored as its diagonal, holds the simple weights i(2j-k)."""
    k, e0 = ctx.k, ctx.rep.e0
    ok = len(e0) == k + 1 and all(v == QQi(0, 2 * j - k) for j, v in enumerate(e0))
    ok = ok and len({(v.re, v.im) for v in e0}) == k + 1
    return CheckResult("su2-weights", k, ok, 0.0)


def check_su2_structure(ctx: KContext) -> CheckResult:
    """Every stored entry of e1 is real and of e2 purely imaginary; both are
    tridiagonal with zero diagonal by storage, with k entries per
    off-diagonal."""
    rep = ctx.rep
    ok = all(
        len(diag) == ctx.k and all(getattr(v, part) == 0 for v in diag)
        for band, part in ((rep.e1, "im"), (rep.e2, "re"))
        for diag in band
    )
    return CheckResult("su2-structure", ctx.k, ok, 0.0)


def check_hom_oracle(ctx: KContext) -> CheckResult:
    """Weight-matching dimensions equal brute-force null-space dimensions
    for l up to k+2."""
    k = ctx.k
    ok = all(
        hom_space(k, l)[0] == hom_space_oracle(k, l, rep=ctx.rep)
        for l in range(k + 3)
    )
    return CheckResult("hom-oracle", k, ok, 0.0)


def check_hom_dim(ctx: KContext) -> CheckResult:
    k = ctx.k
    expected = (k + 1) ** 2 // 2 if k % 2 == 1 else 0
    try:
        ok = dim_invariant_space(k) == expected
    except AssertionError:
        ok = False
    if k % 2 == 1:
        ok = ok and sum(hom_space(k, l)[0] for l in range(k + 1)) == (k + 1) // 2
    return CheckResult("hom-dim", k, ok, 0.0)


def check_equivariance(ctx: KContext) -> CheckResult:
    """The canonical generators satisfy the full weight-intertwining
    identity exactly, not just by dimension count."""
    k = ctx.k
    if k % 2 == 0:
        return CheckResult("equivariance", k, True, 0.0)
    ok = all(equivariance_residual(k, l, rep=ctx.rep) for l in range((k - 1) // 2 + 1))
    return CheckResult("equivariance", k, ok, 0.0)


def check_assembly(ctx: KContext, mode: str = "both", tol_match: float = 1e-12) -> CheckResult:
    """First-principles assembly against the closed form.  The residual is
    the float mismatch, which ``--mode exact`` does not compute (0).  It
    passes up to ``tol_match`` times the largest closed-form entry (at
    least 1): the entries grow like k^1.5, and so does one ulp of them."""
    res = 0.0
    ok = True
    if mode in ("float", "both"):
        res = assembly_mismatch_float(ctx.k, rep=ctx.rep, blocks=ctx.blocks)
        largest = float(np.max(np.abs(ctx.blocks[0].band[1]), initial=0.0))
        ok = res <= tol_match * max(1.0, largest)
    if mode in ("exact", "both"):
        ok = ok and assembly_matches_exact(ctx.k, rep=ctx.rep)
    return CheckResult("assembly-match", ctx.k, ok, res)


def check_symmetry(ctx: KContext, tol_eig: float = 1e-10) -> CheckResult:
    """Spectrum symmetric about 0.  The eigensolver mirrors the positive
    half of every zero-diagonal block, so this float residual is 0 by
    construction; ``charpoly-parity`` certifies the symmetry exactly."""
    eigs = ctx.eigenvalues
    res = float(np.max(np.abs(eigs + eigs[::-1])))
    return CheckResult("symmetry", ctx.k, res <= tol_eig, res)


def check_coincide(ctx: KContext) -> CheckResult:
    """The two blocks are unitarily equivalent, exactly, and their
    phase-stripped bands, which are what the eigensolver sees, are
    identical; so their spectra are identical too.  The residual is the
    largest entrywise deviation between the two bands, and it must be 0."""
    (d0, b0), (d1, b1) = ctx.bands
    res = float(max(np.max(np.abs(d0 - d1)), np.max(np.abs(b0 - b1), initial=0.0)))
    ok = res == 0.0 and unitary_equivalence_exact(ctx.k, blocks=ctx.blocks)
    return CheckResult("spectra-coincide", ctx.k, ok, res)


def check_kernel_rule(ctx: KContext) -> CheckResult:
    cp = ctx.charpoly
    return CheckResult("kernel-rule", ctx.k, cp.kernel_dim == cp.m % 2, 0.0)


def check_p_eigenvalues(ctx: KContext, tol_eig: float = 1e-10) -> CheckResult:
    ok, off = check_commutator(ctx.blocks, tol_eig)
    return CheckResult("p-eigenvalues", ctx.k, ok, off)


def check_charpoly_parity(ctx: KContext) -> CheckResult:
    cp = ctx.charpoly
    m = cp.m
    ok = all(c == 0 for i, c in enumerate(cp.coeffs) if (i - m) % 2 != 0)
    return CheckResult("charpoly-parity", ctx.k, ok, 0.0)


def check_det_product(ctx: KContext) -> CheckResult:
    k = ctx.k
    if ((k + 1) // 2) % 2 == 1:
        return CheckResult("det-product", k, ctx.charpoly.signed_det == 0, 0.0)
    try:
        abs_det(k, charpoly=ctx.charpoly)
        ok = True
    except AssertionError:
        ok = False
    return CheckResult("det-product", k, ok, 0.0)


def check_charpoly_eigs(ctx: KContext, rel_width: float = 1e-13) -> CheckResult:
    """Certify each bisection eigenvalue x against the exact characteristic
    polynomial p: p must change sign across x -+ rel_width * max(1, |x|),
    the endpoints taken exactly.  Every float is a ratio of integers, so
    the endpoints share the integer denominator of x times that of
    rel_width, and the sign of p there is an integer computation
    (:meth:`CharPoly.sign_at`).  Eigenvalue gaps here are at least ~4.9, so
    the brackets are disjoint and each certifies its own simple root."""
    cp = ctx.charpoly
    nw, dw = float(rel_width).as_integer_ratio()

    def brackets_root(x) -> bool:
        nx, dx = float(x).as_integer_ratio()
        centre, half, den = nx * dw, nw * max(dx, abs(nx)), dx * dw
        return cp.sign_at(centre - half, den) * cp.sign_at(centre + half, den) <= 0

    ok = all(brackets_root(x) for x in ctx.eigenvalues)
    return CheckResult("charpoly-eigs", ctx.k, ok, rel_width)


def check_norm_bound(ctx: KContext) -> CheckResult:
    ok = norm_bound_holds(ctx.k, float(np.max(np.abs(ctx.eigenvalues))))
    return CheckResult("norm-bound", ctx.k, ok, 0.0)


GLOBAL_CHECKS = ("clifford-ladder", "clifford-grading", "clifford-linearity", "oscillator")

PER_K_CHECKS = (
    "su2-bracket",
    "su2-weights",
    "su2-structure",
    "hom-oracle",
    "hom-dim",
    "equivariance",
    "assembly-match",
    "symmetry",
    "spectra-coincide",
    "kernel-rule",
    "p-eigenvalues",
    "charpoly-parity",
    "det-product",
    "charpoly-eigs",
    "norm-bound",
)

ALL_CHECKS = GLOBAL_CHECKS + PER_K_CHECKS


def per_k_checks(mode: str = "both", tol_eig: float = 1e-10, tol_match: float = 1e-12) -> dict:
    """Name -> check taking a KContext, with mode and tolerances bound."""
    return {
        "su2-bracket": lambda ctx: check_su2_bracket(ctx, mode=mode),
        "su2-weights": check_su2_weights,
        "su2-structure": check_su2_structure,
        "hom-oracle": check_hom_oracle,
        "hom-dim": check_hom_dim,
        "equivariance": check_equivariance,
        "assembly-match": lambda ctx: check_assembly(ctx, mode=mode, tol_match=tol_match),
        "symmetry": lambda ctx: check_symmetry(ctx, tol_eig=tol_eig),
        "spectra-coincide": check_coincide,
        "kernel-rule": check_kernel_rule,
        "p-eigenvalues": lambda ctx: check_p_eigenvalues(ctx, tol_eig=tol_eig),
        "charpoly-parity": check_charpoly_parity,
        "det-product": check_det_product,
        "charpoly-eigs": check_charpoly_eigs,
        "norm-bound": check_norm_bound,
    }


def run_checks(
    k_values,
    names=None,
    mode: str = "both",
    tol_eig: float = 1e-10,
    tol_match: float = 1e-12,
):
    """Run the selected checks (all by default) over the given odd k values;
    global checks run once, and the per-k checks of one k share one
    KContext.  Returns a list of CheckResult."""
    selected = tuple(names) if names else ALL_CHECKS
    unknown = [n for n in selected if n not in ALL_CHECKS]
    if unknown:
        raise ValueError(f"unknown check name(s): {', '.join(unknown)}")
    results = []
    if "clifford-ladder" in selected:
        results.append(check_ladder_commutator(mode=mode))
    if "clifford-grading" in selected:
        results.append(check_grading())
    if "clifford-linearity" in selected:
        results.append(check_linearity())
    if "oscillator" in selected:
        results.append(check_oscillator())
    per_k = per_k_checks(mode=mode, tol_eig=tol_eig, tol_match=tol_match)
    for k in sorted(k_values):
        ctx = KContext(k)
        for name in PER_K_CHECKS:
            if name in selected:
                results.append(per_k[name](ctx))
    return results
