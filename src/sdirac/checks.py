"""Named invariant checks backing the ``verify`` CLI command.

Each check returns pass/fail plus a measured residual so failures are
diagnosable from the command line.  Global checks are k-independent
(Clifford ladder algebra, oscillator eigenvalues); per-k checks cover the
representation matrices, the intertwiner spaces and the assembled operator
blocks.
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
    a_coeff,
    abs_det,
    assemble_closed_form,
    assembly_matches_exact,
    assembly_mismatch_float,
    charpoly_exact,
    p_diag_closed,
    _commutator_numeric,
    spectrum,
    unitary_equivalence_exact,
)
from .su2 import build_rep, check_bracket


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


# -- per-k checks --------------------------------------------------------


def check_su2_bracket(k: int, mode: str = "both") -> CheckResult:
    rep = build_rep(k)
    ok = True
    if mode in ("exact", "both"):
        ok = ok and check_bracket(rep, mode="exact")
    if mode in ("float", "both"):
        ok = ok and check_bracket(rep, mode="float", tol=1e-13)
    return CheckResult("su2-bracket", k, ok, 0.0)


def check_su2_weights(k: int) -> CheckResult:
    """e0 is diagonal with the simple weights i(2j-k)."""
    rep = build_rep(k)
    ok = True
    seen = set()
    for r in range(k + 1):
        for c in range(k + 1):
            v = rep.e0[r][c]
            if r == c:
                if v != QQi(0, 2 * r - k):
                    ok = False
                seen.add((v.re, v.im))
            elif v:
                ok = False
    if len(seen) != k + 1:
        ok = False
    return CheckResult("su2-weights", k, ok, 0.0)


def check_su2_structure(k: int) -> CheckResult:
    """e1 real, e2 purely imaginary, both tridiagonal with zero diagonal."""
    rep = build_rep(k)
    ok = True
    for r in range(k + 1):
        for c in range(k + 1):
            v1, v2 = rep.e1[r][c], rep.e2[r][c]
            if abs(r - c) != 1:
                if v1 or v2:
                    ok = False
            else:
                if v1.im != 0 or v2.re != 0:
                    ok = False
    return CheckResult("su2-structure", k, ok, 0.0)


def check_hom_oracle(k: int) -> CheckResult:
    """Weight-matching dimensions equal brute-force null-space dimensions
    for l up to k+2."""
    rep = build_rep(k)
    ok = all(
        hom_space(k, l)[0] == hom_space_oracle(k, l, rep=rep)
        for l in range(k + 3)
    )
    return CheckResult("hom-oracle", k, ok, 0.0)


def check_hom_dim(k: int) -> CheckResult:
    expected = (k + 1) ** 2 // 2 if k % 2 == 1 else 0
    try:
        ok = dim_invariant_space(k) == expected
    except AssertionError:
        ok = False
    if k % 2 == 1:
        ok = ok and sum(hom_space(k, l)[0] for l in range(k + 1)) == (k + 1) // 2
    return CheckResult("hom-dim", k, ok, 0.0)


def check_equivariance(k: int) -> CheckResult:
    """The canonical generators satisfy the full weight-intertwining
    identity exactly, not just by dimension count."""
    if k % 2 == 0:
        return CheckResult("equivariance", k, True, 0.0)
    ok = all(equivariance_residual(k, l) for l in range((k - 1) // 2 + 1))
    return CheckResult("equivariance", k, ok, 0.0)


def check_assembly(k: int, mode: str = "both", tol_match: float = 1e-12) -> CheckResult:
    res = assembly_mismatch_float(k)
    ok = True
    if mode in ("float", "both"):
        ok = ok and res <= tol_match
    if mode in ("exact", "both"):
        ok = ok and assembly_matches_exact(k)
    return CheckResult("assembly-match", k, ok, res)


def check_symmetry(k: int, tol_eig: float = 1e-10) -> CheckResult:
    """Spectrum symmetric about 0.  The eigensolver mirrors the positive
    half of every zero-diagonal block, so this float residual is 0 by
    construction; ``charpoly-parity`` certifies the symmetry exactly."""
    d, _ = assemble_closed_form(k)
    eigs = spectrum(d)
    res = float(np.max(np.abs(eigs + eigs[::-1])))
    return CheckResult("symmetry", k, res <= tol_eig, res)


def check_coincide(k: int, tol_eig: float = 1e-10) -> CheckResult:
    d, dt = assemble_closed_form(k)
    res = float(np.max(np.abs(spectrum(d) - spectrum(dt))))
    ok = res <= tol_eig and unitary_equivalence_exact(k)
    return CheckResult("spectra-coincide", k, ok, res)


def check_kernel_rule(k: int) -> CheckResult:
    cp = charpoly_exact(k)
    kdim = 1 if cp.coeffs[0] == 0 else 0
    return CheckResult("kernel-rule", k, kdim == ((k + 1) // 2) % 2, 0.0)


def check_p_eigenvalues(k: int, tol_eig: float = 1e-10) -> CheckResult:
    closed = p_diag_closed(k)
    p = _commutator_numeric(k)
    off = float(np.max(np.abs(p - np.diag(np.diag(p)))))
    diag = np.diag(p)
    ok = (
        off < tol_eig
        and float(np.max(np.abs(diag.imag))) < tol_eig
        and tuple(int(round(x)) for x in diag.real) == closed
    )
    return CheckResult("p-eigenvalues", k, ok, off)


def check_charpoly_parity(k: int) -> CheckResult:
    cp = charpoly_exact(k)
    m = cp.m
    ok = all(c == 0 for i, c in enumerate(cp.coeffs) if (i - m) % 2 != 0)
    return CheckResult("charpoly-parity", k, ok, 0.0)


def check_det_product(k: int) -> CheckResult:
    m = (k + 1) // 2
    if m % 2 == 1:
        ok = charpoly_exact(k).coeffs[0] == 0
        return CheckResult("det-product", k, ok, 0.0)
    try:
        abs_det(k)
        ok = True
    except AssertionError:
        ok = False
    return CheckResult("det-product", k, ok, 0.0)


def check_charpoly_eigs(k: int, rel_width: float = 1e-13) -> CheckResult:
    """Certify each bisection eigenvalue against the exact characteristic
    polynomial: p must change sign, in rational arithmetic, across the
    interval of relative half-width ``rel_width`` around the computed value.
    Eigenvalue gaps here are at least ~4.9, so the brackets are disjoint and
    each certifies its own simple root."""
    cp = charpoly_exact(k)
    d, _ = assemble_closed_form(k)
    ok = True
    for x in spectrum(d):
        fx = Fraction(float(x))
        delta = Fraction(rel_width) * max(Fraction(1), abs(fx))
        if cp.eval_exact(fx - delta) * cp.eval_exact(fx + delta) > 0:
            ok = False
    return CheckResult("charpoly-eigs", k, ok, rel_width)


def check_norm_bound(k: int) -> CheckResult:
    d, _ = assemble_closed_form(k)
    mx = float(np.max(np.abs(spectrum(d))))
    a1 = a_coeff(k, 1)
    lower = (k - 1) // 2
    ok = a1.square >= lower * lower and mx >= a1.value - 1e-9 * (1.0 + a1.value)
    return CheckResult("norm-bound", k, ok, 0.0)


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


def run_checks(
    k_values,
    names=None,
    mode: str = "both",
    tol_eig: float = 1e-10,
    tol_match: float = 1e-12,
):
    """Run the selected checks (all by default) over the given odd k values;
    global checks run once.  Returns a list of CheckResult."""
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
    per_k = {
        "su2-bracket": lambda k: check_su2_bracket(k, mode=mode),
        "su2-weights": check_su2_weights,
        "su2-structure": check_su2_structure,
        "hom-oracle": check_hom_oracle,
        "hom-dim": check_hom_dim,
        "equivariance": check_equivariance,
        "assembly-match": lambda k: check_assembly(k, mode=mode, tol_match=tol_match),
        "symmetry": lambda k: check_symmetry(k, tol_eig=tol_eig),
        "spectra-coincide": lambda k: check_coincide(k, tol_eig=tol_eig),
        "kernel-rule": check_kernel_rule,
        "p-eigenvalues": lambda k: check_p_eigenvalues(k, tol_eig=tol_eig),
        "charpoly-parity": check_charpoly_parity,
        "det-product": check_det_product,
        "charpoly-eigs": check_charpoly_eigs,
        "norm-bound": check_norm_bound,
    }
    for k in sorted(k_values):
        for name in PER_K_CHECKS:
            if name in selected:
                results.append(per_k[name](k))
    return results
