"""The mutant table: each row plants one defect in one function of
``src/`` and names the exact set of checks that ``verify`` must FAIL.

A defect in a function is planted in every module of the package that
holds the function, as a defect in its source would be.  Each row runs
``verify -k 1..31 --jobs 1`` in process: it must write every line, FAIL
the named checks and no other, write nothing to stderr and exit 3.  A
program defect that a check measures is a FAIL line, never a raised
error (exit 1).
"""

import dataclasses

import numpy as np
import pytest

from sdirac import checks, cli, hermite, intertwine, operators, su2, tridiag
from sdirac.operators import CharPoly

MODULES = (cli, checks, hermite, intertwine, operators, su2, tridiag)


def doubled_raising(ladder):
    def wrong(pos, der, l):
        down, up = ladder(pos, der, l)
        return down, 2 * up

    return wrong


def x1_doubled_raising(clifford_band):
    def wrong(x, levels):
        band = clifford_band(x, levels)
        if tuple(x) == (1, 0):
            band[-1] = 2 * band[-1]
        return band

    return wrong


def with_diagonal(clifford_band):
    # joins h_0 to itself in every band
    def wrong(x, levels):
        band = clifford_band(x, levels)
        band[0] = np.zeros(len(levels), dtype=complex)
        band[0][0] = 1
        return band

    return wrong


def square_changed(l, change):
    def mutate(a_squares):
        def wrong(k):
            sq = a_squares(k)
            sq[l : l + 1] = change(sq[l : l + 1])  # no square a_{k,l} when l > (k + 1)/2
            return sq

        return wrong

    return mutate


def sub_diagonals_moved(build_rep):
    def wrong(k):
        rep = build_rep(k)
        return dataclasses.replace(rep, r=(rep.r[0] + 1, rep.r[1]), s=(rep.s[0] - 1, rep.s[1]))

    return wrong


def top_pair_swapped(spectrum):
    def wrong(dm):
        x = spectrum(dm)
        x[-2:] = x[-2:][::-1].copy()
        return x

    return wrong


def halved(spectrum):
    def wrong(dm):
        return 0.5 * spectrum(dm)

    return wrong


def second_block_sign_flipped(assemble_closed_form):
    # one superdiagonal entry of the second block changes sign
    def wrong(k):
        d, dt = assemble_closed_form(k)
        dt.band[1][2:3] *= -1
        return d, dt

    return wrong


def rep_entry_set_to(value):
    # R's last superdiagonal entry, which the first-principles route reads
    # from k = 3 on, set to ``value``
    def mutate(build_rep):
        def wrong(k):
            rep = build_rep(k)
            sup = rep.r[1].copy()
            sup[-1:] = value
            return dataclasses.replace(rep, r=(rep.r[0], sup))

        return wrong

    return mutate


def weights_plus_two(build_rep):
    def wrong(k):
        rep = build_rep(k)
        return dataclasses.replace(rep, w=rep.w + 2)

    return wrong


def one_l_too_many(hom_space):
    # also admits l = (k + 1)/2
    def wrong(k, l):
        ls = np.asarray(l)
        dim = hom_space(k, l) + (ls == (k + 1) // 2) * (k % 2)
        return dim if ls.ndim else int(dim)

    return wrong


def diagonal_entry(assemble_closed_form):
    # 1e-3 at the first diagonal entry of the first block
    def wrong(k):
        d, dt = assemble_closed_form(k)
        d.band[0][0:1] = 1e-3
        return d, dt

    return wrong


def mirrored_top_pair_scaled(spectrum):
    def wrong(dm):
        x = spectrum(dm)
        x[[0, -1]] *= 1 + 1e-9
        return x

    return wrong


def first_factor_sign_flipped(det_factors):
    def wrong(k):
        factors = det_factors(k)
        factors[0] = -factors[0]
        return factors

    return wrong


def one_at_odd_m(det_factors):
    # the last factor set to 1: it is D_1 = 0 for a block of odd size m,
    # whose kernel is a line, and already D_0 = 1 for even m
    def wrong(k):
        factors = det_factors(k)
        factors[-1] = 1
        return factors

    return wrong


def first_entry_plus_one(p_diag_closed):
    def wrong(k):
        closed = p_diag_closed(k)
        return (closed[0] + 1, *closed[1:])

    return wrong


def one_more_at_l0(hom_space_oracle):
    def wrong(k, l, rep=None):
        dim = hom_space_oracle(k, l, rep) + (np.asarray(l) == 0)
        return dim if np.ndim(l) else int(dim)

    return wrong


def false_at_l0(equivariance_residual):
    def wrong(k, l, rep=None):
        holds = equivariance_residual(k, l, rep) & (np.asarray(l) != 0)
        return holds if np.ndim(l) else bool(holds)

    return wrong


def first_up_plus_one(unnormalized_coeffs):
    def wrong(k):
        down, up = unnormalized_coeffs(k)
        up[0] += 1
        return down, up

    return wrong


def ratio_scaled(num_factor, den_factor):
    # scale_sq_ratio's num and den times the factors
    def mutate(scale_sq_ratio):
        def wrong(k):
            num, den = scale_sq_ratio(k)
            return num_factor * num, den_factor * den

        return wrong

    return mutate


def coefficient_off_by_one(place):
    # q's coefficient of degree place(len(q)) plus 1
    def mutate(charpoly_exact):
        def wrong(k):
            cp = charpoly_exact(k)
            q = list(cp.q)
            q[place(len(q))] += 1
            return CharPoly(tuple(q), cp.parity)

        return wrong

    return mutate


# (module, function, mutation, the checks that FAIL)
ROWS = {
    "ladder-raising-doubled": (
        hermite, "ladder", doubled_raising,
        {"assembly-match", "clifford-ladder", "equivariance", "hom-oracle", "oscillator"},
    ),
    "x1-raising-doubled": (
        hermite, "clifford_band", x1_doubled_raising,
        {"clifford-ladder"},
    ),
    "clifford-diagonal-entry": (
        hermite, "clifford_band", with_diagonal,
        {"clifford-grading", "clifford-ladder", "clifford-linearity"},
    ),
    "even-square-off-by-one": (
        operators, "a_squares", square_changed(2, lambda sq: sq + 1),
        {"assembly-match", "det-product", "p-eigenvalues"},
    ),
    "odd-square-off-by-one": (
        operators, "a_squares", square_changed(1, lambda sq: sq + 1),
        {"assembly-match", "det-product", "p-eigenvalues"},
    ),
    "rep-sub-diagonals-moved": (
        su2, "build_rep", sub_diagonals_moved,
        {"assembly-match", "su2-bracket", "su2-structure"},
    ),
    "eigenvalues-swapped": (
        operators, "spectrum", top_pair_swapped,
        {"charpoly-eigs", "symmetry"},
    ),
    "eigenvalues-halved": (
        operators, "spectrum", halved,
        {"charpoly-eigs", "norm-bound"},
    ),
    "second-block-sign-flipped": (
        operators, "assemble_closed_form", second_block_sign_flipped,
        {"assembly-match", "p-eigenvalues", "spectra-coincide"},
    ),
    "rep-entry-set-to-2-pow-20": (
        su2, "build_rep", rep_entry_set_to(2**20),
        {"assembly-match", "su2-bracket", "su2-structure"},
    ),
    "rep-entry-set-to-2-pow-53-plus-1": (
        su2, "build_rep", rep_entry_set_to(2**53 + 1),
        {"assembly-match", "su2-bracket", "su2-structure"},
    ),
    "rep-weights-plus-two": (
        su2, "build_rep", weights_plus_two,
        {"equivariance", "hom-oracle", "su2-bracket", "su2-weights"},
    ),
    "hom-space-one-l-too-many": (
        intertwine, "hom_space", one_l_too_many,
        {"hom-dim", "hom-oracle"},
    ),
    "block-diagonal-nonzero": (
        operators, "assemble_closed_form", diagonal_entry,
        {
            "assembly-match", "charpoly-eigs", "charpoly-parity", "norm-bound", "p-eigenvalues", "spectra-coincide",
            "symmetry",
        },
    ),
    "first-square-at-2-pow-53": (
        operators, "a_squares", square_changed(1, lambda sq: 2**53),
        {"assembly-match", "charpoly-eigs", "det-product", "p-eigenvalues"},
    ),
    "mirrored-top-pair-scaled": (
        operators, "spectrum", mirrored_top_pair_scaled,
        {"charpoly-eigs"},
    ),
    "det-sign-flipped": (
        operators, "det_factors", first_factor_sign_flipped,
        {"det-product"},
    ),
    "det-nonzero-at-odd-m": (
        operators, "det_factors", one_at_odd_m,
        {"det-product", "kernel-rule"},
    ),
    "p-diag-entry-off-by-one": (
        operators, "p_diag_closed", first_entry_plus_one,
        {"p-eigenvalues"},
    ),
    "oracle-one-too-many-at-l0": (
        intertwine, "hom_space_oracle", one_more_at_l0,
        {"hom-oracle"},
    ),
    "equivariance-support-shifted": (
        intertwine, "equivariance_residual", false_at_l0,
        {"equivariance"},
    ),
    "charpoly-off-by-one": (
        operators, "charpoly_exact", coefficient_off_by_one(lambda n: 0),
        {"charpoly-eigs"},
    ),
    "charpoly-middle-off-by-one": (
        operators, "charpoly_exact", coefficient_off_by_one(lambda n: n // 2),
        {"charpoly-eigs"},
    ),
    "unnormalized-up-off-by-one": (
        operators, "unnormalized_coeffs", first_up_plus_one,
        {"assembly-match", "det-product"},
    ),
    "scale-ratio-den-doubled": (
        intertwine, "scale_sq_ratio", ratio_scaled(1, 2),
        {"assembly-match"},
    ),
}


def plant(module, name, mutate, monkeypatch):
    """Replace function ``name`` of ``module`` by ``mutate`` of it in every
    module that holds it."""
    original = getattr(module, name)
    wrong = mutate(original)
    for holder in MODULES:
        if getattr(holder, name, None) is original:
            monkeypatch.setattr(holder, name, wrong)


def failures(row, monkeypatch, capsys):
    """Plant the row's defect, run ``verify -k 1..31 --jobs 1`` and return
    its FAIL lines as (check, "k=..") pairs."""
    plant(*ROWS[row][:3], monkeypatch)
    assert cli.main(["verify", "-k", "1..31", "--jobs", "1"]) == 3
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert err == ""
    assert len(lines) == len(checks.GLOBAL_CHECKS) + 16 * len(checks.PER_K_CHECKS)
    return [tuple(line.split()[1:3]) for line in lines if line.startswith("FAIL ")]


@pytest.mark.parametrize("row", ROWS)
def test_mutant_fails_its_checks(row, monkeypatch, capsys):
    assert {name for name, _ in failures(row, monkeypatch, capsys)} == ROWS[row][3]


@pytest.mark.parametrize("row", ["charpoly-off-by-one", "charpoly-middle-off-by-one"])
def test_a_wrong_charpoly_fails_at_every_k(row, monkeypatch, capsys):
    assert [where for _, where in failures(row, monkeypatch, capsys)] == [f"k={k}" for k in range(1, 32, 2)]


def test_a_clean_run_leaves_nothing_a_mutant_reads(monkeypatch, capsys):
    # a defect planted after a clean run in the same process fails every
    # check that reads it: no value the clean run derived stands in for it
    assert cli.main(["verify", "-k", "1..31", "--jobs", "1"]) == 0
    capsys.readouterr()
    row = "ladder-raising-doubled"
    assert {name for name, _ in failures(row, monkeypatch, capsys)} == ROWS[row][3]


def test_the_same_ratio_in_other_integers_is_no_defect(monkeypatch, capsys):
    # the exact route checks the normalization ratio num/den, not the
    # integers that state it: twice both is the same ratio, and passes
    plant(intertwine, "scale_sq_ratio", ratio_scaled(2, 2), monkeypatch)
    assert operators.assembly_matches_exact(31)
    assert cli.main(["verify", "-k", "1..31", "--jobs", "1"]) == 0
    assert capsys.readouterr().err == ""
