"""Fixed-k layer table: public functions of each module, timed in-process.

Names are `<module>.<function>.k<k>`. Each entry is warmed up by one call of
the same function at k = 99 (the same code path, so imports and first-call
work finish outside the timed region) and reports the median of up to
MIN_SAMPLES timed calls; calls longer than SAMPLE_BUDGET_S get fewer samples
so the table stays within a run's time. Inputs are built before timing.

Which end-to-end numbers each entry should move:

* tridiag / operators at k99, k195 -- spectrum-195; at k999, k3999 --
  float-large-k (`spectrum` minus `eigvalsh_tridiagonal` is the dense phase
  strip). `operators.block_bytes` is a computed count of both dense blocks.
* first-principles assembly, `build_report`, `su2.as_arrays` -- spectrum-195.
* su2, intertwine, hermite -- verify-99 only.
* checks at k99, k195 and the global checks -- verify-99; at k1999 the seven
  float-path checks -- float-large-k.
* `cli.dumps_canonical.spectrum-195` -- rendering the 98 reports of
  spectrum-195.
"""

from __future__ import annotations

import statistics
import time
from functools import partial

import numpy as np

from validate import int_digest
from workloads import FLOAT_CHECKS

MIN_SAMPLES = 3
SAMPLE_BUDGET_S = 1.0
WARM_K = 99


def median_call_s(call, warm) -> float:
    warm()
    samples = []
    while len(samples) < MIN_SAMPLES and sum(samples) < SAMPLE_BUDGET_S:
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _sum_over_l(fn, k, ls):
    for l in ls:
        fn(k, l)


def _run_check(checks, name, k, problems):
    results = checks.run_checks([] if k is None else [k], names=[name])
    if not results or not all(r.ok for r in results):
        problem = f"check {name} k={k} did not pass"
        if problem not in problems:
            problems.append(problem)


def report_dicts(reference: dict) -> list:
    """The 98 report dicts of spectrum-195, rebuilt from the reference
    eigenvalues and the exact integers, in the CLI's key order."""
    from sdirac.operators import charpoly_exact, p_diag_closed

    dicts = []
    for key, ref in reference["spectrum"].items():
        k = int(key)
        coeffs = list(charpoly_exact(k).coeffs)
        m = ref["m"]
        c0 = coeffs[0]
        dicts.append({
            "k": k,
            "m": m,
            "basis": "L-circ",
            "eigenvalues": [float(x) for x in ref["eigenvalues"]],
            "kernel_dim": 1 if c0 == 0 else 0,
            "abs_det": abs(c0),
            "charpoly": coeffs,
            "p_diag": list(p_diag_closed(k)),
            "checks": {name: True for name in ref["checks"]},
            "signed_det": c0 if m % 2 == 0 else -c0,
        })
    return dicts


def measure(reference: dict, problems: list) -> dict:
    """Run the whole table; returns {name: {"value", "unit"}}."""
    from sdirac import checks, cli, hermite, intertwine, su2, tridiag
    from sdirac import operators as op

    table = {}

    def timed(name, make_call, k):
        """make_call(k) builds the inputs and returns the call to time."""
        table[name] = {"value": 1e3 * median_call_s(make_call(k), make_call(WARM_K)), "unit": "ms"}

    def band(k):
        m = (k + 1) // 2
        off = np.array([op.a_coeff(k, l).value for l in range(1, m)])
        return partial(tridiag.eigvalsh_tridiagonal, np.zeros(m), off)

    def block_spectrum(k):
        return partial(op.spectrum, op.assemble_closed_form(k)[0])

    for k in (99, 195, 999, 3999):
        timed(f"tridiag.eigvalsh_tridiagonal.k{k}", band, k)
        timed(f"operators.assemble_closed_form.k{k}", lambda k: partial(op.assemble_closed_form, k), k)
        timed(f"operators.spectrum.k{k}", block_spectrum, k)
        timed(f"operators.charpoly_exact.k{k}", lambda k: partial(op.charpoly_exact, k), k)
        timed(f"operators.p_operator.k{k}", lambda k: partial(op.p_operator, k), k)
    for k in (999, 3999):
        d, dt = op.assemble_closed_form(k)
        table[f"operators.block_bytes.k{k}"] = {"value": d.entries.nbytes + dt.entries.nbytes, "unit": "bytes"}
        del d, dt

    for k in (99, 195):
        for fn in ("assemble_from_definition", "assembly_matches_exact", "build_report"):
            timed(f"operators.{fn}.k{k}", lambda k, fn=fn: partial(getattr(op, fn), k), k)
        timed(f"su2.build_rep.k{k}", lambda k: partial(su2.build_rep, k), k)
        for mode in ("exact", "float"):
            timed(
                f"su2.check_bracket-{mode}.k{k}",
                lambda k, mode=mode: partial(su2.check_bracket, su2.build_rep(k), mode=mode),
                k,
            )
        timed(
            f"intertwine.hom_space_oracle.k{k}",
            lambda k: partial(_sum_over_l, partial(intertwine.hom_space_oracle, rep=su2.build_rep(k)), k, range(k + 3)),
            k,
        )
        timed(
            f"intertwine.equivariance_residual.k{k}",
            lambda k: partial(_sum_over_l, intertwine.equivariance_residual, k, range((k + 1) // 2)),
            k,
        )
    timed("su2.as_arrays.k195", lambda k: su2.build_rep(k).as_arrays, 195)
    timed(
        "hermite.weight_on_Wl.k99",
        lambda k: partial(_sum_over_l, lambda _, l: hermite.weight_on_Wl(l), k, range(k + 3)),
        99,
    )

    names = reference["verify_checks"]
    for name in names["global"]:
        call = partial(_run_check, checks, name, None, problems)
        table[f"checks.{name}"] = {"value": 1e3 * median_call_s(call, call), "unit": "ms"}
    for k in (99, 195):
        for name in names["per_k"]:
            timed(f"checks.{name}.k{k}", lambda k, name=name: partial(_run_check, checks, name, k, problems), k)
    for name in FLOAT_CHECKS:
        timed(f"checks.{name}.k1999", lambda k, name=name: partial(_run_check, checks, name, k, problems), 1999)

    dicts = report_dicts(reference)
    if [int_digest(d) for d in dicts] != [ref["ints"] for ref in reference["spectrum"].values()]:
        problems.append("exact integers differ from the reference")
    render = lambda: [cli.dumps_canonical(d) for d in dicts]  # noqa: E731
    table["cli.dumps_canonical.spectrum-195"] = {"value": 1e3 * median_call_s(render, render), "unit": "ms"}
    return table
