"""Semantic check of `sdirac` output against a reference captured once.

The reference (`reference.json`) holds, for every odd k <= 195, the report
of `sdirac spectrum -k 1..195` at the commit that defined this benchmark,
plus the names of the `verify` checks. Output is compared by meaning, not by
bytes, so declared format changes (an exact `0` for a `5.27e-60` eigenvalue,
real `residual=` margins) are not failures:

* integers (`charpoly`, `abs_det`, `kernel_dim`, `p_diag`, `signed_det`)
  exactly, through a digest of their decimal form;
* eigenvalues within EIG_RTOL of the spectral radius;
* every report check flag true;
* `verify` output as the expected set of `(check, k)` lines, all `PASS`,
  ignoring the `residual=` column.

An operation is one k report for `spectrum` and one `(check, k)` line for
`verify`; a missing, repeated, wrong or unexpected one is a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")
EIG_RTOL = 1e-9
VERIFY_LINE = re.compile(r"(PASS|FAIL) (\S+) k=(\d+|\*)(?: residual=\S+)?")


@dataclass
class Outcome:
    attempted: int
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, why: str, count: int = 1) -> None:
        self.failed = min(self.attempted, self.failed + count)
        if len(self.problems) < 20:
            self.problems.append(why)


def int_digest(report: dict) -> str:
    """Digest of a report's integer fields, exact to the last digit."""
    ints = [report[key] for key in ("kernel_dim", "abs_det", "charpoly", "p_diag", "signed_det")]
    return hashlib.sha256(json.dumps(ints).encode()).hexdigest()[:32]


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def capture_reference(stdout: str, global_checks, per_k_checks) -> dict:
    """Reference from a trusted `spectrum -k 1..195` output."""
    spectrum = {}
    for r in json.loads(stdout):
        spectrum[str(r["k"])] = {
            "m": r["m"],
            "ints": int_digest(r),
            "checks": sorted(r["checks"]),
            "eigenvalues": r["eigenvalues"],
        }
    return {
        "source": "sdirac spectrum -k 1..195 --jobs 1",
        "eig_rtol": EIG_RTOL,
        "verify_checks": {"global": list(global_checks), "per_k": list(per_k_checks)},
        "spectrum": spectrum,
    }


def _report_problem(report, expected: dict) -> str | None:
    try:
        if report["m"] != expected["m"] or report["basis"] != "L-circ":
            return "m or basis differs"
        if int_digest(report) != expected["ints"]:
            return "integers differ"
        if not all(report["checks"].get(name) is True for name in expected["checks"]):
            return "a report check is not true"
        eigs, ref = report["eigenvalues"], expected["eigenvalues"]
        if len(eigs) != len(ref):
            return f"{len(eigs)} eigenvalues, expected {len(ref)}"
        tol = EIG_RTOL * max(1.0, max(abs(x) for x in ref))
        worst = max(abs(a - b) for a, b in zip(eigs, ref))
        if not worst <= tol:
            return f"eigenvalue off by {worst:.3e} (tolerance {tol:.3e})"
    except (KeyError, TypeError, AttributeError) as e:
        return f"malformed report ({type(e).__name__}: {e})"
    return None


def check_spectrum(stdout: str, ks, reference: dict) -> Outcome:
    out = Outcome(len(ks))
    try:
        data = json.loads(stdout)
    except ValueError:
        out.fail("stdout is not JSON", len(ks))
        return out
    reports = data if isinstance(data, list) else [data]
    by_k = Counter()
    first = {}
    for r in reports:
        k = r.get("k") if isinstance(r, dict) and isinstance(r.get("k"), int) else None
        by_k[k] += 1
        first.setdefault(k, r)
    for k in ks:
        if by_k[k] != 1:
            out.fail(f"k={k}: {by_k[k]} reports, expected 1")
            continue
        why = _report_problem(first[k], reference["spectrum"][str(k)])
        if why:
            out.fail(f"k={k}: {why}")
    wanted = set(ks)
    extra = sum(n for k, n in by_k.items() if k not in wanted)
    if extra:
        out.fail(f"{extra} unexpected reports", extra)
    return out


def expected_verify_ops(ks, checks, reference: dict) -> list:
    names = reference["verify_checks"]
    globals_ = [n for n in names["global"] if not checks or n in checks]
    per_k = [n for n in names["per_k"] if not checks or n in checks]
    return [(n, "*") for n in globals_] + [(n, str(k)) for k in ks for n in per_k]


def check_verify(stdout: str, ops) -> Outcome:
    out = Outcome(len(ops))
    seen = Counter()
    failing = set()
    unparsed = 0
    for line in stdout.splitlines():
        m = VERIFY_LINE.fullmatch(line)
        if not m:
            unparsed += 1
            continue
        key = (m[2], m[3])
        seen[key] += 1
        if m[1] != "PASS":
            failing.add(key)
    for op in ops:
        if seen[op] != 1 or op in failing:
            out.fail(f"{op[0]} k={op[1]}: " + ("FAIL" if op in failing else f"{seen[op]} lines"))
    expected = set(ops)
    extra = unparsed + sum(n for key, n in seen.items() if key not in expected)
    if extra:
        out.fail(f"{extra} unexpected lines", extra)
    return out


def check_output(workload, stdout: str, exit_code: int, reference: dict) -> Outcome:
    """Validate one run of a workload; a non-zero exit fails every operation."""
    if workload.command == "spectrum":
        ops = len(workload.ks)
        outcome = check_spectrum(stdout, workload.ks, reference) if exit_code == 0 else None
    else:
        expected = expected_verify_ops(workload.ks, workload.checks, reference)
        ops = len(expected)
        outcome = check_verify(stdout, expected) if exit_code == 0 else None
    if outcome is None:
        outcome = Outcome(ops)
        outcome.fail(f"exit code {exit_code}", ops)
    return outcome
