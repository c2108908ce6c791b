"""Self-tests of the benchmark at tiny k (a few seconds).

    python3 bench/selftest.py

Runs `sdirac` on k <= 7, checks that the validator accepts the real output
and rejects corrupted copies of it (a flipped eigenvalue, a missing k, a
changed integer, a FAIL line, a missing line, a non-zero exit), that it
ignores the declared format changes (residual column, an exact zero), that
the digest store flags changed stdout, and that the tracer's self times add
up to the traced `cli.main`. Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
import workloads
from tracer import Tracer, summarize
from validate import check_output, load_reference

FAILURES = []


def expect(what: str, ok: bool) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def failed(wl, stdout: str, reference, exit_code: int = 0) -> int:
    return check_output(wl, stdout, exit_code, reference).failed


def spectrum_cases(reference) -> None:
    wl = workloads.Workload("smoke-spectrum", "spectrum", "1..7", (1, 3, 5, 7))
    child = run.run_child(wl.argv)
    expect("spectrum -k 1..7 exits 0", child.exit_code == 0)
    expect("real spectrum output passes", failed(wl, child.stdout, reference) == 0)
    reports = json.loads(child.stdout)

    def corrupt(edit) -> str:
        copy = json.loads(child.stdout)
        edit(copy)
        return json.dumps(copy)

    def flip(rs):
        rs[2]["eigenvalues"][0] = -rs[2]["eigenvalues"][0]

    def bump_det(rs):
        rs[3]["abs_det"] += 1

    def exact_zero(rs):
        rs[2]["eigenvalues"][1] = 0.0

    expect("a flipped eigenvalue is rejected", failed(wl, corrupt(flip), reference) == 1)
    expect("a missing k is rejected", failed(wl, corrupt(lambda rs: rs.pop(1)), reference) == 1)
    expect("a changed integer is rejected", failed(wl, corrupt(bump_det), reference) == 1)
    expect("a repeated k is rejected", failed(wl, corrupt(lambda rs: rs.append(rs[0])), reference) >= 1)
    expect("an exact zero eigenvalue is accepted", failed(wl, corrupt(exact_zero), reference) == 0)
    expect("a non-zero exit fails every k", failed(wl, child.stdout, reference, 1) == len(reports))


def verify_cases(reference) -> None:
    wl = workloads.Workload("smoke-verify", "verify", "1..3", (1, 3), ("symmetry", "kernel-rule"))
    child = run.run_child(wl.argv)
    lines = child.stdout.splitlines()
    expect("verify -k 1..3 exits 0 with 4 lines", child.exit_code == 0 and len(lines) == 4)
    expect("real verify output passes", failed(wl, child.stdout, reference) == 0)

    def text(ls):
        return "\n".join(ls) + "\n"

    fail_line = [lines[0].replace("PASS", "FAIL", 1)] + lines[1:]
    margins = [line.split(" residual=")[0] + " residual=1.234e-05" for line in lines]
    expect("a FAIL line is rejected", failed(wl, text(fail_line), reference) == 1)
    expect("a missing line is rejected", failed(wl, text(lines[1:]), reference) == 1)
    expect("an unexpected line is rejected", failed(wl, text(lines + ["PASS oscillator k=*"]), reference) == 1)
    expect("the residual column is ignored", failed(wl, text(margins), reference) == 0)

    bad_input = run.run_child(["spectrum", "-k", "2"])
    expect("spectrum -k 2 exits 2", bad_input.exit_code == 2)
    expect("a non-zero exit fails every line", failed(wl, child.stdout, reference, bad_input.exit_code) == 4)


def digest_cases() -> None:
    with tempfile.TemporaryDirectory(dir=run.BUILD) as tmp:
        store = run.DigestStore(Path(tmp) / "digests.json")
        first = store.same_as_before(["x"], "a")
        again = run.DigestStore(store.path).same_as_before(["x"], "a")
        changed = store.same_as_before(["x"], "b")
    expect("the digest store accepts equal stdout and flags a change", first and again and not changed)


def workload_cases() -> None:
    ks = workloads.large_ks(7)
    in_bands = all(
        k % 2 == 1 and abs(k - c) < workloads.BAND_HALF_WIDTH for k, c in zip(ks, workloads.BAND_CENTRES)
    )
    expect("float-large-k: same seed, same k", ks == workloads.large_ks(7))
    parity = [k % 4 for k in ks] == [1, 3, 3]
    expect("float-large-k: one odd k per band, only the first with odd m", in_bands and parity)


def tracer_cases() -> None:
    sys.path.insert(0, str(run.SRC))
    from sdirac import checks, cli, operators

    original = checks.spectrum
    tracer = Tracer()
    tracer.install()
    try:
        out, code, _ = run._in_process(cli, ["spectrum", "-k", "1..7", "--jobs", "1"])
    finally:
        tracer.uninstall()
    summary = summarize(tracer.spans)
    total = sum(summary["self_s"].values())
    expect("traced run exits 0", code == 0 and out.startswith("["))
    expect("self times add up to cli.main", abs(total - summary["root_s"]) <= 1e-6 * summary["root_s"])
    expect("the root span is cli.main", tracer.spans[0][0] == "cli.main" and tracer.spans[0][3] == -1)
    expect("spectrum is called twice per k", summary["calls"].get("operators.spectrum") == 8)
    expect("uninstall restores every namespace", checks.spectrum is original and operators.spectrum is original)


def main() -> int:
    run.BUILD.mkdir(exist_ok=True)
    reference = load_reference()
    workload_cases()
    spectrum_cases(reference)
    verify_cases(reference)
    digest_cases()
    tracer_cases()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
