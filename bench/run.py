"""Benchmark for sdirac.

    python3 bench/run.py --workload spectrum-195 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload verify-99 --seed 1 --seconds 20 --trace 1
    python3 bench/selftest.py                   # validator and tracer at tiny k
    python3 bench/run.py --capture-reference    # rewrite bench/reference.json

Run from the root of a source tree; the program is imported from `src/`.

--trace 0 (end to end): runs the workload's `sdirac` command as fresh
processes, one at a time, until `--seconds` would be passed (at least once),
after a warm-up and SETUP_SAMPLES set-up-only processes. It reports the
medians of wall_s, cpu_s (user + system, from wait4), setup_s (interpreter
start plus `import sdirac.cli`) and peak_rss_mb, and ok_frac, the share of
operations whose output the validator accepted.

--trace 1 (per layer): the known-failure probes, the workload run in-process
through `sdirac.cli.main` once plain and once traced (self time per module,
calls per k, tracing overhead), and the fixed-k layer table of `layers.py`.

Children run with BLAS pinned to one thread: the workloads are serial, and
on a small shared machine idle BLAS threads spinning on tiny matrices make
the numbers measure the scheduler instead of the program.

Every run prints a stamp line (versions, backend, commit, seed, src/ size),
then the result object as the last line of stdout. Output that fails
validation, or whose stdout differs from an earlier run of the same command
in this tree, counts every operation of that run as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from validate import Outcome, capture_reference, check_output, load_reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
CHILD = Path(__file__).with_name("child.py")
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150.0
POLL_S = 0.002
PROBES = {
    # float overflow in intertwine.normalize at k >= 197
    "spectrum-k197": ["spectrum", "-k", "197"],
    # CPython's 4300-digit int -> str limit, crossed near k = 1965
    "charpoly-k1999": ["charpoly", "-k", "1999"],
}
CALLS_PER_K = ("operators.spectrum", "operators.charpoly_exact", "su2.build_rep", "operators.assemble_closed_form")


@dataclass
class ChildRun:
    exit_code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float | None  # None if the child never finished importing


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _reap(pid: int, deadline: float):
    """wait4 the child, killing it once the deadline passes."""
    while True:
        done, status, usage = os.wait4(pid, os.WNOHANG)
        if done:
            return status, usage
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            _, status, usage = os.wait4(pid, 0)
            return status, usage
        time.sleep(POLL_S)


def run_child(args, timeout_s: float = CHILD_TIMEOUT_S) -> ChildRun:
    """One `sdirac` process through child.py; no args measures set-up only."""
    BUILD.mkdir(exist_ok=True)
    mark_r, mark_w = os.pipe()
    with tempfile.TemporaryFile(dir=BUILD) as out, tempfile.TemporaryFile(dir=BUILD) as err:
        try:
            start = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), str(mark_w), *args],
                stdout=out, stderr=err, pass_fds=(mark_w,), env=child_env(), cwd=ROOT,
            )
        finally:
            os.close(mark_w)
        status, usage = _reap(proc.pid, start + timeout_s)
        end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        with os.fdopen(mark_r, "rb") as mark:
            setup_done = mark.read()
        out.seek(0)
        err.seek(0)
        return ChildRun(
            exit_code=proc.returncode,
            stdout=out.read().decode("utf-8", "replace"),
            stderr=err.read().decode("utf-8", "replace"),
            wall_s=end - start,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            setup_s=float(setup_done) - start if setup_done else None,
        )


def source_digest() -> str:
    sha = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        sha.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()[:16]


class DigestStore:
    """stdout digest per command and source tree, kept across runs in this
    checkout, so any two runs of the same command on the same sources must
    print the same bytes."""

    def __init__(self, path: Path = BUILD / "stdout-digests.json"):
        self.path = path
        self.source = source_digest()
        try:
            self.digests = json.loads(path.read_text())
        except (OSError, ValueError):
            self.digests = {}

    def same_as_before(self, argv, stdout: str) -> bool:
        key = self.source + " " + " ".join(argv)
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        earlier = self.digests.setdefault(key, digest)
        BUILD.mkdir(exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.digests, indent=1))
        os.replace(tmp, self.path)
        return earlier == digest


def judge(wl, stdout: str, exit_code: int, reference: dict, digests: DigestStore, total: Outcome) -> None:
    """Validate one run and add it to the total."""
    outcome = check_output(wl, stdout, exit_code, reference)
    if exit_code == 0 and not digests.same_as_before(wl.argv, stdout):
        outcome.fail("stdout differs from an earlier run of the same command", outcome.attempted)
    total.attempted += outcome.attempted
    total.failed += outcome.failed
    total.problems += outcome.problems[: max(0, 20 - len(total.problems))]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(wl, seconds: int, reference: dict, digests: DigestStore):
    if run_child([]).setup_s is None:  # warm-up: byte-compiles src/
        raise RuntimeError("sdirac.cli does not import")
    setups = [run_child([]).setup_s for _ in range(SETUP_SAMPLES)]
    runs = []
    total = Outcome(0)
    started = time.monotonic()
    while True:
        run = run_child(wl.argv)
        runs.append(run)
        setups.append(run.setup_s)
        judge(wl, run.stdout, run.exit_code, reference, digests, total)
        spent = time.monotonic() - started
        if spent + statistics.median(r.wall_s for r in runs) > seconds:
            break
    setups = [s for s in setups if s is not None]
    metrics = {
        "wall_s": metric(statistics.median(r.wall_s for r in runs), "s"),
        "cpu_s": metric(statistics.median(r.cpu_s for r in runs), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(statistics.median(r.peak_rss_mb for r in runs), "MB"),
        "ok_frac": metric(1.0 - total.failed / total.attempted, "frac"),
    }
    details = {
        "processes": len(runs),
        "wall_s": [r.wall_s for r in runs],
        "cpu_s": [r.cpu_s for r in runs],
        "setup_s": setups,
        "exit_codes": [r.exit_code for r in runs],
    }
    return metrics, total, details


def _in_process(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        code = cli.main(list(argv))
        elapsed = time.perf_counter() - start
    return buf.getvalue(), code, elapsed


def per_layer(wl, seed: int, reference: dict, digests: DigestStore):
    import layers
    from tracer import MODULES, Tracer, summarize

    sys.path.insert(0, str(SRC))
    from sdirac import cli

    metrics, details, total = {}, {"probes": {}}, Outcome(0)
    started = time.monotonic()
    for name, args in PROBES.items():
        run = run_child(args)
        metrics[f"probe.{name}.exit_code"] = metric(run.exit_code, "code")
        details["probes"][name] = {"exit_code": run.exit_code, "stderr": (run.stderr.splitlines() or [""])[0]}

    plain_out, plain_code, plain_s = _in_process(cli, wl.argv)
    judge(wl, plain_out, plain_code, reference, digests, total)
    tracer = Tracer()
    tracer.install()
    try:
        traced_out, traced_code, traced_s = _in_process(cli, wl.argv)
    finally:
        tracer.uninstall()
    judge(wl, traced_out, traced_code, reference, digests, total)

    summary = summarize(tracer.spans)
    for module in MODULES:
        metrics[f"trace.{module}.self_s"] = metric(summary["self_s"].get(module, 0.0), "s")
    for fn in CALLS_PER_K:
        count = summary["calls"].get(fn, 0) / len(wl.ks)
        metrics[f"trace.calls_per_k.{fn.split('.')[1]}"] = metric(count, "count")
    metrics["trace.main_s"] = metric(summary["root_s"], "s")
    metrics["trace.overhead"] = metric(traced_s / plain_s, "ratio")
    if abs(sum(summary["self_s"].values()) - summary["root_s"]) > 1e-6 * summary["root_s"]:
        total.problems.append("module self times do not add up to cli.main")
        total.failed = total.attempted
    spans_dir = BUILD / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    with open(spans_dir / f"{wl.name}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}, fh)
    details["spans"] = len(tracer.spans)
    details["calls"] = summary["calls"]

    problems = []
    table_started = time.monotonic()
    metrics.update(layers.measure(reference, problems))
    details["phase_s"] = {"workload": table_started - started, "table": time.monotonic() - table_started}
    if problems:
        total.problems += problems
        total.failed = total.attempted
    return metrics, total, details


def run_stamp(seed: int) -> dict:
    from importlib import metadata

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    sys.path.insert(0, str(SRC))
    from sdirac import tridiag

    try:
        import numba  # noqa: F401  (its presence switches the eigensolver path)

        numba_imports = True
    except ImportError:
        numba_imports = False
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
        top, commit = git.stdout.splitlines() if git.returncode == 0 else (None, None)
    except (OSError, subprocess.SubprocessError):
        top = commit = None
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "default_backend": getattr(tridiag, "DEFAULT_BACKEND", None),
        "numba_imports": numba_imports,
        "blas_threads": THREAD_ENV["OPENBLAS_NUM_THREADS"],
        "commit": commit if top and Path(top).resolve() == ROOT else None,
        "seed": seed,
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")),
    }


def capture() -> int:
    """Rewrite reference.json from this tree's `spectrum -k 1..195`."""
    sys.path.insert(0, str(SRC))
    from sdirac.checks import GLOBAL_CHECKS, PER_K_CHECKS

    wl = workloads.make("spectrum-195", 0)
    run = run_child(wl.argv)
    if run.exit_code != 0:
        print(f"spectrum-195 exited {run.exit_code}: {run.stderr}", file=sys.stderr)
        return 1
    ref = capture_reference(run.stdout, GLOBAL_CHECKS, PER_K_CHECKS)
    with open(Path(__file__).with_name("reference.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=0)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sdirac benchmark")
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--capture-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "sdirac" / "cli.py").is_file():
        print(f"error: no sdirac sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy loads in this process
    if args.capture_reference:
        return capture()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    wl = workloads.make(args.workload, args.seed)
    reference = load_reference()
    digests = DigestStore()
    if args.trace:
        metrics, total, details = per_layer(wl, args.seed, reference, digests)
    else:
        metrics, total, details = end_to_end(wl, args.seconds, reference, digests)
    details["argv"] = wl.argv
    details["problems"] = total.problems
    result = {
        "correct": total.failed == 0 and not total.problems,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": metrics,
    }
    info = {"stamp": run_stamp(args.seed), "details": details}
    results_dir = BUILD / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    with open(results_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({**info, "result": result}, fh, indent=1)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
