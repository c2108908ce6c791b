"""Command-line front end: spectrum sweeps, exact characteristic
polynomials and the verification suite.

Output is deterministic: identical configuration (including different
``--jobs`` settings) yields byte-identical JSON/CSV and ``verify`` lines.
Each report is written by ``json.dumps``, whose floats are their shortest
``repr``, so ``json.dumps(json.loads(report))`` reproduces a report.  Both
``spectrum`` and ``verify`` (after its global-check lines) write each k's
output in ascending k as soon as it and every smaller k are done.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import deque
from itertools import chain

from .checks import ALL_CHECKS, K_LIMITS, PER_K_CHECKS, run_checks, run_k
from .operators import CHECK_NAMES, build_report, charpoly_exact

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID = 2
EXIT_VERIFY_FAILED = 3


class UserInputError(ValueError):
    """Invalid command-line input (exit code 2)."""


def parse_k_values(arg: str) -> range | list:
    """Parse '-k' values into ascending odd k: an inclusive range 'a..b'
    keeps only its odd members and stays a ``range``, so its limits are
    checked before any k is listed; an explicit list '1,3,7' must already
    be odd and name each k once."""
    arg = arg.strip()
    if ".." in arg:
        parts = arg.split("..")
        if len(parts) != 2:
            raise UserInputError(f"bad range syntax: {arg!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise UserInputError(f"bad range bounds: {arg!r}") from None
        if a < 1 or b < a:
            raise UserInputError(f"range must satisfy 1 <= a <= b: {arg!r}")
        start = a if a % 2 == 1 else a + 1
        ks = range(start, b + 1, 2)
        if not ks:
            raise UserInputError(f"range holds no odd k: {arg!r}")
        return ks
    try:
        ks = [int(tok) for tok in arg.split(",")]
    except ValueError:
        raise UserInputError(f"bad k list: {arg!r}") from None
    for k in ks:
        if k % 2 == 0:
            raise UserInputError("k must be odd: U_k is trivial for even k")
        if k < 1:
            raise UserInputError(f"k must be >= 1, got {k}")
    if len(set(ks)) != len(ks):
        raise UserInputError(f"a k is listed twice: {arg!r}")
    return sorted(ks)


# The name bench/layers.py times report rendering under.
dumps_canonical = json.dumps


# Each renderer yields its output in pieces, one per report where it can, so
# a sweep is written as its reports complete.  The pieces concatenate to the
# same bytes for any ``--jobs``.


def _render_json(dicts, count: int):
    if count == 1:
        yield json.dumps(next(dicts)) + "\n"
        return
    for i, d in enumerate(dicts):
        yield ("[\n" if i == 0 else ",\n") + json.dumps(d)
    yield "\n]\n"


def _render_csv(dicts, count: int):
    for d in dicts:
        eigs = ";".join(repr(float(e)) for e in d["eigenvalues"])
        yield f'{d["k"]},{d["kernel_dim"]},{d["abs_det"]},{eigs}\n'


def _render_table(dicts, count: int):
    yield f'{"k":>4} {"m":>4} {"ker":>4} {"|det|":>14}  eigenvalues\n'
    for d in dicts:
        eigs = ", ".join(format(e, ".6g") for e in d["eigenvalues"])
        yield f'{d["k"]:>4} {d["m"]:>4} {d["kernel_dim"]:>4} {d["abs_det"]:>14}  [{eigs}]\n'


def _emit(args, pieces) -> None:
    """Write the pieces to ``--out`` or stdout as each is produced.  If
    one fails, what was written stays written."""
    fh = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for piece in pieces:
            fh.write(piece)
            fh.flush()
    finally:
        if args.out:
            fh.close()


# ---------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------


def _require_k_limits(k_values, names) -> None:
    """UserInputError naming the first K_LIMITS entry in ``names`` that a k is above."""
    for name, limit in K_LIMITS.items():
        if name in names and k_values[-1] > limit:
            raise UserInputError(f"{name} takes k <= {limit}: past it an exact integer or the memory use passes its bound")


def worker_count(jobs: int, n_items: int) -> int:
    """Worker processes for n_items values of k: ``jobs`` (0 = one per CPU
    this process may run on), capped by that CPU count and by n_items."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(jobs or cpus, n_items, cpus)


def _per_k(args, fn, *rest):
    """``fn(k, *rest)`` for each k of ``-k`` in ascending order, each
    yielded as soon as it and every smaller k are done; computed by worker
    processes when ``--jobs`` allows a second one, which are given at most
    two k a worker ahead of the one yielded next, not the whole range."""
    jobs = worker_count(args.jobs, len(args.k))
    if jobs < 2:
        yield from (fn(k, *rest) for k in args.k)
        return
    # imported here: it adds about 30 modules to every start-up
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        window = deque()
        for k in args.k:
            window.append(pool.submit(fn, k, *rest))
            if len(window) == 2 * jobs:
                yield window.popleft().result()
        for future in window:
            yield future.result()


def cmd_spectrum(args) -> int:
    _require_k_limits(args.k, CHECK_NAMES)
    render = {"json": _render_json, "csv": _render_csv, "table": _render_table}[args.format]
    _emit(args, render(_per_k(args, build_report), len(args.k)))
    return EXIT_OK


def cmd_charpoly(args) -> int:
    _require_k_limits(args.k, ("charpoly",))
    _emit(args, (json.dumps(charpoly_exact(k).coeffs) + "\n" for k in args.k))
    return EXIT_OK


def cmd_verify(args) -> int:
    names = tuple(args.checks) or ALL_CHECKS
    _require_k_limits(args.k, names)
    failed = []

    def lines(results) -> str:
        failed.extend(r for r in results if not r.ok)
        return "".join(
            f"{'PASS' if r.ok else 'FAIL'} {r.name} k={'*' if r.k is None else r.k} residual={r.residual:.3e}\n"
            for r in results
        )

    # a selection of global checks alone walks no k and starts no worker
    per_k = _per_k(args, run_k, names) if set(names) & set(PER_K_CHECKS) else ()
    _emit(args, map(lines, chain([run_checks([], names)], per_k)))
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


# ---------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------


# Each option as (flags, argparse keywords).
_OPTIONS = {
    "k": (("-k", "--k"), dict(
        required=True, metavar="RANGE|LIST",
        help="odd degrees, e.g. '5', '1,3,7' or '1..31' (ranges skip even values)",
    )),
    "format": (("--format",), dict(choices=("json", "csv", "table"), default="json")),
    "out": (("--out",), dict(metavar="PATH", help="write output to a file instead of stdout")),
    "jobs": (("--jobs",), dict(type=int, default=0, metavar="N", help="worker count, 0 = auto")),
    "check": (("--check",), dict(
        action="append", default=[], dest="checks", metavar="NAME", choices=ALL_CHECKS,
        help="run only the named check (repeatable)",
    )),
}

# The options each command reads; any other is a usage error (exit 2).
_COMMANDS = (
    ("spectrum", "emit spectrum reports per k", cmd_spectrum,
     ("k", "format", "out", "jobs")),
    ("charpoly", "emit exact charpoly coefficients, lowest degree first", cmd_charpoly,
     ("k", "out")),
    ("verify", "run the invariant checks over a k range", cmd_verify,
     ("k", "out", "jobs", "check")),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdirac",
        allow_abbrev=False,
        description="Symplectic Dirac operator blocks on the projective line: "
        "spectra, exact characteristic polynomials, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, func, options in _COMMANDS:
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for option in options:
            flags, kwargs = _OPTIONS[option]
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.k = parse_k_values(args.k)
        if getattr(args, "jobs", 0) < 0:
            raise UserInputError("--jobs must be >= 0")
        # The exact charpoly's integers pass CPython's int -> str limit of
        # 4300 digits from k ~ 1965.  The limit stays on while -k is parsed.
        if hasattr(sys, "set_int_max_str_digits"):
            sys.set_int_max_str_digits(0)
        return args.func(args)
    except UserInputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except BrokenPipeError:
        # the reader closed stdout: exit quietly, and let the flush at exit
        # write what is still buffered to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INTERNAL
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
