"""Command-line front end: spectrum sweeps, exact characteristic
polynomials and the verification suite.

Output is deterministic: identical configuration (including different
``--jobs`` settings) yields byte-identical JSON/CSV, and parsing the JSON
and re-serializing it reproduces the bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field

from .checks import ALL_CHECKS, run_checks
from .operators import SpectrumReport, build_report, charpoly_exact

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID = 2
EXIT_VERIFY_FAILED = 3


class UserInputError(ValueError):
    """Invalid command-line input (exit code 2)."""


@dataclass
class RunConfig:
    k_values: list
    format: str = "json"
    out: str | None = None
    jobs: int = 0
    checks: tuple = field(default_factory=tuple)


def parse_k_values(arg: str) -> list:
    """Parse '-k' values: an inclusive range 'a..b' keeps only its odd
    members; an explicit list '1,3,7' must already be odd and name each k
    once."""
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
        ks = list(range(start, b + 1, 2))
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
    return ks


# ---------------------------------------------------------------------
# Canonical serialization.  Floats are rendered with 17 significant
# digits so the emitted JSON re-serializes byte-identically after a
# parse round trip.
# ---------------------------------------------------------------------


def _json_scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        if v == 0.0:
            return "0"
        return format(v, ".17g")
    if isinstance(v, str):
        return json.dumps(v)
    raise TypeError(f"cannot serialize {type(v)!r}")


def dumps_canonical(obj) -> str:
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(k)}: {dumps_canonical(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps_canonical(v) for v in obj) + "]"
    return _json_scalar(obj)


def report_to_dict(r: SpectrumReport) -> dict:
    return {
        "k": r.k,
        "m": r.m,
        "basis": r.basis,
        "eigenvalues": list(r.eigenvalues),
        "kernel_dim": r.kernel_dim,
        "abs_det": r.abs_det,
        "charpoly": list(r.charpoly.coeffs),
        "p_diag": list(r.p_diag),
        "checks": r.checks,
        "signed_det": r.signed_det,
    }


# Each renderer yields its output in pieces, one per report where it can, so
# a sweep is written as its reports complete.  The pieces concatenate to the
# same bytes for any ``--jobs``.


def _render_json(dicts, count: int):
    if count == 1:
        yield dumps_canonical(next(dicts)) + "\n"
        return
    for i, d in enumerate(dicts):
        yield ("[\n" if i == 0 else ",\n") + dumps_canonical(d)
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


def _emit(cfg: RunConfig, pieces) -> None:
    """Write the pieces to ``--out`` or stdout as each is produced.  If
    one fails, what was written stays written."""
    fh = open(cfg.out, "w", encoding="utf-8") if cfg.out else sys.stdout
    try:
        for piece in pieces:
            fh.write(piece)
            fh.flush()
    finally:
        if cfg.out:
            fh.close()


# ---------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------


def _report_worker(k):
    return report_to_dict(build_report(k))


def worker_count(jobs: int, n_items: int) -> int:
    """Worker processes for n_items reports: ``jobs`` (0 = one per CPU),
    capped by the CPU count and by n_items."""
    cpus = os.cpu_count() or 1
    return min(jobs or cpus, n_items, cpus)


def _report_dicts(cfg: RunConfig, pool):
    """The report dicts in ascending k, each yielded as soon as it and
    every smaller k are done; computed by ``pool`` when given."""
    return (pool.map if pool else map)(_report_worker, sorted(cfg.k_values))


def cmd_spectrum(cfg: RunConfig) -> int:
    render = {"json": _render_json, "csv": _render_csv, "table": _render_table}[cfg.format]
    count = len(cfg.k_values)
    jobs = worker_count(cfg.jobs, count)
    pool = nullcontext()
    if jobs > 1:
        # imported here: it adds about 30 modules to every start-up
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=jobs)
    with pool as executor:
        _emit(cfg, render(_report_dicts(cfg, executor), count))
    return EXIT_OK


def cmd_charpoly(cfg: RunConfig) -> int:
    _emit(cfg, ("[" + ", ".join(map(str, charpoly_exact(k).coeffs)) + "]\n" for k in sorted(cfg.k_values)))
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    results = run_checks(sorted(cfg.k_values), names=cfg.checks or None)
    lines = []
    failed = False
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        where = f"k={r.k}" if r.k is not None else "k=*"
        lines.append(f"{status} {r.name} {where} residual={r.residual:.3e}")
        failed = failed or not r.ok
    _emit(cfg, ["\n".join(lines) + "\n"])
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


# ---------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------


# Each option as (flags, argparse keywords); every dest but k is a RunConfig
# field.
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
    parser = _build_parser()
    args = vars(parser.parse_args(argv))
    func = args.pop("func")
    del args["command"]
    try:
        cfg = RunConfig(k_values=parse_k_values(args.pop("k")), **args)
        if cfg.jobs < 0:
            raise UserInputError("--jobs must be >= 0")
        # The exact charpoly's integers pass CPython's int -> str limit of
        # 4300 digits from k ~ 1965.  The limit stays on while -k is parsed.
        if hasattr(sys, "set_int_max_str_digits"):
            sys.set_int_max_str_digits(0)
        return func(cfg)
    except UserInputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
