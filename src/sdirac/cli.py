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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .checks import run_checks
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
    mode: str = "both"
    format: str = "json"
    out: str | None = None
    jobs: int = 0
    checks: tuple = field(default_factory=tuple)
    tol_eig: float = 1e-10
    tol_match: float = 1e-12


def parse_k_values(arg: str) -> list:
    """Parse '-k' values: an inclusive range 'a..b' keeps only its odd
    members; an explicit list '1,3,7' must already be odd."""
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


def _render_json(dicts) -> str:
    if len(dicts) == 1:
        return dumps_canonical(dicts[0]) + "\n"
    return "[\n" + ",\n".join(dumps_canonical(d) for d in dicts) + "\n]\n"


def _render_csv(dicts) -> str:
    lines = []
    for d in dicts:
        eigs = ";".join(repr(float(e)) for e in d["eigenvalues"])
        lines.append(f'{d["k"]},{d["kernel_dim"]},{d["abs_det"]},{eigs}')
    return "\n".join(lines) + "\n"


def _render_table(dicts) -> str:
    header = f'{"k":>4} {"m":>4} {"ker":>4} {"|det|":>14}  eigenvalues'
    lines = [header]
    for d in dicts:
        eigs = ", ".join(format(e, ".6g") for e in d["eigenvalues"])
        lines.append(
            f'{d["k"]:>4} {d["m"]:>4} {d["kernel_dim"]:>4} {d["abs_det"]:>14}  [{eigs}]'
        )
    return "\n".join(lines) + "\n"


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------


def _report_worker(payload):
    k, tol_eig, tol_match, mode = payload
    return report_to_dict(build_report(k, tol_eig=tol_eig, tol_match=tol_match, mode=mode))


def worker_count(jobs: int, n_items: int) -> int:
    """Worker processes for n_items reports: ``jobs`` (0 = one per CPU),
    capped by the CPU count and by n_items."""
    cpus = os.cpu_count() or 1
    return min(jobs or cpus, n_items, cpus)


def _compute_report_dicts(cfg: RunConfig) -> list:
    ks = sorted(cfg.k_values)
    payloads = [(k, cfg.tol_eig, cfg.tol_match, cfg.mode) for k in ks]
    jobs = worker_count(cfg.jobs, len(ks))
    if jobs <= 1:
        return [_report_worker(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_report_worker, payloads))


def cmd_spectrum(cfg: RunConfig) -> int:
    dicts = _compute_report_dicts(cfg)
    render = {"json": _render_json, "csv": _render_csv, "table": _render_table}[cfg.format]
    _emit(cfg, render(dicts))
    return EXIT_OK


def cmd_charpoly(cfg: RunConfig) -> int:
    lines = []
    for k in sorted(cfg.k_values):
        coeffs = charpoly_exact(k).coeffs
        lines.append("[" + ", ".join(str(c) for c in coeffs) + "]")
    _emit(cfg, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    try:
        results = run_checks(
            sorted(cfg.k_values),
            names=cfg.checks or None,
            mode=cfg.mode,
            tol_eig=cfg.tol_eig,
            tol_match=cfg.tol_match,
        )
    except ValueError as e:
        raise UserInputError(str(e)) from None
    lines = []
    failed = False
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        where = f"k={r.k}" if r.k is not None else "k=*"
        lines.append(f"{status} {r.name} {where} residual={r.residual:.3e}")
        failed = failed or not r.ok
    _emit(cfg, "\n".join(lines) + "\n")
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


# ---------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdirac",
        description="Symplectic Dirac operator blocks on the projective line: "
        "spectra, exact characteristic polynomials, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "-k", "--k", required=True, metavar="RANGE|LIST",
            help="odd degrees, e.g. '5', '1,3,7' or '1..31' (ranges skip even values)",
        )
        p.add_argument("--format", choices=("json", "csv", "table"), default="json")
        p.add_argument("--mode", choices=("float", "exact", "both"), default="both")
        p.add_argument("--out", metavar="PATH", help="write output to a file instead of stdout")
        p.add_argument("--jobs", type=int, default=0, metavar="N", help="worker count, 0 = auto")
        p.add_argument(
            "--check", action="append", default=[], metavar="NAME",
            help="restrict 'verify' to the named check (repeatable)",
        )
        p.add_argument("--tol-eig", type=float, default=1e-10, metavar="X")
        p.add_argument("--tol-match", type=float, default=1e-12, metavar="X")

    p_spec = sub.add_parser("spectrum", help="emit spectrum reports per k")
    common(p_spec)
    p_spec.set_defaults(func=cmd_spectrum)

    p_char = sub.add_parser("charpoly", help="emit exact charpoly coefficients, lowest degree first")
    common(p_char)
    p_char.set_defaults(func=cmd_charpoly)

    p_ver = sub.add_parser("verify", help="run the invariant checks over a k range")
    common(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.tol_eig <= 0 or args.tol_match <= 0:
            raise UserInputError("tolerances must be strictly positive")
        if args.jobs < 0:
            raise UserInputError("--jobs must be >= 0")
        cfg = RunConfig(
            k_values=parse_k_values(args.k),
            mode=args.mode,
            format=args.format,
            out=args.out,
            jobs=args.jobs,
            checks=tuple(args.check),
            tol_eig=args.tol_eig,
            tol_match=args.tol_match,
        )
        # The exact charpoly's integers pass CPython's int -> str limit of
        # 4300 digits from k ~ 1965.  The limit stays on while -k is parsed.
        if hasattr(sys, "set_int_max_str_digits"):
            sys.set_int_max_str_digits(0)
        return args.func(cfg)
    except UserInputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
