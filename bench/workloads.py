"""The three CLI workloads and the arguments each passes to `sdirac`.

All are closed loop with one client: one `sdirac` process at a time, with
`--jobs 1`, so the numbers measure the program and not the scheduler on a
small shared machine.

* spectrum-195 -- `spectrum -k 1..195`: 98 reports on many small blocks
  (m <= 98); bisection plus first-principles assembly. The widest sweep
  that exits 0 at the baseline (k = 197 overflows).
* verify-99 -- `verify -k 1..99` with all checks: exact Gaussian-rational
  work (su(2) brackets, the null-space oracle, equivariance) dominates.
* float-large-k -- `verify` with the seven float-path checks on one odd k
  near each of 1000, 2000 and 3000: bisection, the exact charpoly and the
  dense commutator on a few large blocks (m 500-1500); it bypasses exact
  assembly, su2, intertwine and hermite.

The two sweeps ignore the seed; float-large-k draws its k from it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FLOAT_CHECKS = (
    "symmetry",
    "spectra-coincide",
    "p-eigenvalues",
    "kernel-rule",
    "charpoly-parity",
    "det-product",
    "norm-bound",
)

# float-large-k draws one odd k from each band centre +- BAND_HALF_WIDTH. The
# bands are narrow because run time grows about as k^2: +-12 keeps the
# seed-to-seed change of the largest block within about 1%.
BAND_CENTRES = (1000, 2000, 3000)
BAND_HALF_WIDTH = 12


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "spectrum" or "verify"
    k_arg: str  # the -k argument as passed
    ks: tuple  # the odd k it selects, ascending
    checks: tuple = ()  # --check names; () runs every check

    @property
    def argv(self) -> list:
        args = [self.command, "-k", self.k_arg, "--jobs", "1"]
        for name in self.checks:
            args += ["--check", name]
        return args


def large_ks(seed: int) -> tuple:
    """One odd k per band. The parity of m = (k+1)/2 is fixed per band, not
    drawn: an odd m puts an exact zero in the spectrum, and bisection then
    runs its full iteration cap, about three times the work of an even m of
    the same size. The first band has odd m, so the kernel and
    zero-determinant paths are always covered; the others have even m."""
    rng = random.Random(seed)
    ks = []
    for i, centre in enumerate(BAND_CENTRES):
        band = range(centre - BAND_HALF_WIDTH + 1, centre + BAND_HALF_WIDTH, 2)
        ks.append(rng.choice([k for k in band if k % 4 == (1 if i == 0 else 3)]))
    return tuple(ks)


def make(name: str, seed: int) -> Workload:
    if name == "spectrum-195":
        return Workload(name, "spectrum", "1..195", tuple(range(1, 196, 2)))
    if name == "verify-99":
        return Workload(name, "verify", "1..99", tuple(range(1, 100, 2)))
    if name == "float-large-k":
        ks = large_ks(seed)
        return Workload(name, "verify", ",".join(map(str, ks)), ks, FLOAT_CHECKS)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("spectrum-195", "verify-99", "float-large-k")
