"""One `sdirac` process as the benchmark runs it.

    python3 bench/child.py FD [sdirac arguments...]

Imports `sdirac.cli`, writes the CLOCK_MONOTONIC time at which that import
finished to file descriptor FD (the parent's set-up mark), then runs
`sdirac.cli.main` on the remaining arguments and exits with its code. With no
arguments it stops after the import, which measures set-up alone.
"""

import os
import sys
import time


def main() -> int:
    fd = int(sys.argv[1])
    from sdirac.cli import main as cli_main

    os.write(fd, repr(time.monotonic()).encode())
    os.close(fd)
    args = sys.argv[2:]
    return cli_main(args) if args else 0


if __name__ == "__main__":
    sys.exit(main())
