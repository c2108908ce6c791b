"""Every function and method of ``src/sdirac`` is reached by a command, and
the README's command-line and library examples run.

The commands are traced with ``sys.settrace`` for call events only; a
function counts as reached when a frame of its code object is entered.  A
function no command reaches is either deleted or named in UNREACHED with
the reason it stays."""

import ast
import contextlib
import io
import re
import shlex
import sys
from pathlib import Path

from sdirac import cli

SRC = Path(cli.__file__).resolve().parent
README = Path(__file__).resolve().parent.parent / "README.md"

COMMANDS = (
    # in one process: sys.settrace does not see the checks of pool workers
    ["verify", "-k", "1..7", "--jobs", "1"],
    ["spectrum", "-k", "1..7", "--jobs", "1"],
    ["spectrum", "-k", "1..7", "--jobs", "1", "--format", "csv"],
    ["spectrum", "-k", "1..7", "--jobs", "1", "--format", "table"],
    ["charpoly", "-k", "1..7"],
    # past _SEED_MAX_M rows (k >= 801) the eigensolver takes the limiting
    # law's seeds and refines them by Newton steps
    ["verify", "-k", "801", "--check", "symmetry"],
)

# module.qualname -> why it stays although no command reaches it
UNREACHED = {
    "operators.p_operator": "timed by bench/layers.py",
    "operators.DiracMatrix.entries": "bench/layers.py measures the dense blocks' bytes",
    "su2._dense": "builds DiracMatrix.entries and RepMatrices.as_arrays",
    "su2.RepMatrices.as_arrays": "timed by bench/layers.py",
    "su2.check_bracket": "timed by bench/layers.py in both modes",
    "tridiag._bisect": "general-matrix fallback; the tests' unseeded reference",
}


def defined_functions() -> dict:
    """(resolved file, first line) -> module.qualname of every function
    and method defined in src/sdirac/*.py.  A code object's first line is
    that of its first decorator."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(path, first)] = name
                visit(child, path, name)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, path.stem)
    return found


def reached_codes() -> set:
    """The code objects entered while the COMMANDS run through cli.main."""
    codes = set()

    def trace(frame, event, arg):
        codes.add(frame.f_code)

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        for argv in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
    finally:
        sys.settrace(previous)
    return codes


def test_every_function_is_reached_or_listed():
    defined = defined_functions()
    reached = {(Path(c.co_filename).resolve(), c.co_firstlineno) for c in reached_codes()}
    unreached = {name for where, name in defined.items() if where not in reached}
    assert unreached == set(UNREACHED)


def test_readme_library_example_runs():
    # the fenced block under "## Library"; exec fails on a deleted name
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library\n+```python\n(.*?)```", text, re.DOTALL)
    assert block is not None
    exec(compile(block.group(1), str(README), "exec"), {})


def test_readme_command_line_block_runs(capsys):
    # each `sdirac ...` line of the fenced block under "## Command line",
    # run through cli.main; the charpoly line prints what its comment says
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n+```sh\n(.*?)```", text, re.DOTALL)
    assert block is not None
    outputs = {}
    for line in block.group(1).splitlines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "sdirac", line
        assert cli.main(argv[1:]) == 0, line
        outputs[" ".join(argv[1:])] = capsys.readouterr().out
    assert outputs["charpoly -k 5"] == "[0, -36, 0, 1]\n"
