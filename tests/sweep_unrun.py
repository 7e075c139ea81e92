"""Which lines of src/ do the bench workloads run?  A report, not a test.

Runs every task of every bench workload at seeds 1-3 as an in-process
``skeinquant.cli.main(argv)`` call in a temporary directory, under a
``sys.settrace`` line tracer, and prints:

* the executed and the total executable lines of src/skeinquant (a line
  is executable when some code object compiled from the file maps an
  instruction to it);
* each named function and method that no task entered (comprehensions
  and lambdas count only through their lines).

Run it from the repository root:

    python tests/sweep_unrun.py

It reads bench/tasks.py for the task lists and writes nothing outside its
temporary directory.  The name keeps pytest from collecting it.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = str(SRC / "skeinquant") + os.sep
SEEDS = (1, 2, 3)


def _code_objects(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def _executable():
    """({(file, line)}, {(file, qualname, first line)}) over every module of the package."""
    lines, functions = set(), set()
    for path in sorted(Path(PACKAGE).glob("*.py")):
        for code in _code_objects(compile(path.read_text(), str(path), "exec")):
            lines |= {(str(path), line) for _, _, line in code.co_lines() if line is not None}
            if not code.co_name.startswith("<"):
                functions.add((str(path), code.co_qualname, code.co_firstlineno))
    return lines, functions


def sweep() -> tuple:
    """(executed lines, entered functions) over every bench task at SEEDS."""
    sys.path[:0] = [str(SRC), str(ROOT / "bench")]
    from tasks import WORKLOADS, make_tasks

    executed, entered = set(), set()

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(PACKAGE):
            return None
        entered.add((code.co_filename, code.co_qualname, code.co_firstlineno))
        executed.add((code.co_filename, frame.f_lineno))
        return local

    with tempfile.TemporaryDirectory() as work:
        cwd = os.getcwd()
        os.chdir(work)
        sys.settrace(on_call)
        try:
            from skeinquant import cli   # imported under the tracer: module lines count
            for workload in WORKLOADS:
                for seed in SEEDS:
                    for task in make_tasks(workload, seed):
                        with contextlib.redirect_stdout(io.StringIO()), \
                                contextlib.redirect_stderr(io.StringIO()):
                            try:
                                cli.main(list(task["argv"]))
                            except Exception:   # the report counts lines, not outcomes
                                pass
        finally:
            sys.settrace(None)
            os.chdir(cwd)
    return executed, entered


def main() -> None:
    lines, functions = _executable()
    executed, entered = sweep()
    print(f"src/skeinquant: {len(lines & executed)} of {len(lines)} executable lines run")
    unrun = sorted(functions - entered)
    print(f"{len(unrun)} functions never entered:")
    for path, qualname, first in unrun:
        print(f"  {Path(path).relative_to(ROOT)}:{first} {qualname}")


if __name__ == "__main__":
    main()
