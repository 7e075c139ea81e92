"""Which lines of src/ do the bench workloads run?  A report, not a test.

Runs every task of every bench workload at seeds 1-3 as an in-process
``skeinquant.cli.main(argv)`` call in a temporary directory, under a
``sys.settrace`` line tracer, and prints:

* the executed and the total executable lines of src/skeinquant (a line
  is executable when some code object compiled from the file maps an
  instruction to it);
* each named function and method that no task entered (comprehensions
  and lambdas count only through their lines), marked where the bench
  harness names it: ``bench/tracer.py`` wraps it (``SPANS``, ``_OUTER``)
  or ``bench/checks.py`` calls it.  A marked function is not removable
  while the bench names it, even though no task enters it.

Run it from the repository root:

    python tests/sweep_unrun.py

It reads bench/tasks.py for the task lists and writes nothing outside its
temporary directory.  The name keeps pytest from collecting it.
"""

from __future__ import annotations

import ast
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


def _bench_names() -> dict:
    """{"module.qualname": the bench file that names it} for bench/tracer.py and bench/checks.py.

    The tracer names "module.name" in ``_OUTER`` and (module, [name, ...]) in
    ``SPANS``; the checks import from skeinquant modules and may call a method
    of an imported class, as ``KnotPresentation.from_braid``.
    """
    from tracer import _OUTER, SPANS
    names = {f"{mod}.{name}": "bench/tracer.py" for mod, listed in SPANS.values()
             for name in listed}
    names.update(dict.fromkeys(_OUTER, "bench/tracer.py"))
    tree = ast.parse((ROOT / "bench" / "checks.py").read_text())
    imported = {}   # local name -> module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("skeinquant."):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.module[len("skeinquant."):]
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in imported:
            names.setdefault(f"{imported[node.id]}.{node.id}", "bench/checks.py")
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in imported):
            names.setdefault(f"{imported[node.value.id]}.{node.value.id}.{node.attr}",
                             "bench/checks.py")
    return names


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
    bench = _bench_names()
    print(f"src/skeinquant: {len(lines & executed)} of {len(lines)} executable lines run")
    unrun = sorted(functions - entered)
    print(f"{len(unrun)} functions never entered:")
    for path, qualname, first in unrun:
        named = bench.get(f"{Path(path).stem}.{qualname}")
        print(f"  {Path(path).relative_to(ROOT)}:{first} {qualname}"
              + (f"  (named by {named})" if named else ""))


if __name__ == "__main__":
    main()
