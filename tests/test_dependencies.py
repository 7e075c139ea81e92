"""The package runs on Python ints and numpy; mpmath is a test dependency only.  And
every byte refusal goes through errors.check_bytes."""

import ast
from pathlib import Path

import skeinquant

_LOADERS = ("lazy_import", "import_module", "__import__")


def _mpmath_lines(tree: ast.AST) -> list:
    """Lines that import mpmath or one of its modules, or pass its name to a loader."""
    def is_mpmath(name):
        return isinstance(name, str) and name.split(".")[0] == "mpmath"

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module]
        elif isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            names = [a.value for a in node.args if isinstance(a, ast.Constant)] \
                if called in _LOADERS else []
        else:
            continue
        if any(map(is_mpmath, names)):
            lines.append(node.lineno)
    return lines


def test_no_module_loads_mpmath():
    found = {}
    for path in sorted(Path(skeinquant.__file__).parent.rglob("*.py")):
        lines = _mpmath_lines(ast.parse(path.read_text()))
        if lines:
            found[path.name] = lines
    assert not found, f"mpmath is loaded at {found}; the tests keep it as their oracle only"


def test_the_finder_sees_each_form():
    code = ("import mpmath\nfrom mpmath import mpf\nimport mpmath.libmp as lm\n"
            "m = lazy_import('mpmath')\nn = importlib.import_module('mpmath.libmp')\n"
            "np = lazy_import('numpy')\nimport numpy\n")
    assert _mpmath_lines(ast.parse(code)) == [1, 2, 3, 4, 5]


def _raise_lines(tree: ast.AST, name: str) -> list:
    """Lines that raise the exception ``name`` or a call of it, bare or as an attribute."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if (exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)) == name:
                lines.append(node.lineno)
    return lines


def test_only_errors_raises_state_space_too_large():
    # one refusal rule: errors.check_bytes compares and formats the tail for every caller
    found = {}
    for path in sorted(Path(skeinquant.__file__).parent.rglob("*.py")):
        lines = _raise_lines(ast.parse(path.read_text()), "StateSpaceTooLarge")
        if lines:
            found[path.name] = lines
    assert list(found) == ["errors.py"], f"StateSpaceTooLarge is raised at {found}"


def test_the_raise_finder_sees_each_form():
    code = ("raise StateSpaceTooLarge('x')\nraise errors.StateSpaceTooLarge\n"
            "raise ValueError('StateSpaceTooLarge')\nx = StateSpaceTooLarge\n")
    assert _raise_lines(ast.parse(code), "StateSpaceTooLarge") == [1, 2]
