"""The package runs on Python ints and numpy; mpmath is a test dependency only.  And
every byte refusal goes through errors.check_bytes."""

import ast
from pathlib import Path

import skeinquant
from skeinquant import jones

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


_CATALOG_SUMS = ("_trefoil_values", "_trefoil_sums", "_trefoil_norm", "_figure_eight_values",
                 "_figure_eight_terms", "_root_table")


def _float_root_lines(tree: ast.AST, names) -> dict:
    """{function: lines} for the functions ``names``: where each reads cmath, numpy,
    math.sin or math.cos."""
    found = {}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name in names:
            found[fn.name] = sorted(
                node.lineno for node in ast.walk(fn)
                if isinstance(node, ast.Name) and node.id in ("cmath", "np", "numpy")
                or isinstance(node, ast.Attribute) and node.attr in ("sin", "cos")
                and isinstance(node.value, ast.Name) and node.value.id == "math")
    return found


def test_catalog_sums_read_only_the_integer_root_table():
    # the sums, the norm passes and their table read the roots of unity from the integer
    # table alone: no libm or numpy root enters them
    path = Path(skeinquant.__file__).parent / "jones.py"
    found = _float_root_lines(ast.parse(path.read_text()), _CATALOG_SUMS)
    assert found == {name: [] for name in _CATALOG_SUMS}, found


def test_only_the_trefoil_sums_build_mortons_table():
    # Morton's root table is built in one place, at one precision, for the values and the norm
    path = Path(skeinquant.__file__).parent / "jones.py"
    callers = {fn.name for fn in ast.walk(ast.parse(path.read_text()))
               if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_trefoil_")
               and any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                       and node.func.id == "_root_table" for node in ast.walk(fn))}
    assert callers == {"_trefoil_sums"}, callers


def _check_bytes_calls(tree: ast.AST, names) -> dict:
    """{function: count} for the functions ``names``: how many check_bytes calls each
    makes, by attribute or by name."""
    return {fn.name: sum(isinstance(node, ast.Call) and "check_bytes" in (
                             getattr(node.func, "attr", None), getattr(node.func, "id", None))
                         for node in ast.walk(fn))
            for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name in names}


def test_each_catalog_table_is_counted_once_by_its_reader():
    # _root_table only builds: each sum that holds the table counts it with its own lists,
    # in one check before any exists
    path = Path(skeinquant.__file__).parent / "jones.py"
    found = _check_bytes_calls(ast.parse(path.read_text()), _CATALOG_SUMS)
    assert found == {"_trefoil_values": 0, "_trefoil_sums": 1, "_trefoil_norm": 0,
                     "_figure_eight_values": 1, "_figure_eight_terms": 1, "_root_table": 0}, found


def test_the_check_bytes_finder_sees_each_form():
    code = ("def _root_table():\n    errors.check_bytes('a', 1)\n    check_bytes('b', 2)\n"
            "    errors.check_bytes\n    x.check_bytes('c', 3)\n"
            "def other():\n    errors.check_bytes('d', 4)\n")
    assert _check_bytes_calls(ast.parse(code), _CATALOG_SUMS) == {"_root_table": 3}


def test_the_float_root_finder_sees_each_form():
    code = ("def _root_table():\n    a = cmath.exp(1j)\n    b = math.sin(1) + math.log(2)\n"
            "    c = np.exp(1)\n    d = math.cos\n    return numpy\n"
            "def other():\n    return cmath.exp(1j)\n")
    assert _float_root_lines(ast.parse(code), _CATALOG_SUMS) == {"_root_table": [2, 3, 4, 5, 6]}


def _string_lines(tree: ast.AST, values) -> list:
    """Lines that hold a string constant equal to one of ``values``, each once."""
    return sorted({node.lineno for node in ast.walk(tree) if isinstance(node, ast.Constant)
                   and isinstance(node.value, str) and node.value in values})


def test_only_jones_names_a_catalog_knot():
    # one table: a built-in knot's braid, sums, norm pass and volume are its jones.CATALOG entry
    found = {}
    for path in sorted(Path(skeinquant.__file__).parent.rglob("*.py")):
        lines = _string_lines(ast.parse(path.read_text()), jones.CATALOG)
        if lines and path.name != "jones.py":
            found[path.name] = lines
    assert not found, f"catalog knots are named at {found}"


def test_the_string_finder_sees_each_form():
    code = ("if name == 'figure-eight':\n    pass\nd = {'unknot': 0.0,\n     'trefoil': 0.0}\n"
            "s = 'the figure-eight knot'\nf(knot='trefoil-mirror')\nx = 'empty'\n'''unknot'''\n")
    assert _string_lines(ast.parse(code), jones.CATALOG) == [1, 3, 4, 6, 8]


_MOVED = ("ChebyshevColor", "chebyshev_coeffs", "twist_monomial", "colored_bracket",
          "_colored_braid_bracket", "_cabled_word", "unknot_diagram", "CablingUnsupported")


def _definitions(tree: ast.AST) -> dict:
    """{name: lines} for every function, class and assigned name that ``tree`` defines."""
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.setdefault(node.name, []).append(node.lineno)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                        found.setdefault(name.id, []).append(node.lineno)
    return found


def _parameters(tree: ast.AST, name: str) -> list:
    """The parameter names of every function ``name`` in tree, *args and **kwargs included."""
    return [[a.arg for a in (fn.args.posonlyargs + fn.args.args + [fn.args.vararg]
                             + fn.args.kwonlyargs + [fn.args.kwarg]) if a is not None]
            for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == name]


def test_the_cabled_bracket_lives_in_the_tests():
    # no command cables a braid: the colored bracket is tests/oracles.py's alone
    found = {}
    for path in sorted(Path(skeinquant.__file__).parent.rglob("*.py")):
        defined = _definitions(ast.parse(path.read_text()))
        moved = {name: defined[name] for name in _MOVED if name in defined}
        if moved:
            found[path.name] = moved
    assert not found, f"cabling code is defined at {found}"
    bracket = Path(skeinquant.__file__).parent / "bracket.py"
    assert _parameters(ast.parse(bracket.read_text()), "braid_closure_bracket") == [["braid"]]


def test_the_definition_finders_see_each_form():
    code = ("def f(a, b=None, *c, d, **e):\n    g = 1\nclass H:\n    i: int = 2\n"
            "async def j():\n    pass\nk, l = 3, 4\nm.n = 5\nimport o\n")
    assert _definitions(ast.parse(code)) == {"f": [1], "g": [2], "H": [3], "i": [4], "j": [5],
                                             "k": [7], "l": [7]}
    assert _parameters(ast.parse(code), "f") == [["a", "b", "c", "d", "e"]]
