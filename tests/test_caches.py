"""The package keeps no process-wide cache but one named one."""

import ast
from pathlib import Path

import skeinquant

_CACHES = ("lru_cache", "cache")
KEPT = {
    ("jones", "_colored_jones_exact_cached"):
        "the bench reads its cache_info() for jones.exact.cache_hit_ratio in traced passes",
}


def _cache_uses(tree: ast.AST) -> tuple:
    """(functions decorated by functools' lru_cache or cache, every use of either)."""
    names = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "functools"
             for alias in node.names if alias.name in _CACHES}

    def is_cache(node):
        node = node.func if isinstance(node, ast.Call) else node
        return (isinstance(node, ast.Name) and node.id in names
                or isinstance(node, ast.Attribute) and node.attr in _CACHES
                and isinstance(node.value, ast.Name) and node.value.id == "functools")

    decorated = [f.name for f in ast.walk(tree)
                 if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and any(is_cache(d) for d in f.decorator_list)]
    uses = sum(is_cache(node) for node in ast.walk(tree)
               if isinstance(node, (ast.Name, ast.Attribute)))
    return decorated, uses


def test_only_the_named_functions_keep_a_cache():
    # a numeric table is built once per call and freed on return; a cache that outlives
    # the call holds memory no byte guard counts
    found, stray = set(), []
    for path in sorted(Path(skeinquant.__file__).parent.rglob("*.py")):
        decorated, uses = _cache_uses(ast.parse(path.read_text()))
        found.update((path.stem, name) for name in decorated)
        if uses != len(decorated):
            stray.append(path.name)
    why = "; ".join(f"{mod}.{name} stays because {reason}"
                    for (mod, name), reason in KEPT.items())
    assert found == set(KEPT) and not stray, (
        f"caches on {sorted(found - set(KEPT))}, a cache outside a decorator in {stray}, "
        f"kept ones missing {sorted(set(KEPT) - found)}: only it may stay ({why})")
