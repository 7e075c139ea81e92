"""Bind a heavy dependency at import time and run it only on first use."""

import importlib.util
import sys


def lazy_import(name: str):
    """sys.modules[name] if imported, else a module that runs on its first attribute access."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module
