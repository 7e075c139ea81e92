"""The bench tracer wraps package functions by name, so every name it
lists must exist: one that is missing makes every traced run raise
before its first task."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_the_package():
    tracer = _load_tracer()
    listed = [(modname, name) for modname, names in tracer.SPANS.values() for name in names]
    listed += [tuple(key.split(".")) for key in tracer._OUTER]
    missing = []
    for modname, name in listed:
        mod = importlib.import_module(f"skeinquant.{modname}")
        if "." in name:
            cls_name, attr = name.split(".")
            found = attr in vars(getattr(mod, cls_name, object))
        else:
            found = callable(getattr(mod, name, None))
        if not found:
            missing.append(f"{modname}.{name}")
    assert not missing, missing
