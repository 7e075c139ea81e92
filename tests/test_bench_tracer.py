"""The bench tracer wraps package functions by name, so every name it
lists must exist: one that is missing makes every traced run raise
before its first task."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import skeinquant

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
SRC = str(Path(skeinquant.__file__).resolve().parents[1])   # the child imports the same package


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


def test_instrument_after_a_cold_cli_import():
    # a traced bench run imports skeinquant.cli, then instrument() looks up every module
    # that SPANS names in sys.modules: that import must have loaded them all (the package
    # __init__ imports every module), and the command must run through the wrappers
    code = ("import importlib.util, sys\n"
            "import skeinquant.cli as cli\n"
            f"spec = importlib.util.spec_from_file_location('bench_tracer', {str(TRACER)!r})\n"
            "tracer = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(tracer)\n"
            "tr = tracer.Tracer()\n"
            "tracer.instrument(tr)\n"
            "rc = cli.main(['jones', '--knot', 'trefoil', '--n', '3', '--r', '5'])\n"
            "print(rc, tr.calls['cli'], tr.calls['jones.catalog'], file=sys.stderr)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and proc.stderr.split() == ["0", "1", "1"], proc.stderr
