"""One workload pass in a fresh interpreter.

Reads a JSON spec on stdin: {"src", "workdir", "tasks", "trace"}.  Runs
every task as an in-process ``skeinquant.cli.main(argv)`` call, one after
another (a closed loop with one client), capturing stdout, stderr, the
exit code or the exception type that escaped, and any file the command
wrote.  Each task is bracketed by runs of ``speed.speed_probe``, so the
parent can scale its time to the reference host speed.  Prints one JSON line with the raw outputs and the pass timings;
judging the outputs is left to the parent.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from speed import speed_probe  # noqa: E402

clock = time.perf_counter


def main() -> None:
    spec = json.load(sys.stdin)
    src = spec["src"]
    sys.path.insert(0, src)
    os.chdir(spec["workdir"])

    import mpmath
    import numpy

    import skeinquant.cli
    if not os.path.abspath(skeinquant.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"skeinquant imported from {skeinquant.cli.__file__}, not {src}")

    tracer = None
    if spec["trace"]:
        from tracer import Tracer, instrument, layer_metrics
        tracer = Tracer()
        instrument(tracer)
        from skeinquant import jones
        cache_before = jones._colored_jones_exact_cached.cache_info()

    cli = skeinquant.cli
    outputs = []
    probes = []
    for task in spec["tasks"]:
        probes.append(speed_probe())
        out, err = io.StringIO(), io.StringIO()
        rc, exc = None, None
        t0 = clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(task["argv"]))
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else 2
            except Exception as e:  # the runner must survive whatever escapes main()
                exc = type(e).__name__
        dt = clock() - t0
        written = None
        if "--out" in task["argv"]:
            path = task["argv"][task["argv"].index("--out") + 1]
            for p in (path, path + ".manifest.json"):
                if os.path.exists(p):
                    if p == path:
                        with open(p) as fh:
                            written = fh.read()
                    os.remove(p)
        outputs.append({"id": task["id"], "rc": rc, "exc": exc, "time_s": dt,
                        "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:],
                        "file": written})
    probes.append(speed_probe())

    record = {
        "wall_s": sum(o["time_s"] for o in outputs),
        "max_task_s": max(o["time_s"] for o in outputs),
        "probe_s": probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": outputs,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "mpmath": mpmath.__version__,
                     "mpmath_backend": mpmath.libmp.BACKEND},
    }
    if tracer is not None:
        record["layers"] = layer_metrics(
            tracer, cache_before, jones._colored_jones_exact_cached.cache_info())
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
