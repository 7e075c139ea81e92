"""skeinquant benchmark: cold-start CLI workloads with checked outputs.

    python3 bench/run.py --workload norm_growth --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ./src.
Each pass runs the workload's whole task list in a fresh interpreter, so
every pass starts with cold lru_caches and a cold _KERNEL_CACHE, as each
CLI invocation does.  A run makes a fixed number of passes sized to
--seconds (pass_plan).  On a shared host the same work runs up to 1.5x
slower for seconds to minutes at a time, so every timed task and every cold
import is scaled to a reference host speed by a speed probe run beside it
(speed.py).  wall_s and max_task_s take each scaled task time as its
median over the run's passes; setup_s (scaled) and peak_rss_mb are medians.

--trace 0 prints the end-to-end metrics; fail_ratio and max_task_s are
printed in the summary above the last line.  --trace 1 alternates untraced
and traced passes and prints the per-layer metrics (medians over the
traced passes), with trace.overhead_s the traced minus the untraced
wall time.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give the seed, the
generated argv list, run metadata, per-task outcomes and times.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True   # leave no bytecode in the checkout for a later import to read

import checks  # noqa: E402
from speed import scaled  # noqa: E402
from tasks import WORKLOADS, make_tasks  # noqa: E402

DEFAULT_SEED = 1
SETUP_PROBES_PER_PASS = 2
# passes per run at --seconds 30 (about 35-50 s of passes on the 2-vCPU host the
# README describes); norm_growth's passes are the shortest, so it gets more of them
PASSES_AT_30S = {"norm_growth": 7, "skein_braids": 5, "geom_verify": 5}
RUN_LIMIT_S = 170.0          # a run must end within 180 s
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# cold import, then the speed probe in the same interpreter
COLD_IMPORT = ("import sys, time; sys.path.insert(0, sys.argv[1]); import skeinquant.cli; "
               "t = time.clock_gettime(time.CLOCK_MONOTONIC); sys.path.insert(0, sys.argv[2]); "
               "import speed; print(t, speed.speed_probe())")


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_PIN)
    env["PYTHONHASHSEED"] = "0"
    # every import compiles skeinquant from source and nothing is written under src/
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONPATH", None)
    return env


def setup_time(src: str, env: dict) -> dict:
    """Interpreter start to `import skeinquant.cli` done, in a fresh interpreter.

    Returns the raw time, the speed probe run right after the import, and
    the time scaled to the reference speed.
    """
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, "-c", COLD_IMPORT, src, HERE], env=env,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"import of skeinquant.cli failed:\n{proc.stderr[-2000:]}")
    t1, probe = (float(x) for x in proc.stdout.split()[-2:])
    return {"raw_s": t1 - t0, "probe_s": probe, "scaled_s": scaled(t1 - t0, probe)}


def run_pass(src: str, workdir: str, tasks: list, trace: bool, env: dict, timeout: float) -> dict:
    spec = json.dumps({"src": src, "workdir": workdir, "tasks": tasks, "trace": trace})
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py")], input=spec,
                              env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a pass did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"pass runner failed:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pass_plan(workload: str, seconds: float, trace: bool) -> list:
    """Pass kinds in run order: a fixed count per workload, scaled by --seconds.

    The count does not depend on how fast the program runs, so a faster
    commit is measured over as many passes as its parent.
    """
    n = max(3, round(PASSES_AT_30S[workload] * seconds / 30))
    if not trace:
        return ["plain"] * n
    return ["plain", "traced"] * max(2, n // 2)


def run_passes(src, workdir, tasks, plan, env, started):
    """Closed loop of passes, one fresh interpreter each, with setup probes between.

    SETUP_PROBES_PER_PASS cold imports precede each pass, so the setup
    samples are spread over the whole run; one unmeasured import comes
    first and warms the file cache.  Stops early, with at least one pass
    of each planned kind, if the next pass would push the run past
    RUN_LIMIT_S.  Returns (passes, setup samples).
    """
    passes, setup = [], []
    setup_time(src, env)
    for kind in plan:
        if len({p["kind"] for p in passes}) == len(set(plan)):
            last = [p["duration_s"] for p in passes if p["kind"] == kind][-1]
            if time.monotonic() - started + last > RUN_LIMIT_S:
                break
        setup += [setup_time(src, env) for _ in range(SETUP_PROBES_PER_PASS)]
        t0 = time.monotonic()
        rec = run_pass(src, workdir, tasks, kind == "traced", env,
                       max(5.0, RUN_LIMIT_S - (t0 - started)))
        rec["kind"], rec["duration_s"] = kind, time.monotonic() - t0
        passes.append(rec)
    return passes, setup


def git_revision(root: str):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0))}
    try:
        with open("/sys/fs/cgroup/cpu.max") as fh:
            info["cgroup_cpu_max"] = fh.read().strip()
    except OSError:
        info["cgroup_cpu_max"] = None
    return info


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "skeinquant", "cli.py")):
        print(f"error: no skeinquant sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)

    tasks = make_tasks(args.workload, args.seed)
    env = _child_env()
    workdir = os.path.join(HERE, ".work", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        sys.path.insert(0, src)
        oracles = checks.prepare(tasks)
        plan = pass_plan(args.workload, args.seconds, bool(args.trace))
        passes, setup = run_passes(src, workdir, tasks, plan, env, started)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    # judge every task of every pass, traced passes included
    attempted = failed = 0
    unexpected = []
    counts = {"ok": 0, "wrong": 0, "error_exit": 0, "check_failed": 0, "uncaught": 0}
    per_task = {t["id"]: {"argv": t["argv"], "time_s": [], "outcomes": []} for t in tasks}
    for p in passes:
        for task, out in zip(tasks, p["outputs"]):
            verdict = checks.judge(task, out, ref, oracles.get(task["id"]))
            outcome = verdict["outcome"]
            attempted += 1
            counts[checks.outcome_class(outcome)] += 1
            if outcome != "ok":
                failed += 1
                if not checks.known_defect(task["check"], outcome):
                    unexpected.append({"id": task["id"], "outcome": outcome,
                                       "stderr": out["stderr"][-500:]})
            entry = per_task[task["id"]]
            entry["time_s"].append(round(out["time_s"], 6))
            if outcome not in entry["outcomes"]:
                entry["outcomes"].append(outcome)
            entry["checks"] = verdict["checks"]
            if "error" in verdict:
                entry["error"] = verdict["error"]

    plain = [p for p in passes if p["kind"] == "plain"]
    traced = [p for p in passes if p["kind"] == "traced"]

    def task_times(ps):
        """Each task's median time over the passes: (sum, max) of those times.

        A task's time is scaled to the reference speed by the mean of the
        speed probes run just before and just after it.
        """
        med = [statistics.median(scaled(p["outputs"][i]["time_s"],
                                        (p["probe_s"][i] + p["probe_s"][i + 1]) / 2)
                                 for p in ps)
               for i in range(len(tasks))]
        return sum(med), max(med)

    if args.trace:
        names = list(traced[0]["layers"])
        metrics = {}
        for n in names:
            unit = "s" if n.endswith("_s") else ("1" if n.endswith("ratio") else "count")
            if unit == "s":
                # each pass's layer times scaled by the median of its speed probes
                value = statistics.median(scaled(p["layers"][n], statistics.median(p["probe_s"]))
                                          for p in traced)
            else:
                # counts repeat exactly between passes; median_low keeps them whole numbers
                value = statistics.median_low(p["layers"][n] for p in traced)
            metrics[n] = {"value": value, "unit": unit}
        metrics["trace.overhead_s"] = {"value": task_times(traced)[0] - task_times(plain)[0],
                                       "unit": "s"}
    else:
        metrics = {"setup_s": {"value": statistics.median(s["scaled_s"] for s in setup),
                               "unit": "s"},
                   "wall_s": {"value": task_times(plain)[0], "unit": "s"},
                   "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in plain),
                                   "unit": "MiB"}}

    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "metadata": {"git_revision": git_revision(root), **passes[0]["versions"],
                     "blas_pin": BLAS_PIN, **machine()},
        "argv": [t["argv"] for t in tasks],
        "setup_samples": setup,
        "passes": [{"kind": p["kind"], "wall_s": p["wall_s"], "max_task_s": p["max_task_s"],
                    "peak_rss_mb": p["peak_rss_mb"], "probe_s": p["probe_s"]}
                   for p in passes],
        "outcome_counts": counts,
        "fail_ratio": {"value": failed / attempted, "unit": "1"},
        "max_task_s": {"value": task_times(plain)[1], "unit": "s"},
        "known_defects": checks.KNOWN_DEFECTS,
        "unexpected": unexpected,
        "tasks": per_task,
    }
    print(json.dumps(details, indent=1))
    print(f"# {args.workload} seed={args.seed}: {len(passes)} passes, "
          f"{attempted} tasks attempted, {failed} failed "
          f"(fail_ratio {failed / attempted:.4f} 1), outcomes {counts}, "
          f"max_task_s {task_times(plain)[1]:.6g} s")
    for name, m in metrics.items():
        print(f"#   {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not unexpected, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
