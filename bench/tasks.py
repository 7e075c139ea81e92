"""Seeded task lists for the three workloads.

A task is one skeinquant CLI invocation: its argv, plus what the checker
needs to judge the output.  The seed drives every random choice (levels,
braid words, small-command levels and the task order; geom_verify runs a
fixed grid and has none); the program only ever sees the generated argv.
"""

from __future__ import annotations

import random

WORKLOADS = ("norm_growth", "skein_braids", "geom_verify")

# norm_growth: volume-seq at r = base - j, j drawn from [0, NORM_LEVEL_JITTER)
NORM_KNOTS = ("figure-eight", "trefoil")
NORM_LEVEL_BASES = tuple(30 * k for k in range(1, 11))
NORM_LEVEL_JITTER = 10

# skein_braids
EXACT_TASKS = (("figure-eight", (2, 3, 4)), ("trefoil", (2, 3, 4, 5)))
RMATRIX_TASK = {"knot": "figure-eight", "braid": "1 -2 1 -2", "strands": 3, "n": 12, "r": 30}
BRACKET_WORDS, BRACKET_STRANDS, BRACKET_CROSSINGS = 3, 4, 14
KNOT_WORDS, KNOT_STRANDS, KNOT_CROSSINGS, KNOT_STATE_R = 2, 3, 8, 8
RT_LEVELS = (10, 30)
TQFT_LEVELS = (20, 40)

# geom_verify: the two tau values the acceptance tests use
GEOM_TASKS = tuple([("i", r) for r in range(3, 11)] + [("0.3+1.7i", r) for r in range(3, 9)])


def norm_levels() -> list:
    """Every level the norm_growth generator can draw."""
    return sorted({b - j for b in NORM_LEVEL_BASES for j in range(NORM_LEVEL_JITTER)})


def closure_cycles(word, strands: int) -> int:
    """Number of components of the braid closure, from the word's permutation."""
    perm = list(range(strands))
    for g in word:
        i = abs(g) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen, cycles = set(), 0
    for start in range(strands):
        if start in seen:
            continue
        cycles += 1
        j = start
        while j not in seen:
            seen.add(j)
            j = perm[j]
    return cycles


def _word(rng: random.Random, strands: int, crossings: int) -> list:
    gens = [g for k in range(1, strands) for g in (k, -k)]
    return [rng.choice(gens) for _ in range(crossings)]


def _knot_word(rng: random.Random) -> list:
    # A closure with more than one cycle is a link, which the knot commands reject.
    while True:
        word = _word(rng, KNOT_STRANDS, KNOT_CROSSINGS)
        if closure_cycles(word, KNOT_STRANDS) == 1:
            return word


def _text(word) -> str:
    return " ".join(str(g) for g in word)


def _norm_growth(rng: random.Random) -> list:
    tasks = []
    for base in NORM_LEVEL_BASES:
        r = base - rng.randrange(NORM_LEVEL_JITTER)
        for knot in NORM_KNOTS:
            tasks.append({"argv": ["volume-seq", "--knot", knot, "--r-min", str(r),
                                   "--r-max", str(r)],
                          "check": {"kind": "norm_row", "knot": knot, "r": r}})
    rng.shuffle(tasks)
    return tasks


def _skein_braids(rng: random.Random) -> list:
    tasks = []
    for knot, ns in EXACT_TASKS:
        for n in ns:
            tasks.append({"argv": ["jones", "--knot", knot, "--n", str(n), "--exact"],
                          "check": {"kind": "exact_poly", "knot": knot, "n": n}})
    for _ in range(BRACKET_WORDS):
        word = _word(rng, BRACKET_STRANDS, BRACKET_CROSSINGS)
        tasks.append({"argv": ["bracket", "--braid", _text(word),
                               "--strands", str(BRACKET_STRANDS)],
                      "check": {"kind": "bracket", "word": word,
                                "strands": BRACKET_STRANDS}})
    for _ in range(KNOT_WORDS):
        word = _knot_word(rng)
        tasks.append({"argv": ["knot-state", "--braid", _text(word), "--strands",
                               str(KNOT_STRANDS), "--r", str(KNOT_STATE_R)],
                      "check": {"kind": "knot_state", "word": word,
                                "strands": KNOT_STRANDS, "r": KNOT_STATE_R}})
    t = RMATRIX_TASK
    tasks.append({"argv": ["jones", "--braid", t["braid"], "--strands", str(t["strands"]),
                           "--n", str(t["n"]), "--r", str(t["r"]), "--backend", "rmatrix"],
                  "check": {"kind": "rmatrix_value"}})
    r, framing = rng.randrange(*RT_LEVELS), rng.choice((1, -1))
    tasks.append({"argv": ["rt", "--surgery", "unknot", "--framing", str(framing),
                           "--r", str(r)],
                  "check": {"kind": "rt_unknot", "r": r}})
    r = rng.randrange(*TQFT_LEVELS)
    tasks.append({"argv": ["tqft", "--r", str(r), "--emit", "matrices"],
                  "check": {"kind": "tqft", "r": r}})
    rng.shuffle(tasks)
    return tasks


def _geom_verify(rng: random.Random) -> list:
    # A fixed grid in a fixed order, whatever the seed: the kernel cache keeps
    # the 24 most recent Gram kernels, so a seeded order moved peak_rss_mb by
    # up to 17% between seeds.
    return [{"argv": ["geom-verify", "--r", str(r), "--tau", tau],
             "check": {"kind": "geom_report", "tau": tau, "r": r}}
            for tau, r in GEOM_TASKS]


_BUILDERS = {"norm_growth": _norm_growth, "skein_braids": _skein_braids,
             "geom_verify": _geom_verify}


def make_tasks(workload: str, seed: int) -> list:
    """The workload's task list for this seed, in the order it runs."""
    rng = random.Random(f"{workload}/{seed}")
    tasks = _BUILDERS[workload](rng)
    for i, task in enumerate(tasks):
        task["id"] = f"t{i:02d}"
        if task["argv"][0] == "volume-seq":
            task["argv"] += ["--out", f"{task['id']}.csv"]
    return tasks
