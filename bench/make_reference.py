"""Regenerate bench/reference.json, the stored answers the benchmark checks against.

    python3 bench/make_reference.py

Nothing here imports skeinquant.  Every value comes from closed forms
evaluated by this file alone:

* colored Jones values of the catalog knots at t = exp(2 pi i/(r+1/2))
  from the cyclotomic sums (Habiro's form for the figure-eight, Masbaum's
  for the trefoil), in fixed-point integer arithmetic with PREC_BITS
  fractional bits, and re-run at twice that precision on a sample of
  levels to show the stored digits are settled;
* the exact colored Jones polynomials from the same sums over an integer
  Laurent ring of this file's own;
* the figure-eight reference volume 2 Cl_2(pi/3) from mpmath.

The norm-growth table covers every level the seeded generator can draw
(tasks.NORM_LEVEL_BASES minus an offset in [0, NORM_LEVEL_JITTER)).
Takes a few minutes on one core.
"""

from __future__ import annotations

import json
import os
import sys

import mpmath

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from tasks import (EXACT_TASKS, NORM_KNOTS, RMATRIX_TASK,  # noqa: E402
                   norm_levels)

PREC_BITS = 640
CHECK_BITS = 1280
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
DIGITS = 40


def _fixed_tables(r: int, bits: int):
    """2 cos(2 pi k/(r+1/2)) and exp(2 pi i k/(r+1/2)) as integers scaled by 2**bits."""
    NN = 2 * r + 1
    scale = mpmath.mpf(2) ** bits
    with mpmath.workprec(bits + 64):
        two_cos, phase = [], []
        for k in range(NN):
            theta = 4 * mpmath.pi * k / NN
            two_cos.append(int(mpmath.nint(2 * mpmath.cos(theta) * scale)))
            phase.append((int(mpmath.nint(mpmath.cos(theta) * scale)),
                          int(mpmath.nint(mpmath.sin(theta) * scale))))
    return two_cos, phase


def jones_values_fixed(knot: str, r: int, n_max: int, bits: int) -> list:
    """[(re, im)] of J(knot, n) for n = 1..n_max as integers scaled by 2**bits.

    J(n) = sum_k s_k t^(e_k) prod_{j=1..k} (t^n + t^-n - t^j - t^-j), with
    s_k = 1, e_k = 0 for the figure-eight and s_k = (-1)^k,
    e_k = k(k+3)/2 for the trefoil.
    """
    NN = 2 * r + 1
    one = 1 << bits
    two_cos, phase = _fixed_tables(r, bits)
    out = []
    for n in range(1, n_max + 1):
        cn = two_cos[n % NN]
        prod = one
        re, im = one, 0
        for k in range(1, n):
            prod = (prod * (cn - two_cos[k % NN])) >> bits
            if knot == "figure-eight":
                re += prod
            else:
                pr, pi = phase[(k * (k + 3) // 2) % NN]
                sign = -1 if k % 2 else 1
                re += sign * ((prod * pr) >> bits)
                im += sign * ((prod * pi) >> bits)
        out.append((re, im))
    return out


def norm_row(knot: str, r: int, bits: int) -> dict:
    """log of the squared state norm, the norm, and the argmax colour at level r."""
    NN = 2 * r + 1
    vals = jones_values_fixed(knot, r, r, bits)
    with mpmath.workprec(bits):
        scale = mpmath.mpf(2) ** bits
        eta = 2 * mpmath.sin(2 * mpmath.pi / NN) / mpmath.sqrt(NN)
        sin1 = mpmath.sin(2 * mpmath.pi / NN)
        total = mpmath.mpf(0)
        mods = []
        for n, (re, im) in enumerate(vals, start=1):
            jabs_sq = (mpmath.mpf(re) ** 2 + mpmath.mpf(im) ** 2) / scale ** 2
            qi = mpmath.sin(2 * mpmath.pi * n / NN) / sin1
            total += eta ** 2 * qi ** 2 * jabs_sq
            mods.append(jabs_sq)
        order = sorted(range(r), key=lambda i: mods[i], reverse=True)
        top, second = mods[order[0]], mods[order[1]]
        return {
            "log_norm_sq": mpmath.nstr(mpmath.log(total), DIGITS),
            "norm_sq": mpmath.nstr(total, DIGITS),
            # first index attaining the maximum, as a strict '>' scan gives it
            "argmax_n": min(i for i in range(r) if mods[i] == top) + 1,
            "argmax_gap": mpmath.nstr((top - second) / top, 6),
        }


# -- exact Laurent polynomials in t, as {exponent: coefficient} ----------

def _pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _padd(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def exact_jones(knot: str, n: int) -> dict:
    total: dict = {0: 1}
    prod: dict = {0: 1}
    for k in range(1, n):
        factor: dict = {}
        for e, c in ((n, 1), (-n, 1), (k, -1), (-k, -1)):
            factor[e] = factor.get(e, 0) + c
        prod = _pmul(prod, {e: c for e, c in factor.items() if c})
        if knot == "figure-eight":
            total = _padd(total, prod)
        else:
            sign = -1 if k % 2 else 1
            total = _padd(total, _pmul(prod, {k * (k + 3) // 2: sign}))
    return total


def main() -> None:
    mpmath.mp.prec = PREC_BITS
    ref: dict = {"precision_bits": PREC_BITS, "check_bits": CHECK_BITS}

    with mpmath.workprec(PREC_BITS):
        ref["figure_eight_volume"] = mpmath.nstr(2 * mpmath.clsin(2, mpmath.pi / 3), DIGITS)

    norm: dict = {}
    worst = mpmath.mpf(0)
    for knot in NORM_KNOTS:
        rows = {}
        for r in norm_levels():
            rows[str(r)] = norm_row(knot, r, PREC_BITS)
            print(f"{knot} r={r} log_norm_sq={rows[str(r)]['log_norm_sq'][:20]}", flush=True)
        # the same quantity at twice the precision on a sample of levels
        for r in norm_levels()[::9]:
            hi = norm_row(knot, r, CHECK_BITS)
            with mpmath.workprec(CHECK_BITS):
                a, b = mpmath.mpf(rows[str(r)]["log_norm_sq"]), mpmath.mpf(hi["log_norm_sq"])
                worst = max(worst, abs(a - b) / abs(b))
        norm[knot] = rows
    ref["norm_growth"] = norm
    ref["precision_check_max_rel_diff"] = mpmath.nstr(worst, 3)
    if worst > mpmath.mpf(10) ** -(DIGITS - 5):
        raise SystemExit(f"stored digits not settled: {worst}")

    ref["exact_jones"] = {
        f"{knot}:{n}": {str(e): c for e, c in sorted(exact_jones(knot, n).items())}
        for knot, ns in EXACT_TASKS for n in ns}

    knot, n, r = RMATRIX_TASK["knot"], RMATRIX_TASK["n"], RMATRIX_TASK["r"]
    re, im = jones_values_fixed(knot, r, n, PREC_BITS)[n - 1]
    with mpmath.workprec(PREC_BITS):
        scale = mpmath.mpf(2) ** PREC_BITS
        ref["rmatrix_value"] = {"knot": knot, "n": n, "r": r,
                                "re": mpmath.nstr(mpmath.mpf(re) / scale, DIGITS),
                                "im": mpmath.nstr(mpmath.mpf(im) / scale, DIGITS)}

    with open(OUT, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {OUT}; precision check max rel diff {ref['precision_check_max_rel_diff']}")


if __name__ == "__main__":
    main()
