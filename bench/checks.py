"""Judging each task's output against stored references and independent oracles.

Every check states its tolerance.  Outcome classes:

* ``ok``            exit 0 and every check within tolerance
* ``wrong``         exit 0 but a check outside tolerance (or unreadable output)
* ``error_exit``    a clean nonzero exit other than 1 (the CLI's exit 2)
* ``check_failed``  exit 1: the program reports a failed self-check
* ``uncaught``      an exception escaped ``main()``; recorded as ``uncaught:<Type>``

Known defects (ROADMAP items 2 and 4) are allowed outcomes: they count as
failures in ``failed`` and ``fail_ratio``, but they do not make a run
incorrect.  Any other non-ok outcome does.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import re

import numpy as np

# tolerances, each stated where it is used
TOL_LOG_NORM = 1e-9        # |log||s||^2 - ref| / max(1, |ref|)
TOL_NORM_SQ = 1e-9         # relative
TOL_VOLUME = 1e-10         # relative, figure-eight reference volume
TOL_BRACKET = 1e-9         # |p(A) - oracle| / sum |c| |A|^e, at two generic points
TOL_STATE = 1e-9           # knot-state coefficients vs exact backend, / max(1, |c|)
TOL_PARSEVAL = 1e-9        # sum |c_n|^2 vs norm_sq, relative
TOL_RMATRIX = 1e-6         # relative, J(figure-eight, 12) at r = 30
TOL_RT = 1e-10             # relative, unknot +-1 surgery equals the empty surgery
TOL_TQFT = 1e-9            # unitarity and (ST)^3 = c S^2, absolute
TOL_GEOM = 1e-6            # every residual of a geom-verify report
ARGMAX_MIN_GAP = 1e-9      # argmax is only checked where the top two |J| differ by more

KNOWN_DEFECTS = (
    # catalog sums run in double precision below r = 150 (ROADMAP item 2)
    {"kind": "norm_row", "r_below": 150, "allowed": "wrong", "roadmap": 2},
    # OverflowError from the holomorphic-factor checks (ROADMAP item 4)
    {"kind": "geom_report", "tau": "i", "r": (9, 10),
     "allowed": "uncaught:OverflowError", "roadmap": 4},
    {"kind": "geom_report", "tau": "0.3+1.7i", "r": (5, 6, 7, 8),
     "allowed": "uncaught:OverflowError", "roadmap": 4},
)


def known_defect(check: dict, outcome: str) -> bool:
    for d in KNOWN_DEFECTS:
        if d["kind"] != check["kind"] or d["allowed"] != outcome:
            continue
        if "r_below" in d and check["r"] < d["r_below"]:
            return True
        if "tau" in d and check["tau"] == d["tau"] and check["r"] in d["r"]:
            return True
    return False


# -- independent oracles ----------------------------------------------------

_TERM = re.compile(r"^(\d*)([A-Za-z]?)(?:\^(-?\d+))?$")


def parse_poly(text: str, var: str) -> dict:
    """{exponent: coefficient} from LaurentPoly.format output."""
    text = text.strip()
    if text == "0":
        return {}
    out: dict = {}
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    for tok in re.split(r" ([+-]) ", text):
        if tok in ("+", "-"):
            sign = 1 if tok == "+" else -1
            continue
        m = _TERM.match(tok)
        if not m or (m.group(2) and m.group(2) != var) or not (m.group(1) or m.group(2)):
            raise ValueError(f"cannot parse term {tok!r}")
        coeff = int(m.group(1)) if m.group(1) else 1
        exp = (int(m.group(3)) if m.group(3) else 1) if m.group(2) else 0
        out[exp] = out.get(exp, 0) + sign * coeff
    return {e: c for e, c in out.items() if c}


def eval_poly(poly: dict, x: complex) -> complex:
    return sum(c * x ** e for e, c in poly.items())


def bracket_oracle(word, strands: int, A: complex) -> complex:
    """Kauffman bracket of the braid closure at A, from a Temperley-Lieb
    representation on (C^2)^strands closed by a weighted trace.

    Each crossing resolves as A^-1 + A e_i (positive) or A + A^-1 e_i
    (negative); e_i acts on positions i, i+1 by a rank-one U with
    U^2 = delta U, delta = -A^2 - A^-2, and the weight diag(-A^2, -A^-2)
    makes every closed loop contribute delta.
    """
    a, b = -A ** 2, -A ** -2
    U = np.zeros((4, 4), dtype=complex)
    U[1, 1], U[1, 2], U[2, 1], U[2, 2] = a, 1, 1, b
    eye4 = np.eye(4)
    dim = 2 ** strands
    mat = np.eye(dim, dtype=complex)
    for g in word:
        i = abs(g) - 1
        block = (A ** -1 * eye4 + A * U) if g > 0 else (A * eye4 + A ** -1 * U)
        full = np.kron(np.kron(np.eye(2 ** i), block), np.eye(2 ** (strands - 2 - i)))
        mat = full @ mat
    weight = np.array([1.0 + 0j])
    for _ in range(strands):
        weight = np.kron(weight, np.array([-A ** 2, -A ** -2]))
    return complex(np.sum(weight * np.diag(mat)))


def _eta(r: int) -> float:
    N = 2 * r + 1
    return 2 * math.sin(2 * math.pi / N) / math.sqrt(N)


def _qint(n: int, r: int) -> float:
    N = 2 * r + 1
    return math.sin(2 * math.pi * n / N) / math.sin(2 * math.pi / N)


def prepare(tasks: list) -> dict:
    """Oracle values the checks need that depend on the seeded inputs.

    knot-state tasks are compared at colours n <= 3 against the exact
    backend (an independent engine from the R-matrix one ``auto`` picks
    there); its polynomials are evaluated here, outside any timed pass.
    """
    oracles = {}
    for task in tasks:
        chk = task["check"]
        if chk["kind"] != "knot_state":
            continue
        from skeinquant.jones import KnotPresentation, colored_jones_exact
        K = KnotPresentation.from_braid(chk["word"], chk["strands"])
        t = cmath.exp(4j * math.pi / (2 * chk["r"] + 1))
        vals = [1 + 0j]
        for n in (2, 3):
            poly = parse_poly(colored_jones_exact(K, n).format("t"), "t")
            vals.append(eval_poly(poly, t))
        oracles[task["id"]] = vals
    return oracles


# -- per-kind checks: each returns a list of (name, error, tolerance) --------

def _result(out: dict) -> dict:
    return json.loads(out["stdout"])["result"]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b else abs(a)


def _check_norm_row(chk, out, ref, oracle):
    rows = list(csv.DictReader(io.StringIO(out["file"])))
    if len(rows) != 1 or int(rows[0]["r"]) != chk["r"]:
        raise ValueError("expected exactly one row for the requested level")
    row = rows[0]
    want = ref["norm_growth"][chk["knot"]][str(chk["r"])]
    log_ref = float(want["log_norm_sq"])
    log_got = float(row["v_r"]) * chk["r"] / math.pi
    res = [("log_norm_sq", abs(log_got - log_ref) / max(1.0, abs(log_ref)), TOL_LOG_NORM),
           ("norm_sq", _rel(float(row["norm_sq"]), float(want["norm_sq"])), TOL_NORM_SQ)]
    if float(want["argmax_gap"]) > ARGMAX_MIN_GAP:
        res.append(("argmax_n", float(int(row["argmax_n"]) != want["argmax_n"]), 0.5))
    vol = float(ref["figure_eight_volume"]) if chk["knot"] == "figure-eight" else 0.0
    res.append(("ref_vol", _rel(float(row["ref_vol"]), vol), TOL_VOLUME))
    return res


def _check_exact_poly(chk, out, ref, oracle):
    got = parse_poly(_result(out)["polynomial"], "t")
    want = {int(e): c for e, c in ref["exact_jones"][f"{chk['knot']}:{chk['n']}"].items()}
    return [("polynomial_equal", float(got != want), 0.5)]


def _check_bracket(chk, out, ref, oracle):
    res = _result(out)
    poly = parse_poly(res["bracket"], "A")
    worst = 0.0
    for A in (cmath.exp(0.37j), 0.9 * cmath.exp(1.1j)):
        scale = max(1.0, sum(abs(c) * abs(A) ** e for e, c in poly.items()))
        diff = abs(eval_poly(poly, A) - bracket_oracle(chk["word"], chk["strands"], A))
        worst = max(worst, diff / scale)
    return [("bracket_vs_tl_rep", worst, TOL_BRACKET),
            ("crossings", float(res["crossings"] != len(chk["word"])), 0.5)]


def _check_knot_state(chk, out, ref, oracle):
    res = _result(out)
    r = chk["r"]
    coeffs = [complex(c["re"], c["im"]) for c in res["coeffs"]]
    if len(coeffs) != r:
        raise ValueError(f"expected {r} coefficients")
    worst = 0.0
    for n, jval in enumerate(oracle, start=1):
        want = _eta(r) * (-1) ** (n - 1) * _qint(n, r) * jval
        worst = max(worst, abs(coeffs[n - 1] - want) / max(1.0, abs(want)))
    parseval = _rel(sum(abs(c) ** 2 for c in coeffs), res["norm_sq"])
    return [("exact_vs_rmatrix_n_le_3", worst, TOL_STATE),
            ("parseval", parseval, TOL_PARSEVAL),
            ("norm_vs_norm_sq", _rel(res["norm"] ** 2, res["norm_sq"]), TOL_PARSEVAL)]


def _check_rmatrix_value(chk, out, ref, oracle):
    res = _result(out)
    want = complex(float(ref["rmatrix_value"]["re"]), float(ref["rmatrix_value"]["im"]))
    return [("value", abs(complex(res["re"], res["im"]) - want) / abs(want), TOL_RMATRIX)]


def _check_rt_unknot(chk, out, ref, oracle):
    v = _result(out)["value"]
    eta = _eta(chk["r"])
    return [("equals_empty_surgery", abs(complex(v["re"], v["im"]) - eta) / eta, TOL_RT)]


def _check_tqft(chk, out, ref, oracle):
    res = _result(out)
    r = chk["r"]

    def mat(key):
        m = np.array(res[key], dtype=float)
        if m.shape != (r, r, 2):
            raise ValueError(f"{key} has shape {m.shape}")
        return m[..., 0] + 1j * m[..., 1]

    S, T = mat("rep_S"), mat("rep_T")
    eye = np.eye(r)
    unitary = max(np.max(np.abs(S @ S.conj().T - eye)), np.max(np.abs(T @ T.conj().T - eye)))
    diag = np.max(np.abs(T - np.diag(np.diag(T))))
    lhs, rhs = np.linalg.matrix_power(S @ T, 3), S @ S
    c = np.vdot(rhs, lhs) / np.vdot(rhs, rhs)
    projective = max(np.max(np.abs(lhs - c * rhs)), abs(abs(c) - 1))
    return [("unitary", float(unitary), TOL_TQFT), ("T_diagonal", float(diag), TOL_TQFT),
            ("ST3_eq_cS2", float(projective), TOL_TQFT)]


def _check_geom_report(chk, out, ref, oracle):
    rep = json.loads(out["stdout"])["result"]
    tau = complex(chk["tau"].replace("i", "j"))
    echo = float(rep["r"] != chk["r"] or abs(complex(rep["tau"]["re"], rep["tau"]["im"]) - tau) > 1e-15)
    worst = max(rep["residuals"].values())
    return [("max_residual", float(worst), TOL_GEOM),
            ("holomorphy_second_order", float(not rep["checks"]["holomorphy_second_order"]), 0.5),
            ("echo", echo, 0.5)]


_CHECKS = {
    "norm_row": _check_norm_row, "exact_poly": _check_exact_poly,
    "bracket": _check_bracket, "knot_state": _check_knot_state,
    "rmatrix_value": _check_rmatrix_value, "rt_unknot": _check_rt_unknot,
    "tqft": _check_tqft, "geom_report": _check_geom_report,
}


def judge(task: dict, out: dict, ref: dict, oracle) -> dict:
    """Outcome class of one task run, with each check's error and tolerance."""
    if out["exc"] is not None:
        return {"outcome": f"uncaught:{out['exc']}", "checks": []}
    if out["rc"] == 1:
        return {"outcome": "check_failed", "checks": []}
    if out["rc"] != 0:
        return {"outcome": "error_exit", "checks": []}
    try:
        results = _CHECKS[task["check"]["kind"]](task["check"], out, ref, oracle)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return {"outcome": "wrong", "checks": [], "error": f"{type(exc).__name__}: {exc}"}
    bad = [name for name, err, tol in results if not err <= tol]
    return {"outcome": "wrong" if bad else "ok",
            "checks": [{"name": n, "err": e, "tol": t} for n, e, t in results]}


def outcome_class(outcome: str) -> str:
    return outcome.split(":", 1)[0]
