"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.  Criterion 9 is expected to fail on one clause: the
measured growth sequence for the figure-eight knot approaches its limit
from above (decreasing), not from below; see the analysis in the test and
in /root/notes/decisions.md.
"""

import math

import numpy as np
import pytest

from skeinquant.geom import (QuantizationContext, basis_phi, gram_matrix, halfform_norm_sq,
                             inner_product, intertwining_deviation,
                             modular_phase_check, translate_ints, ThetaSection,
                             basis_psi)
from skeinquant.jones import (KnotPresentation, colored_jones_catalog,
                              colored_jones_exact, colored_jones_rmatrix,
                              catalog_jones_values)
from skeinquant.knotstate import (l2_norm_formula, l2_norm_quadrature,
                                  reference_volume, volume_sequence)
from skeinquant.roots import RootContext
from skeinquant.tqft import (curve_operator_skein, rep_S, rep_T, rt_invariant)
from skeinquant.geom import curve_operator_geom

UNKNOT = KnotPresentation.from_catalog("unknot")
TREFOIL = KnotPresentation.from_catalog("trefoil")
FIG8 = KnotPresentation.from_catalog("figure-eight")
CATALOG = (UNKNOT, TREFOIL, FIG8)


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_curve_operator_spectra():
    worst = 0.0
    for r in range(3, 11):
        N = 2 * r + 1
        expect = sorted(-2 * math.cos(2 * (n + 1) * math.pi / N) for n in range(r))
        skein = np.sort(np.linalg.eigvalsh(curve_operator_skein((1, 0), r)))
        geom = np.sort(np.linalg.eigvalsh(curve_operator_geom((1, 0), QuantizationContext(r, 1j))))
        worst = max(worst, float(np.max(np.abs(skein - expect))),
                    float(np.max(np.abs(geom - expect))))
    ok = worst < 1e-10
    assert report(1, ok, f"meridian spectra match -2cos(2(n+1)pi/(2r+1)), r=3..10; max dev {worst:.2e}")


def test_criterion_02_intertwining():
    worst = 0.0
    for r in range(3, 9):
        for tau in (1j, 0.3 + 1.7j):
            ctx = QuantizationContext(r, tau)
            for gamma in ((1, 0), (0, 1), (1, 1)):
                worst = max(worst, intertwining_deviation(gamma, ctx))
    ok = worst < 1e-8
    assert report(2, ok, f"||iso . skein(curve) - geom(curve) . iso|| over r=3..8, "
                         f"two tau values, three classes; max {worst:.2e}")


def test_criterion_03_theta_orthonormality():
    worst_gram = 0.0
    worst_norm = 0.0
    for r in range(3, 7):
        ctx = QuantizationContext(r, 1j)
        G = gram_matrix(basis_phi(ctx))
        worst_gram = max(worst_gram, float(np.max(np.abs(G - np.eye(r)))))
        vac = ThetaSection(ctx, np.eye(ctx.N, dtype=complex)[0])
        val = inner_product(vac, vac).real / halfform_norm_sq(ctx)
        target = math.sqrt(8 * math.pi ** 2 / (ctx.N * ctx.b))
        worst_norm = max(worst_norm, abs(val - target) / target)
    ok = worst_gram < 1e-6 and worst_norm < 1e-8
    assert report(3, ok, f"Gram identity dev {worst_gram:.2e}; "
                         f"vacuum frame norm dev {worst_norm:.2e}")


def test_criterion_04_heisenberg_identities():
    worst = 0.0
    for r in range(3, 9):
        ctx = QuantizationContext(r, 1j)
        N = ctx.N
        w = np.exp(2j * math.pi / N)
        for s in basis_psi(ctx):
            ab = translate_ints(translate_ints(s, 0, 1), 1, 0)
            ba = translate_ints(translate_ints(s, 1, 0), 0, 1)
            worst = max(worst, float(np.max(np.abs(ab.alpha - w * ba.alpha))))
        # the frame factor is fixed by the meridian fraction step
        for (p, q) in ((0.2, 0.7), (0.9, 0.3)):
            frame = np.exp(1j * math.pi * N * q * (p + ctx.tau * q))
            stepped = np.exp(-1j * math.pi * q) * np.exp(
                1j * math.pi * N * q * (p + 1.0 / N + ctx.tau * q))
            worst = max(worst, abs(frame - stepped) / abs(frame))
    ok = worst < 1e-10
    assert report(4, ok, f"translation identities on all basis sections, r=3..8; max {worst:.2e}")


def test_criterion_05_modular_phases():
    worst_t = 0.0
    worst_s = 0.0
    for r in range(3, 7):
        ctx = QuantizationContext(r, 1j)
        rep_t = modular_phase_check("T", ctx)
        rep_s = modular_phase_check("S", ctx)
        worst_t = max(worst_t, rep_t.max_dev, abs(abs(rep_t.global_phase) - 1))
        worst_s = max(worst_s, rep_s.max_dev, abs(abs(rep_s.global_phase) - 1))
    ok = worst_t < 1e-6 and worst_s < 1e-6
    assert report(5, ok, f"frame changes reproduce the twist phases (dev {worst_t:.2e}) "
                         f"and the S-matrix (dev {worst_s:.2e}), up to one global phase")


def test_criterion_06_projective_relations():
    worst = 0.0
    for r in range(3, 17):
        S, T = rep_S(r), rep_T(r)
        ST3 = np.linalg.matrix_power(S @ T, 3)
        S2 = S @ S
        phase = np.trace(S2.conj().T @ ST3) / r
        phase /= abs(phase)
        worst = max(worst, float(np.max(np.abs(ST3 - phase * S2))))
        S4 = S2 @ S2
        p4 = np.trace(S4) / r
        p4 /= abs(p4)
        worst = max(worst, float(np.max(np.abs(S4 - p4 * np.eye(r)))))
    ok = worst < 1e-10
    assert report(6, ok, f"(ST)^3 = S^2 and S^4 = 1 up to global phase, r=3..16; max dev {worst:.2e}")


def test_criterion_07_backend_cross_oracle():
    worst = 0.0
    for r in range(3, 9):
        ctx = RootContext(r)
        for K in (TREFOIL, FIG8):
            for n in (1, 2, 3):
                exact = colored_jones_exact(K, n).eval_at(ctx.t_value)
                rmat = colored_jones_rmatrix(K, n, ctx)
                cat = colored_jones_catalog(K.name, n, ctx)
                worst = max(worst, abs(exact - rmat), abs(exact - cat), abs(rmat - cat))
    ok = worst < 1e-9
    assert report(7, ok, f"exact/rmatrix/catalog agree pairwise, n<=3, r=3..8; max dev {worst:.2e}")


def test_criterion_08_rt_sanity():
    worst_s3 = 0.0
    worst_s2s1 = 0.0
    for r in range(3, 9):
        empty = rt_invariant(None, 0, r)
        plus = rt_invariant(UNKNOT, 1, r)
        minus = rt_invariant(UNKNOT, -1, r)
        worst_s3 = max(worst_s3, abs(plus - empty), abs(minus - empty))
        worst_s2s1 = max(worst_s2s1, abs(rt_invariant(UNKNOT, 0, r) - 1))
    ok = worst_s3 < 1e-9 and worst_s2s1 < 1e-9
    assert report(8, ok, f"three-sphere presented three ways (dev {worst_s3:.2e}); "
                         f"product manifold = 1 (dev {worst_s2s1:.2e})")


def test_criterion_09_volume_trend():
    """Growth-rate bands for the catalog knots at r in {50, 100, 200, 500}.

    The stated criterion requires the figure-eight sequence to be
    *increasing*.  Measured fact: the sequence approaches the reference
    volume strictly from above -- v_r = vol + (c1 log r + c0)/r with
    c1 > 0 -- so it is strictly decreasing while the gap shrinks.  The
    band and gap clauses hold comfortably; the direction clause cannot.
    The assertion below keeps the criterion as stated and therefore
    fails; the companion checks document what is actually true.
    """
    grid = [50, 100, 200, 500]
    rows8 = volume_sequence(FIG8, grid)
    rows3 = volume_sequence(TREFOIL, grid)
    ref = reference_volume("figure-eight")

    gaps = [abs(row.v_r - ref) for row in rows8]
    band_ok = abs(rows8[-1].v_r - 2.029883) < 0.35
    gaps_ok = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    incr_ok = all(rows8[i + 1].v_r > rows8[i].v_r for i in range(len(rows8) - 1))
    tre_ok = rows3[-1].v_r < 0.25 and all(
        rows3[i + 1].v_r < rows3[i].v_r for i in range(len(rows3) - 1))

    detail = (f"fig8 v_r={[round(row.v_r, 5) for row in rows8]} (ref {ref:.6f}); "
              f"band {band_ok}, gaps shrink {gaps_ok}, increasing {incr_ok}; "
              f"trefoil v_500={rows3[-1].v_r:.4f} decreasing {tre_ok}")
    ok = band_ok and gaps_ok and incr_ok and tre_ok
    report(9, ok, detail)
    assert band_ok and gaps_ok and tre_ok
    assert incr_ok, (
        "criterion as stated requires an increasing figure-eight sequence; "
        "the measured sequence decreases toward the reference volume from "
        "above (gap per level: "
        + ", ".join(f"r={row.r}: {abs(row.v_r - ref):.5f}" for row in rows8)
        + "); see decisions ledger")


def test_criterion_10_argmax_observation():
    ok = True
    detail = []
    for r in (50, 100):
        vals = catalog_jones_values("figure-eight", r, r)
        mags = [abs(complex(v)) for v in vals]
        argmax = max(range(1, r + 1), key=lambda n: mags[n - 1])
        detail.append(f"r={r}: argmax={argmax}")
        ok = ok and argmax == r
    assert report(10, ok, "largest |J(4_1, n)| sits at n = r; " + ", ".join(detail))


def test_criterion_11_parseval():
    worst = 0.0
    for K in CATALOG:
        for r in range(3, 7):
            f = l2_norm_formula(K, r).norm
            q = l2_norm_quadrature(K, r)
            worst = max(worst, abs(f - q) / f)
    ok = worst < 1e-6
    assert report(11, ok, f"formula norm vs quadrature norm of the mapped section, "
                          f"r=3..6, catalog knots; max rel dev {worst:.2e}")
