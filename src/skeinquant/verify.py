"""Numerical verification suite for the geometric side and its agreement
with the torus skein operators.

All residuals are dimensionless maxima; ``pass`` requires every entry in
``residuals`` to stay below the tolerance (holomorphy is a second-order
convergence check and is reported separately as a flag).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .geom import (QuantizationContext, ThetaSection, basis_phi, basis_psi,
                   curve_operator_geom, gram_matrix, holomorphic_part,
                   inner_product, intertwining_deviation, iso_from_skein,
                   iso_to_skein, modular_phase_check, parity_reflect,
                   section_eval, translate_ints)
from .tqft import TorusVector

TOL = 1e-6


def _quasi_periodicity_dev(ctx: QuantizationContext, rng) -> float:
    """Check s(p+m, q+n) = exp(i N pi (m q - n p + m n)) s(p, q).

    This is g's relation g(z+m+n tau) = exp(-i N pi (tau n^2 + 2 n z)) g(z)
    carried through the frame.  Section values stay in the float range
    where the bare g at the shifted points does not.
    """
    N = ctx.N
    devs = []
    for _ in range(4):
        rho = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        s = ThetaSection(ctx, rho)
        p, q = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
        s0 = section_eval(s, p, q)
        for (m, n) in ((1, 0), (0, 1), (1, 1)):
            lhs = section_eval(s, p + m, q + n)
            rhs = cmath.exp(1j * N * math.pi * (m * q - n * p + m * n)) * s0
            devs.append(abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
    return float(np.max(devs))  # np.max keeps a NaN that max() would drop


def _holomorphy_ratios(ctx: QuantizationContext, rng):
    """Finite-difference residual of dg/dq = tau dg/dp must shrink like h^2."""
    N = ctx.N
    rho = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    s = ThetaSection(ctx, rho)
    p, q = 0.31, 0.27

    def residual(h):
        dq = (holomorphic_part(s, p, q + h) - holomorphic_part(s, p, q - h)) / (2 * h)
        dp = (holomorphic_part(s, p + h, q) - holomorphic_part(s, p - h, q)) / (2 * h)
        return abs(dq - ctx.tau * dp) / max(abs(dp), abs(dq), 1.0)

    r1, r2 = residual(1e-2), residual(5e-3)
    return r1, r2, (r1 / r2 if r2 > 0 else float("inf"))


def verification_report(ctx: QuantizationContext, include_modular: bool = True,
                        seed: int = 7) -> dict:
    """Residual report for one quantization context."""
    rng = np.random.default_rng(seed)
    r, N = ctx.r, ctx.N
    psis = basis_psi(ctx)
    phis = basis_phi(ctx)
    residuals = {}

    gram_psi = gram_matrix(psis)
    residuals["gram_psi"] = float(np.max(np.abs(gram_psi - np.eye(N))))
    gram_phi = gram_matrix(phis)
    residuals["gram_phi"] = float(np.max(np.abs(gram_phi - np.eye(r))))

    vacuum = ThetaSection(ctx, np.eye(N, dtype=np.complex128)[0])
    frame_norm = inner_product(vacuum, vacuum, include_halfform=False).real
    target = math.sqrt(8 * math.pi ** 2 / (N * ctx.b))
    residuals["vacuum_frame_norm"] = abs(frame_norm - target) / target

    # the frame section is fixed by the meridian fraction translation;
    # every maximum goes through np.max, which keeps a NaN
    devs = []
    for p, q in rng.uniform(0, 1, size=(6, 2)):
        lhs = cmath.exp(-1j * math.pi * q) * cmath.exp(
            1j * math.pi * N * (q * (p + 1.0 / N + ctx.tau * q)))
        rhs = cmath.exp(1j * math.pi * N * q * (p + ctx.tau * q))
        devs.append(abs(lhs - rhs) / abs(rhs))
    residuals["frame_fixed_by_meridian_step"] = float(np.max(devs))

    devs = []
    for s in psis:
        ab = translate_ints(translate_ints(s, 0, 1), 1, 0)
        ba = translate_ints(translate_ints(s, 1, 0), 0, 1)
        devs.append(np.max(np.abs(ab.rho - cmath.exp(2j * math.pi / N) * ba.rho)))
    residuals["heisenberg_commutation"] = float(np.max(devs))

    devs = []
    for l, s in enumerate(psis):
        t = translate_ints(s, 1, 0)
        devs.append(np.max(np.abs(t.rho - cmath.exp(2j * math.pi * l / N) * s.rho)))
    residuals["psi_eigenrelation"] = float(np.max(devs))

    devs = []
    for s in phis:
        devs.append(np.max(np.abs(parity_reflect(s).rho + s.rho)))
        devs.append(abs(section_eval(s, 0.0, 0.0)))
    residuals["phi_alternating"] = float(np.max(devs))

    rho = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    s = ThetaSection(ctx, rho)
    t = translate_ints(s, 2, 3)
    n1 = inner_product(s, s).real
    residuals["translation_unitarity"] = abs(inner_product(t, t).real - n1) / n1

    residuals["quasi_periodicity"] = _quasi_periodicity_dev(ctx, rng)

    for gamma, namekey in (((1, 0), "mu"), ((0, 1), "lambda"), ((1, 1), "mu_plus_lambda")):
        residuals[f"intertwine_{namekey}"] = intertwining_deviation(gamma, ctx)

    mu_geom = np.diag([-2 * math.cos(2 * math.pi * l / N) for l in range(1, r + 1)])
    residuals["curve_mu_spectrum"] = float(np.max(np.abs(
        curve_operator_geom((1, 0), ctx) - mu_geom)))

    v = rng.standard_normal(r) + 1j * rng.standard_normal(r)
    vec = TorusVector(r, tuple(v))
    back = iso_to_skein(iso_from_skein(vec, ctx)).as_array()
    residuals["iso_roundtrip"] = float(np.max(np.abs(back - v)))

    if include_modular:
        rep_t = modular_phase_check("T", ctx)
        rep_s = modular_phase_check("S", ctx)
        residuals["modular_T_phases"] = rep_t.max_dev
        residuals["modular_S_matrix"] = rep_s.max_dev
        residuals["modular_T_phase_modulus"] = abs(abs(rep_t.global_phase) - 1)
        residuals["modular_S_phase_modulus"] = abs(abs(rep_s.global_phase) - 1)

    c1, c2, ratio = _holomorphy_ratios(ctx, rng)
    ok = bool(3.0 < ratio < 5.0 or (c1 < 1e-9 and c2 < 1e-9))

    report = {
        "r": r,
        "tau": {"re": ctx.tau.real, "im": ctx.tau.imag},
        "tolerance": TOL,
        "residuals": {k: float(v) for k, v in sorted(residuals.items())},
        "checks": {
            "holomorphy_second_order": ok,
            "holomorphy_residual_coarse": float(c1),
            "holomorphy_residual_fine": float(c2),
        },
    }
    report["pass"] = bool(all(v < TOL for v in residuals.values()) and ok)
    return report
