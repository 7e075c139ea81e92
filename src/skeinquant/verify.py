"""Numerical verification suite for the geometric side and its agreement
with the torus skein operators.

All residuals are dimensionless maxima; ``pass`` requires every entry in
``residuals`` to stay below the tolerance (holomorphy is a second-order
convergence check and is reported separately as a flag).

One report is one batched pass.  Every pairing that goes through the Gram
kernel (the Psi and Phi Gram matrices, the vacuum, the random section and
its translate, and the twist-frame basis of the T check) is a block of one
stacked refinement, so each grid's kernel is built once per report while
every block keeps its own stopping rule.  Translations and the
alternation checks act on whole coefficient stacks, each point check
evaluates its section at all of its points in one series call, and the
test vectors come from ``random.Random(seed)``.
"""

from __future__ import annotations

import cmath
import math
import random

from ._lazy import lazy_import
from .geom import (QuantizationContext, ThetaSection, _frame_report, _pairings,
                   _phi_rows, _psi_diagonal, _reflected, _series, _translated,
                   _twist_frame_rows, curve_operator_geom, eval_grid, halfform_norm_sq,
                   iso_from_skein, iso_to_skein, modular_phase_check)
from .tqft import TorusVector, curve_operator_skein

np = lazy_import("numpy")

TOL = 1e-6


def _normal_vector(rng: random.Random, n: int) -> np.ndarray:
    """n complex numbers with standard normal real and imaginary parts."""
    return np.array([complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(n)])


def _quasi_periodicity_dev(ctx: QuantizationContext, rng: random.Random) -> float:
    """Check s(p+m, q+n) = exp(i N pi (m q - n p + m n)) s(p, q).

    This is g's relation g(z+m+n tau) = exp(-i N pi (tau n^2 + 2 n z)) g(z)
    carried through the frame.  Section values stay in the float range
    where the bare g at the shifted points does not.
    """
    N = ctx.N
    m, n = np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1])
    devs = []
    for _ in range(4):
        s = ThetaSection(ctx, _normal_vector(rng, N))
        p, q = rng.random(), rng.random()
        vals = eval_grid(s, p + m, q + n)
        lhs = vals[1:]
        rhs = np.exp(1j * N * math.pi * (m * q - n * p + m * n)[1:]) * vals[0]
        devs.append(np.abs(lhs - rhs) / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0))
    return float(np.max(devs))  # np.max keeps a NaN that max() would drop


def _holomorphy_ratios(ctx: QuantizationContext, rng: random.Random):
    """Finite-difference residual of dg/dq = tau dg/dp must shrink like h^2."""
    rho = _normal_vector(rng, ctx.N)
    p, q = 0.31, 0.27
    h = np.array([1e-2, 5e-3])
    zero = np.zeros_like(h)
    # rows: (p, q+h), (p, q-h), (p+h, q), (p-h, q)
    g = _series(ctx, rho, p + np.stack([zero, zero, h, -h]),
                q + np.stack([h, -h, zero, zero]), frame=False)
    dq, dp = (g[0] - g[1]) / (2 * h), (g[2] - g[3]) / (2 * h)
    r1, r2 = np.abs(dq - ctx.tau * dp) / np.maximum(np.maximum(np.abs(dp), np.abs(dq)), 1.0)
    return r1, r2, (r1 / r2 if r2 > 0 else float("inf"))


def verification_report(ctx: QuantizationContext, include_modular: bool = True,
                        seed: int = 7) -> dict:
    """Residual report for one quantization context."""
    rng = random.Random(seed)
    r, N = ctx.r, ctx.N
    psi = np.diag(_psi_diagonal(ctx))     # Psi_0 .. Psi_{N-1} as coefficient rows
    phi = _phi_rows(ctx)
    vacuum = np.eye(1, N, dtype=np.complex128)
    s = _normal_vector(rng, N)[None, :]
    t = _translated(ctx, s, 2, 3)
    hf = halfform_norm_sq(ctx)
    blocks = [(psi, psi, hf), (phi, phi, hf), (vacuum, vacuum, 1.0), (s, s, hf), (t, t, hf)]
    if include_modular:
        blocks.append((phi, _twist_frame_rows(ctx), hf))
    gram_psi, gram_phi, frame_norm, norm_s, norm_t, *twist = _pairings(ctx, blocks)
    residuals = {}

    residuals["gram_psi"] = float(np.max(np.abs(gram_psi - np.eye(N))))
    residuals["gram_phi"] = float(np.max(np.abs(gram_phi - np.eye(r))))

    target = math.sqrt(8 * math.pi ** 2 / (N * ctx.b))
    residuals["vacuum_frame_norm"] = abs(frame_norm[0, 0].real - target) / target

    # the frame section is fixed by the meridian fraction translation;
    # every maximum goes through np.max, which keeps a NaN
    devs = []
    for _ in range(6):
        p, q = rng.random(), rng.random()
        lhs = cmath.exp(-1j * math.pi * q) * cmath.exp(
            1j * math.pi * N * (q * (p + 1.0 / N + ctx.tau * q)))
        rhs = cmath.exp(1j * math.pi * N * q * (p + ctx.tau * q))
        devs.append(abs(lhs - rhs) / abs(rhs))
    residuals["frame_fixed_by_meridian_step"] = float(np.max(devs))

    ab = _translated(ctx, _translated(ctx, psi, 0, 1), 1, 0)
    ba = _translated(ctx, _translated(ctx, psi, 1, 0), 0, 1)
    residuals["heisenberg_commutation"] = float(np.max(np.abs(
        ab - cmath.exp(2j * math.pi / N) * ba)))

    eigen = np.exp(2j * math.pi * np.arange(N) / N)[:, None]
    residuals["psi_eigenrelation"] = float(np.max(np.abs(
        _translated(ctx, psi, 1, 0) - eigen * psi)))

    residuals["phi_alternating"] = float(np.max([
        np.max(np.abs(_reflected(ctx, phi) + phi)),
        np.max(np.abs(_series(ctx, phi, 0.0, 0.0, frame=True)))]))

    n1 = norm_s[0, 0].real
    residuals["translation_unitarity"] = abs(norm_t[0, 0].real - n1) / n1

    residuals["quasi_periodicity"] = _quasi_periodicity_dev(ctx, rng)

    ops = {}
    for gamma, name in (((1, 0), "mu"), ((0, 1), "lambda"), ((1, 1), "mu_plus_lambda")):
        ops[name] = curve_operator_geom(gamma, ctx)
        residuals[f"intertwine_{name}"] = float(np.linalg.norm(
            curve_operator_skein(gamma, r) - ops[name], 2))

    mu_geom = np.diag([-2 * math.cos(2 * math.pi * l / N) for l in range(1, r + 1)])
    residuals["curve_mu_spectrum"] = float(np.max(np.abs(ops["mu"] - mu_geom)))

    v = _normal_vector(rng, r)
    vec = TorusVector(r, tuple(v))
    back = iso_to_skein(iso_from_skein(vec, ctx)).as_array()
    residuals["iso_roundtrip"] = float(np.max(np.abs(back - v)))

    if include_modular:
        rep_t = _frame_report("T", twist[0], ctx)
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
