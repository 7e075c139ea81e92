"""Numerical verification suite for the geometric side and its agreement
with the torus skein operators.

All residuals are dimensionless maxima; ``pass`` requires every entry in
``residuals`` to stay below the tolerance (holomorphy is a second-order
convergence check and is reported separately as a flag).

One report is one batched pass.  The random section and its translate are
the two columns of one stacked product with the Gram kernel, on the grid
that the aliasing bound picks from (r, tau), and the Psi Gram matrix is
read off that kernel.  The T frame matrix is no residual: it is the Phi
Gram matrix times diag(z), z = -exp(i pi/N) diag(rep_T), so its gap is at
most twice the Psi Gram gap; the skein side of intertwine_mu_plus_lambda
conjugates by rho(T).  Translations act on whole coefficient stacks (Psi's
checks on one row), each point check evaluates all of its points in one
series call, and the test vectors come from ``random.Random(7)``, real
parts first.
"""

from __future__ import annotations

import cmath
import math
import random

from ._lazy import lazy_import
from .geom import (QuantizationContext, _check_bytes, _curve_operators, _gram_bytes, _grid,
                   _pairings, _phi_rows, _q_parts, _reflected, _s_frame_plan, _series,
                   _series_plan, _spread, _translated, halfform_norm_sq, iso_from_skein,
                   iso_to_skein, modular_phase_check, psi_norm_constant)
from .tqft import curve_operator_skein

np = lazy_import("numpy")

TOL = 1e-6
HOLOMORPHY_FLOORS = 32   # residuals within this many rounding floors pass without a ratio


def _normal_vector(rng: random.Random, n: int) -> np.ndarray:
    """n complex numbers with standard normal real and imaginary parts, real part drawn first."""
    return np.array([rng.gauss(0.0, 1.0) for _ in range(2 * n)]).view(np.complex128)


def _quasi_periodicity_dev(ctx: QuantizationContext, rng: random.Random) -> float:
    """Check s(p+m, q+n) = exp(i N pi (m q - n p + m n)) s(p, q).

    This is g's relation g(z+m+n tau) = exp(-i N pi (tau n^2 + 2 n z)) g(z)
    carried through the frame.  Section values stay in the float range
    where the bare g at the shifted points does not.  Four random sections,
    each at its own (p, q) and three shifts, share one series call.
    """
    N = ctx.N
    m, n = np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1])
    draws = [(_normal_vector(rng, N), rng.random(), rng.random()) for _ in range(4)]
    alpha, p, q = map(np.array, zip(*draws))
    p, q = p[:, None], q[:, None]
    vals = _series(ctx, alpha, p + m, q + n)[range(4), range(4)]
    lhs = vals[:, 1:]
    rhs = np.exp(1j * N * math.pi * (m * q - n * p + m * n)[:, 1:]) * vals[:, :1]
    dev = np.abs(lhs - rhs) / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
    return float(np.max(dev))  # np.max keeps a NaN that max() would drop


def _holomorphy_residuals(ctx: QuantizationContext, rng: random.Random):
    """Finite-difference residual of ds/dq - tau ds/dp = i pi N z s must shrink like h^2.

    That is dg/dq = tau dg/dp for s = g exp(i pi N q z), read from section
    values, which stay in range at any b N.  A random section carries
    frequencies up to about its window's width N + 2 spread, each scaled by
    up to |tau| in q, so the steps shrink like 1/((N + 2 spread) max(1, |tau|)).
    Returns the coarse and fine residuals and the rounding floor of each,
    u M (1 + |tau|) / (h max(|dp|, |dq|, 1)) with M the sum of the term
    moduli at the centre (docs/conventions.md).
    """
    alpha = _normal_vector(rng, ctx.N)
    p, q = 0.31, 0.27
    h = np.array([0.07, 0.035]) / ((ctx.N + 2 * _spread(ctx.N, ctx.b)) * max(1.0, abs(ctx.tau)))
    zero = np.zeros_like(h)
    # rows: (p, q+h), (p, q-h), (p+h, q), (p-h, q), (p, q)
    s = _series(ctx, alpha, p + np.stack([zero, zero, h, -h, zero]),
                q + np.stack([h, -h, zero, zero, zero]))
    dq, dp = (s[0] - s[1]) / (2 * h), (s[2] - s[3]) / (2 * h)
    drift = 1j * math.pi * ctx.N * (p + ctx.tau * q) * s[4]
    scale = np.maximum(np.maximum(abs(dp), abs(dq)), 1.0)
    m, F = _q_parts(ctx, np.array([q]))
    M = float(np.abs(alpha[m % ctx.N]) @ np.abs(F[:, 0]))
    floor = 2.0 ** -53 * M * (1 + abs(ctx.tau)) / (h * scale)
    return np.abs(dq - ctx.tau * dp - drift) / scale, floor


def _check_report_bytes(ctx: QuantizationContext, include_modular: bool) -> None:
    """StateSpaceTooLarge before a report builds what would pass errors.BYTE_BUDGET.

    The S pairing is checked alone first, so that it is named where it alone
    passes.  A report keeps the Phi rows (r x N) and a dozen r x r results
    (the six curve operators, their differences and the 2-norm's copies).
    On top of those comes the largest transient: the stacked pairing columns
    C and G C, two columns each, with the Gram kernel's count, which also
    covers G and its moduli while the Psi Gram residual is read off it; the
    curve operators' stacked translate and its sums, 14 r N, and numpy's
    buffer for its broadcast phases, up to np.getbufsize() values; the
    quasi-periodicity series (_series_plan); or the S pairing's count.
    """
    N, r, n = ctx.N, ctx.r, _grid(ctx)
    s_frame = _s_frame_plan(ctx, n)[1] if include_modular else 0.0
    _check_bytes(ctx, "S-frame pairing", s_frame)
    held = 16 * (r * N + 12 * r * r)
    pairings = 32 * N * 2 + _gram_bytes(ctx, n)
    curves = 16 * (14 * r * N + min(6 * r * N, np.getbufsize()))
    series = _series_plan(ctx, 4, 16, 2.0)[1]   # 4 rows at 16 points, q spanning under 2
    _check_bytes(ctx, "verification report", held + max(pairings, curves, series, s_frame))


def verification_report(ctx: QuantizationContext, include_modular: bool = True) -> dict:
    """Residual report for one quantization context, counted first (_check_report_bytes)."""
    _check_report_bytes(ctx, include_modular)
    rng = random.Random(7)
    r, N = ctx.r, ctx.N
    c, hf = psi_norm_constant(ctx), halfform_norm_sq(ctx)
    phi = _phi_rows(ctx)
    s = _normal_vector(rng, N)[None, :]
    t = _translated(ctx, s, 2, 3)
    G, (norm_s, norm_t) = _pairings(ctx, [(s, s, hf), (t, t, hf)])
    residuals = {}

    # Psi_l = c e_l, so Psi's Gram matrix is hf c^2 G
    for scale in (c, c, hf):
        G *= scale
    G.flat[::N + 1] -= 1
    residuals["gram_psi"] = float(np.max(np.abs(G)))
    del G

    # the translations permute the entries of the stack c I as they permute those of one row
    psi = np.full(N, c, dtype=np.complex128)
    a_psi = _translated(ctx, psi, 1, 0)   # the eigenrelation's translate and ba's first step
    ab = _translated(ctx, _translated(ctx, psi, 0, 1), 1, 0)
    ba = _translated(ctx, a_psi, 0, 1)
    residuals["heisenberg_commutation"] = float(np.max(np.abs(
        ab - cmath.exp(2j * math.pi / N) * ba)))

    residuals["psi_eigenrelation"] = float(np.max(np.abs(
        a_psi - np.exp(2j * math.pi * np.arange(N) / N) * psi)))

    residuals["phi_alternating"] = float(np.max([
        np.max(np.abs(_reflected(ctx, phi) + phi)),
        np.max(np.abs(_series(ctx, phi, 0.0, 0.0)))]))

    n1 = norm_s[0, 0].real
    residuals["translation_unitarity"] = abs(norm_t[0, 0].real - n1) / n1

    residuals["quasi_periodicity"] = _quasi_periodicity_dev(ctx, rng)

    gammas = ((1, 0), (0, 1), (1, 1))
    ops = _curve_operators(ctx, gammas)
    skein = np.stack([curve_operator_skein(g, r) for g in gammas])
    residuals.update(zip(("intertwine_mu", "intertwine_lambda", "intertwine_mu_plus_lambda"),
                         np.linalg.norm(skein - ops, 2, axis=(-2, -1)).tolist()))

    v = _normal_vector(rng, r)
    back = iso_to_skein(iso_from_skein(v, ctx)).as_array()
    residuals["iso_roundtrip"] = float(np.max(np.abs(back - v)))

    if include_modular:
        residuals["modular_S_matrix"] = modular_phase_check("S", ctx).max_dev

    c, floor = _holomorphy_residuals(ctx, rng)
    c1, c2 = c
    ratio = c1 / c2 if c2 > 0 else float("inf")
    ok = bool(3.0 < ratio < 5.0 or np.all(c < HOLOMORPHY_FLOORS * floor))

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
