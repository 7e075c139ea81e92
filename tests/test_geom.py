import cmath
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from oracles import curve_operator_by_sections, termwise_series
from skeinquant import geom
from skeinquant.errors import (DimensionMismatch, NotLatticeFraction, NotPrimitive,
                               PrecisionLoss, QuadratureNotConverged)
from skeinquant.geom import (QuadratureConfig, QuantizationContext,
                             ThetaSection, _gram_kernel, _q_parts, _s_frame_pairing,
                             _series, basis_phi, basis_psi, curve_operator_geom,
                             eval_grid, gram_matrix, halfform_norm_sq, holomorphic_part,
                             inner_product, intertwining_deviation, iso_from_skein,
                             iso_to_skein, lattice_character, modular_phase_check,
                             parity_reflect, phi_coefficients, psi_coefficients,
                             section_eval, translate, translate_ints)
from skeinquant.tqft import TorusVector, curve_operator_skein, rep_S, rep_T

CTX = QuantizationContext(3, 1j)
CTX_SKEW = QuantizationContext(3, 0.3 + 1.7j)


def random_section(ctx, seed=0):
    rng = np.random.default_rng(seed)
    rho = rng.standard_normal(ctx.N) + 1j * rng.standard_normal(ctx.N)
    return ThetaSection(ctx, rho)


def test_context_validation():
    with pytest.raises(ValueError):
        QuantizationContext(2, 1j)
    with pytest.raises(ValueError):
        QuantizationContext(3, 1.0 - 0.5j)
    assert CTX.N == 7


def test_dimension_counts():
    assert len(basis_psi(CTX)) == 2 * CTX.r + 1
    assert len(basis_phi(CTX)) == CTX.r
    # linear independence through the exact coefficient expansion
    mat = np.stack([psi_coefficients(s) for s in basis_psi(CTX)])
    assert np.linalg.matrix_rank(mat) == CTX.N


# -- series evaluation -------------------------------------------------------

def test_vacuum_series_value():
    s0 = basis_psi(CTX)[0]
    scale = s0.rho[0]
    val = holomorphic_part(s0, 0.0, 0.0) / scale
    assert val.real == pytest.approx(1 + 2 * math.exp(-7 * math.pi), rel=1e-12)
    assert abs(val.imag) < 1e-15


def test_vacuum_meridian_periodicity():
    s0 = basis_psi(CTX)[0]
    for (p, q) in ((0.1, 0.2), (0.7, 0.9)):
        a = holomorphic_part(s0, p, q)
        b = holomorphic_part(s0, p + 1.0 / CTX.N, q)
        assert abs(a - b) < 1e-12 * abs(a)


def test_full_period_in_p():
    s = random_section(CTX, 1)
    for (p, q) in ((0.13, 0.41), (0.62, 0.28)):
        a = holomorphic_part(s, p, q)
        b = holomorphic_part(s, p + 1.0, q)
        assert abs(a - b) < 1e-10 * max(1.0, abs(a))


@pytest.mark.parametrize("ctx", (CTX, CTX_SKEW))
@pytest.mark.parametrize("mn", ((1, 0), (0, 1), (1, 1)))
def test_quasi_periodicity(ctx, mn):
    s = random_section(ctx, 2)
    m, n = mn
    N, tau = ctx.N, ctx.tau
    for (p, q) in ((0.21, 0.33), (0.84, 0.07)):
        z = p + tau * q
        lhs = holomorphic_part(s, p + m, q + n)
        rhs = cmath.exp(-1j * N * math.pi * (tau * n * n + 2 * n * z)) * holomorphic_part(s, p, q)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)


def test_holomorphy_finite_difference_order():
    s = random_section(CTX, 3)
    p, q = 0.37, 0.22

    def residual(h):
        dq = (holomorphic_part(s, p, q + h) - holomorphic_part(s, p, q - h)) / (2 * h)
        dp = (holomorphic_part(s, p + h, q) - holomorphic_part(s, p - h, q)) / (2 * h)
        return abs(dq - CTX.tau * dp)

    r1, r2 = residual(2e-2), residual(1e-2)
    assert 3.0 < r1 / r2 < 5.0  # second-order convergence


# -- translations -------------------------------------------------------------

def test_translate_lattice_fraction_guard():
    s = random_section(CTX, 4)
    with pytest.raises(NotLatticeFraction):
        translate(s, (Fraction(1, 2), 0))
    out = translate(s, (Fraction(1, CTX.N), Fraction(2, CTX.N)))
    assert np.allclose(out.rho, translate_ints(s, 1, 2).rho)


def test_translate_rejects_floats():
    s = random_section(CTX, 4)
    for x in ((1.0 / CTX.N, 0), (0, 2.0), (np.float64(0.0), 0)):
        with pytest.raises(NotLatticeFraction, match="int or a Fraction"):
            translate(s, x)


def test_translate_matches_pointwise_action():
    # (T_x s)(y) = exp(i N pi (x_q p - x_p q)) s(y + x)
    s = random_section(CTX, 5)
    N = CTX.N
    for (j, k) in ((1, 0), (0, 1), (2, 3)):
        t = translate_ints(s, j, k)
        for (p, q) in ((0.15, 0.55), (0.4, 0.9)):
            lhs = section_eval(t, p, q)
            phase = cmath.exp(1j * math.pi * N * (k / N * p - j / N * q))
            rhs = phase * section_eval(s, p + j / N, q + k / N)
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_frame_section_fixed_by_meridian_fraction():
    # the pure frame factor is invariant under the meridian fraction step
    N, tau = CTX.N, CTX.tau
    for (p, q) in ((0.3, 0.6), (0.8, 0.1)):
        frame = cmath.exp(1j * math.pi * N * q * (p + tau * q))
        stepped = cmath.exp(-1j * math.pi * q) * cmath.exp(
            1j * math.pi * N * q * (p + 1.0 / N + tau * q))
        assert abs(frame - stepped) < 1e-14 * abs(frame)


def test_heisenberg_commutation_operator_identity():
    for ctx in (CTX, CTX_SKEW):
        w = cmath.exp(2j * math.pi / ctx.N)
        for s in basis_psi(ctx):
            ab = translate_ints(translate_ints(s, 0, 1), 1, 0)
            ba = translate_ints(translate_ints(s, 1, 0), 0, 1)
            assert np.max(np.abs(ab.rho - w * ba.rho)) < 1e-10


def test_full_lattice_translation_character():
    # one full step along mu or lambda fixes invariant sections; the
    # diagonal step picks up the character sign
    s = random_section(CTX, 6)
    for (j, k, sign) in ((CTX.N, 0, 1), (0, CTX.N, 1), (CTX.N, CTX.N, -1)):
        t = translate_ints(s, j, k)
        assert np.max(np.abs(t.rho - sign * s.rho)) < 1e-9 * float(np.max(np.abs(s.rho)))
    assert lattice_character(1, 1) == -1
    assert lattice_character(1, 0) == lattice_character(0, 1) == 1


def test_translation_unitarity():
    s = random_section(CTX, 7)
    base = inner_product(s, s).real
    for (j, k) in ((1, 0), (0, 2), (3, 1)):
        t = translate_ints(s, j, k)
        assert inner_product(t, t).real == pytest.approx(base, rel=1e-8)


# -- bases ---------------------------------------------------------------------

def test_psi_eigenrelations():
    for ctx in (CTX, CTX_SKEW):
        psis = basis_psi(ctx)
        for l, s in enumerate(psis):
            t = translate_ints(s, 1, 0)
            ev = cmath.exp(2j * math.pi * l / ctx.N)
            assert np.max(np.abs(t.rho - ev * s.rho)) < 1e-12
        # ladder relation along the longitude fraction
        for l in range(ctx.N - 1):
            up = translate_ints(psis[l], 0, 1)
            assert np.max(np.abs(up.rho - psis[l + 1].rho)) < 1e-12


def test_gram_identity_psi_phi():
    for ctx in (CTX, CTX_SKEW):
        g = gram_matrix(basis_psi(ctx))
        assert np.max(np.abs(g - np.eye(ctx.N))) < 1e-6
        g = gram_matrix(basis_phi(ctx))
        assert np.max(np.abs(g - np.eye(ctx.r))) < 1e-6


def test_vacuum_frame_norm_constant():
    for ctx in (CTX, CTX_SKEW, QuantizationContext(4, 1j)):
        s = ThetaSection(ctx, np.eye(ctx.N, dtype=complex)[0])
        val = inner_product(s, s, include_halfform=False).real
        target = math.sqrt(8 * math.pi ** 2 / (ctx.N * ctx.b))
        assert val == pytest.approx(target, rel=1e-8)
        assert halfform_norm_sq(ctx) == pytest.approx(math.sqrt(ctx.b / (2 * math.pi)))


def test_inner_product_positivity_and_orthogonality():
    psis = basis_psi(CTX)
    assert abs(inner_product(psis[0], psis[1])) < 1e-8
    for seed in range(5):
        s = random_section(CTX, seed)
        v = inner_product(s, s)
        assert v.real > 0 and abs(v.imag) < 1e-10 * v.real


def test_phi_alternating_pointwise():
    for l, s in enumerate(basis_phi(CTX)):
        assert abs(section_eval(s, 0.0, 0.0)) < 1e-12
        v1 = section_eval(s, 0.23, 0.41)
        v2 = section_eval(s, -0.23, -0.41)
        assert abs(v1 + v2) < 1e-9 * max(1.0, abs(v1))
        assert np.max(np.abs(parity_reflect(s).rho + s.rho)) < 1e-12


def test_phi_fold_identity():
    # the (r+1)-st alternating combination is minus the r-th
    r, N = CTX.r, CTX.N
    psis = basis_psi(CTX)
    phi_r1 = (psis[r + 1].rho - psis[N - (r + 1)].rho) / math.sqrt(2)
    phi_r = (psis[r].rho - psis[N - r].rho) / math.sqrt(2)
    assert np.max(np.abs(phi_r1 + phi_r)) < 1e-14


def test_phi_coefficients_roundtrip():
    rng = np.random.default_rng(9)
    beta = rng.standard_normal(CTX.r) + 1j * rng.standard_normal(CTX.r)
    s = iso_from_skein(beta, CTX)
    got, dev = phi_coefficients(s)
    assert dev < 1e-12
    assert np.max(np.abs(got - beta)) < 1e-12


# -- curve operators and the isomorphism ----------------------------------------

def test_geom_meridian_diagonal():
    for ctx in (CTX, CTX_SKEW):
        M = curve_operator_geom((1, 0), ctx)
        expect = np.diag([-2 * math.cos(2 * math.pi * l / ctx.N)
                          for l in range(1, ctx.r + 1)])
        assert np.max(np.abs(M - expect)) < 1e-12


def test_geom_longitude_fold_corner():
    M = curve_operator_geom((0, 1), CTX)
    assert M[CTX.r - 1, CTX.r - 1] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(M.imag)) < 1e-12


def test_geom_curve_symmetric_in_orientation():
    for gamma in ((1, 0), (0, 1), (1, 1)):
        plus = curve_operator_geom(gamma, CTX)
        minus = curve_operator_geom((-gamma[0], -gamma[1]), CTX)
        assert np.max(np.abs(plus - minus)) < 1e-12


@pytest.mark.parametrize("gamma", ((1, 0), (0, 1), (1, 1), (2, 1)))
@pytest.mark.parametrize("ctx", (CTX, CTX_SKEW, QuantizationContext(8, 0.3 + 1.7j)))
def test_stacked_curve_operator_matches_column_build(ctx, gamma):
    got = curve_operator_geom(gamma, ctx)
    want = curve_operator_by_sections(gamma, ctx)
    assert np.max(np.abs(got - want)) <= 1e-13


def test_geom_curve_primitive_guard():
    with pytest.raises(NotPrimitive):
        curve_operator_geom((2, 4), CTX)


def test_iso_maps_basis():
    s = iso_from_skein(np.eye(CTX.r)[0], CTX)
    phi1 = basis_phi(CTX)[0]
    assert np.max(np.abs(s.rho - phi1.rho)) < 1e-15


def test_iso_roundtrip_and_guard():
    rng = np.random.default_rng(10)
    v = rng.standard_normal(CTX.r) + 1j * rng.standard_normal(CTX.r)
    back = iso_to_skein(iso_from_skein(TorusVector(CTX.r, tuple(v)), CTX))
    assert np.max(np.abs(back.as_array() - v)) < 1e-12
    with pytest.raises(DimensionMismatch):
        iso_from_skein(np.ones(5), CTX)


def test_intertwining_example():
    # the first basis vector is a meridian eigenvector on both sides
    ctx = CTX
    e0 = np.eye(ctx.r)[0]
    lhs_vec = curve_operator_skein((1, 0), ctx.r) @ e0
    lhs = iso_from_skein(lhs_vec, ctx)
    rhs_mat = curve_operator_geom((1, 0), ctx)
    rhs = rhs_mat @ np.array([1, 0, 0])
    expected = -2 * math.cos(2 * math.pi / 7)
    assert lhs_vec[0] == pytest.approx(expected, abs=1e-12)
    assert rhs[0] == pytest.approx(expected, abs=1e-12)
    got, dev = phi_coefficients(lhs)
    assert dev < 1e-12
    assert np.max(np.abs(got - rhs)) < 1e-12


@pytest.mark.parametrize("tau", (1j, 0.3 + 1.7j))
@pytest.mark.parametrize("gamma", ((1, 0), (0, 1), (1, 1)))
def test_intertwining_operator_norm(tau, gamma):
    for r in (3, 5):
        ctx = QuantizationContext(r, tau)
        assert intertwining_deviation(gamma, ctx) < 1e-8


# -- modular frame changes --------------------------------------------------------

@pytest.mark.parametrize("tau", (1j, 0.3 + 1.7j))
def test_modular_T_phases(tau):
    ctx = QuantizationContext(3, tau)
    rep = modular_phase_check("T", ctx)
    assert rep.max_dev < 1e-6
    assert abs(abs(rep.global_phase) - 1) < 1e-6
    # measured matrix is diagonal
    off = rep.measured - np.diag(np.diag(rep.measured))
    assert np.max(np.abs(off)) < 1e-6
    # relative phase between successive entries carries the twist sign
    d = np.diag(rep.measured)
    t = np.diag(rep_T(3))
    for l in range(1, 3):
        assert abs(d[l] / d[l - 1] - t[l] / t[l - 1]) < 1e-6


@pytest.mark.parametrize("tau", (1j, 0.3 + 1.7j))
def test_modular_S_matrix(tau):
    ctx = QuantizationContext(3, tau)
    rep = modular_phase_check("S", ctx)
    assert rep.max_dev < 1e-6
    assert abs(abs(rep.global_phase) - 1) < 1e-6
    # the vacuum-anchored theta construction lands on the opposite global sign
    assert abs(rep.global_phase + 1) < 1e-6
    assert np.max(np.abs(rep.measured + rep_S(3))) < 1e-6


def test_quadrature_cap_raises():
    ctx = QuantizationContext(3, 1j, quad=QuadratureConfig(n_start=4, refine_until=1e-30, n_cap=8))
    s = random_section(ctx, 11)
    with pytest.raises(QuadratureNotConverged):
        inner_product(s, s)


def test_series_window_cap_raises():
    from skeinquant.errors import NonconvergentSeries
    # a nearly degenerate modular parameter needs more theta terms than
    # the hard cap allows
    ctx = QuantizationContext(3, 0.001j)
    s = random_section(ctx, 12)
    with pytest.raises(NonconvergentSeries):
        section_eval(s, 0.1, 0.1)


@pytest.mark.parametrize("tau", (1j, 0.3 + 1.7j))
@pytest.mark.parametrize("r", (3, 8))
def test_gram_kernel_matches_grid_sum(r, tau):
    # the exact 1-D kernel against the plain n x n trapezoid sum of the
    # section values, including the aliased small grids
    ctx = QuantizationContext(r, tau)
    rng = np.random.default_rng(13)
    psis = np.stack([s.rho for s in basis_psi(ctx)], axis=1)
    secs = [ThetaSection(ctx, psis @ (rng.standard_normal(ctx.N) + 1j * rng.standard_normal(ctx.N)))
            for _ in range(2)]
    C = np.stack([s.rho for s in secs], axis=1)
    for n in (4, 8, 128, 256):
        xs = np.arange(n) / n
        P, Q = np.meshgrid(xs, xs, indexing="ij")
        vals = [eval_grid(s, P, Q) for s in secs]
        grid = np.array([[4 * math.pi / n ** 2 * np.sum(np.conj(a) * b) for b in vals]
                         for a in vals])
        kernel = C.conj().T @ _gram_kernel(ctx, n) @ C
        assert np.max(np.abs(grid - kernel)) <= 1e-12 * np.max(np.abs(kernel)), n


@pytest.mark.parametrize("tau", (1j, 0.3 + 1.7j))
@pytest.mark.parametrize("r", (3, 8))
def test_s_frame_pairing_matches_grid_sum(r, tau, monkeypatch):
    # the blocked q-part products against the plain n x n trapezoid sum
    # of conj(phi_m(p, q)) tilde_phi_l(q, -p); three p rows per block, so
    # every grid runs several blocks and a partial last one
    ctx = QuantizationContext(r, tau)
    ctx_t = QuantizationContext(r, -1.0 / tau)
    phis, tilde = basis_phi(ctx), basis_phi(ctx_t)
    for n in (4, 8, 16, 32):
        xs = np.arange(n) / n
        width = max(n, _q_parts(ctx, xs)[0].size, _q_parts(ctx_t, -xs)[0].size)
        monkeypatch.setattr(geom, "_GRID_BLOCK", 3 * r * width)
        P, Q = np.meshgrid(xs, xs, indexing="ij")
        vals = [eval_grid(s, P, Q) for s in phis]
        vals_t = [eval_grid(s, Q, -P) for s in tilde]
        grid = np.array([[4 * math.pi / n ** 2 * np.sum(np.conj(a) * b) for b in vals_t]
                         for a in vals])
        blocked = _s_frame_pairing(phis, tilde, n)
        assert np.max(np.abs(grid - blocked)) <= 1e-12 * np.max(np.abs(blocked)), n


@pytest.mark.parametrize("tau", (1j, 0.3 + 1.7j))
@pytest.mark.parametrize("r", (3, 10, 30))
def test_start_grid_does_not_change_the_numbers(r, tau):
    # the trapezoid sums of these Gaussians converge super-exponentially:
    # doubling from 16 returns what doubling from 128 returns
    ctx = QuantizationContext(r, tau)
    ref = QuantizationContext(r, tau, quad=QuadratureConfig(n_start=128))
    assert np.max(np.abs(gram_matrix(basis_psi(ctx)) - gram_matrix(basis_psi(ref)))) < 1e-12
    for gen in ("S", "T"):
        got = modular_phase_check(gen, ctx).measured
        want = modular_phase_check(gen, ref).measured
        assert np.max(np.abs(got - want)) < 1e-12, gen


@pytest.mark.parametrize("small_block", (False, True))
@pytest.mark.parametrize("frame", (True, False))
@pytest.mark.parametrize("ctx", (CTX, CTX_SKEW, QuantizationContext(8, 0.3 + 1.7j)))
def test_series_matches_termwise_oracle(ctx, frame, small_block, monkeypatch):
    if small_block:
        monkeypatch.setattr(geom, "_GRID_BLOCK", 1000)
    xs = np.linspace(-0.5, 1.5, 37)
    P, Q = np.meshgrid(xs, xs[::2], indexing="ij")
    for s in (random_section(ctx, 14), basis_phi(ctx)[-1]):
        got = _series(s.ctx, s.rho, P, Q, frame)
        want = termwise_series(s, P, Q, frame)
        assert got.shape == want.shape
        # relative to the largest value at each q, since g grows like exp(pi b N q^2)
        scale = np.max(np.abs(want), axis=0)
        assert np.all(np.max(np.abs(got - want), axis=0) <= 1e-13 * scale)


def test_overflowing_grid_raises_after_one_grid(monkeypatch):
    # b N = 279 in the S frame (tau -> -1/tau): the first grid's products
    # overflow, so the refinement stops there without a numpy warning
    calls = []

    def counted(phis, tilde_phi, n):
        calls.append(n)
        return _s_frame_pairing(phis, tilde_phi, n)

    monkeypatch.setattr(geom, "_s_frame_pairing", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PrecisionLoss, match=r"r = 40, tau = \(0\.1\+0\.25j\), n = 16"):
            modular_phase_check("S", QuantizationContext(40, 0.1 + 0.25j))
    assert calls == [16]


@pytest.mark.parametrize("tau,r", [(1j, 9), (1j, 10), (1j, 20), (1j, 25),
                                   (0.3 + 1.7j, 5), (0.3 + 1.7j, 8), (0.3 + 1.7j, 20)])
def test_verification_report_passes_without_float_errors(tau, r):
    from skeinquant.verify import verification_report
    with np.errstate(all="raise", under="ignore"):
        report = verification_report(QuantizationContext(r, tau))
    assert report["pass"], report["residuals"]


@pytest.mark.parametrize("tau,r", [(1j, 27), (1j, 30), (0.3 + 1.7j, 25), (0.3 + 1.7j, 30)])
def test_verification_report_past_a_window_of_n_terms(tau, r):
    # the series window is wider than N = 2r+1 here; only its excess over N
    # counts against the conditioning cap
    from skeinquant.verify import verification_report
    with np.errstate(all="raise", under="ignore"):
        report = verification_report(QuantizationContext(r, tau))
    assert report["pass"], report["residuals"]


def test_alternating_subspace_dimension():
    # the alternating projection of the full basis spans exactly r directions
    phis = basis_phi(CTX)
    mat = np.stack([phi_coefficients(s)[0] for s in phis])
    assert np.linalg.matrix_rank(mat) == CTX.r
    # and every alternating section is reached: residuals vanish
    for s in phis:
        assert phi_coefficients(s)[1] < 1e-12


@pytest.mark.parametrize("r,tau", [(5, 1j), (7, 0.3 + 1.7j), (5, 0.5j)])
def test_batched_report_matches_the_per_check_functions(r, tau):
    # every pairing of the one-pass report is a block with its own stopping
    # rule, so it lands where the public function does; at tau = 0.5i the
    # vacuum block is accepted at n = 32 and the other blocks at n = 64
    from skeinquant.verify import verification_report
    ctx = QuantizationContext(r, tau)
    got = verification_report(ctx)["residuals"]
    vacuum = ThetaSection(ctx, np.eye(ctx.N)[0])
    target = math.sqrt(8 * math.pi ** 2 / (ctx.N * ctx.b))
    rep_t = modular_phase_check("T", ctx)
    want = {
        "gram_psi": np.max(np.abs(gram_matrix(basis_psi(ctx)) - np.eye(ctx.N))),
        "gram_phi": np.max(np.abs(gram_matrix(basis_phi(ctx)) - np.eye(r))),
        "vacuum_frame_norm": abs(inner_product(vacuum, vacuum, include_halfform=False).real
                                 - target) / target,
        "intertwine_mu": intertwining_deviation((1, 0), ctx),
        "intertwine_lambda": intertwining_deviation((0, 1), ctx),
        "intertwine_mu_plus_lambda": intertwining_deviation((1, 1), ctx),
        "modular_T_phases": rep_t.max_dev,
        "modular_T_phase_modulus": abs(abs(rep_t.global_phase) - 1),
    }
    for key, value in want.items():
        assert abs(got[key] - value) <= 1e-12, (key, got[key], value)


def test_report_builds_each_grid_kernel_once(monkeypatch):
    from skeinquant.verify import verification_report
    built = []
    kernel = geom._gram_kernel

    def counted(ctx, n):
        built.append(n)
        return kernel(ctx, n)

    monkeypatch.setattr(geom, "_gram_kernel", counted)
    # three grids at tau = 0.3+1.7i, r = 8, and blocks accepted on
    # different grids at tau = 0.5i
    for ctx in (QuantizationContext(5, 1j), QuantizationContext(8, 0.3 + 1.7j),
                QuantizationContext(5, 0.5j)):
        built.clear()
        assert verification_report(ctx)["pass"]
        assert built and len(built) == len(set(built)), built
        report_grids = set(built)
        built.clear()   # the public functions, each refined on its own
        gram_matrix(basis_psi(ctx))
        gram_matrix(basis_phi(ctx))
        vacuum = ThetaSection(ctx, np.eye(ctx.N)[0])
        inner_product(vacuum, vacuum, include_halfform=False)
        modular_phase_check("T", ctx)
        assert max(report_grids) >= max(built), (report_grids, set(built))
