import cmath
import math
import random
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from oracles import (chained_twist_frame_rows, curve_operator_by_sections, dense_gram_kernel,
                     normal_vector_by_pairs, psi_stack_residuals, quasi_periodicity_by_section,
                     termwise_series)
from skeinquant import verify
from skeinquant import errors, geom
from skeinquant.errors import (DimensionMismatch, NotLatticeFraction, NotPrimitive,
                               PrecisionLoss, StateSpaceTooLarge)
from skeinquant.geom import (QuantizationContext, ThetaSection, _gram_kernel,
                             _s_frame_pairing, _series, basis_phi, basis_psi, curve_operator_geom,
                             eval_grid, gram_matrix, halfform_norm_sq, holomorphic_part,
                             inner_product, intertwining_deviation, iso_from_skein,
                             iso_to_skein, lattice_character, modular_phase_check,
                             parity_reflect, phi_coefficients, psi_coefficients,
                             section_eval, translate, translate_ints)
from skeinquant.tqft import TorusVector, curve_operator_skein, rep_S, rep_T
from skeinquant.verify import (HOLOMORPHY_FLOORS, _holomorphy_residuals, _normal_vector,
                               _quasi_periodicity_dev, verification_report)

CTX = QuantizationContext(3, 1j)
CTX_SKEW = QuantizationContext(3, 0.3 + 1.7j)
# the contexts of the geom_verify bench workload
BENCH_CONTEXTS = [(r, 1j) for r in range(3, 11)] + [(r, 0.3 + 1.7j) for r in range(3, 9)]


def random_section(ctx, seed=0):
    rng = np.random.default_rng(seed)
    alpha = rng.standard_normal(ctx.N) + 1j * rng.standard_normal(ctx.N)
    return ThetaSection(ctx, alpha)


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
    scale = s0.alpha[0]
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


@pytest.mark.parametrize("r,tau", [(5, 1j), (7, 0.3 + 1.7j), (5, 0.5j)])
def test_stacked_quasi_periodicity_matches_the_section_loop(r, tau):
    # one series call for the four sections at their 16 points gives the
    # residual of four eval_grid calls, from the same draws
    ctx = QuantizationContext(r, tau)
    for seed in (7, 8):
        got = _quasi_periodicity_dev(ctx, random.Random(seed))
        assert abs(got - quasi_periodicity_by_section(ctx, random.Random(seed))) <= 1e-13
        assert got < 1e-12


def test_holomorphy_finite_difference_order():
    s = random_section(CTX, 3)
    p, q = 0.37, 0.22

    def residual(h):
        dq = (holomorphic_part(s, p, q + h) - holomorphic_part(s, p, q - h)) / (2 * h)
        dp = (holomorphic_part(s, p + h, q) - holomorphic_part(s, p - h, q)) / (2 * h)
        return abs(dq - CTX.tau * dp)

    r1, r2 = residual(2e-2), residual(1e-2)
    assert 3.0 < r1 / r2 < 5.0  # second-order convergence


@pytest.mark.parametrize("r, tau, at_floor", [
    (3, 1e-4j, True), (3, 2e-4j, True), (8, 3e-4j, True),
    (3, 1e-3j, False), (3, 1j, False), (8, 0.3 + 1.7j, False),
])
def test_holomorphy_floor_separates_rounding_from_truncation(r, tau, at_floor):
    # rounding-dominated residuals sit within a few floors, truncation ones 1e2 floors and
    # up: each verdict holds for a multiple 4 times smaller or larger than the one used
    c, floor = _holomorphy_residuals(QuantizationContext(r, tau), random.Random(7))
    for k in (HOLOMORPHY_FLOORS / 4, HOLOMORPHY_FLOORS, HOLOMORPHY_FLOORS * 4):
        assert np.all(c < k * floor) == at_floor, (k, c / floor)


# -- translations -------------------------------------------------------------

def test_translate_lattice_fraction_guard():
    s = random_section(CTX, 4)
    with pytest.raises(NotLatticeFraction):
        translate(s, (Fraction(1, 2), 0))
    out = translate(s, (Fraction(1, CTX.N), Fraction(2, CTX.N)))
    assert np.allclose(out.alpha, translate_ints(s, 1, 2).alpha)


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
            assert np.max(np.abs(ab.alpha - w * ba.alpha)) < 1e-10


def test_full_lattice_translation_character():
    # one full step along mu or lambda fixes invariant sections; the
    # diagonal step picks up the character sign
    s = random_section(CTX, 6)
    for (j, k, sign) in ((CTX.N, 0, 1), (0, CTX.N, 1), (CTX.N, CTX.N, -1)):
        t = translate_ints(s, j, k)
        assert np.max(np.abs(t.alpha - sign * s.alpha)) < 1e-9 * float(np.max(np.abs(s.alpha)))
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
            assert np.max(np.abs(t.alpha - ev * s.alpha)) < 1e-12
        # ladder relation along the longitude fraction
        for l in range(ctx.N - 1):
            up = translate_ints(psis[l], 0, 1)
            assert np.max(np.abs(up.alpha - psis[l + 1].alpha)) < 1e-12


def test_gram_identity_psi_phi():
    for ctx in (CTX, CTX_SKEW):
        g = gram_matrix(basis_psi(ctx))
        assert np.max(np.abs(g - np.eye(ctx.N))) < 1e-6
        g = gram_matrix(basis_phi(ctx))
        assert np.max(np.abs(g - np.eye(ctx.r))) < 1e-6


def test_vacuum_frame_norm_constant():
    for ctx in (CTX, CTX_SKEW, QuantizationContext(4, 1j)):
        s = ThetaSection(ctx, np.eye(ctx.N, dtype=complex)[0])
        val = inner_product(s, s).real / halfform_norm_sq(ctx)
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
        assert np.max(np.abs(parity_reflect(s).alpha + s.alpha)) < 1e-12


def test_phi_fold_identity():
    # the (r+1)-st alternating combination is minus the r-th
    r, N = CTX.r, CTX.N
    psis = basis_psi(CTX)
    phi_r1 = (psis[r + 1].alpha - psis[N - (r + 1)].alpha) / math.sqrt(2)
    phi_r = (psis[r].alpha - psis[N - r].alpha) / math.sqrt(2)
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
    assert np.max(np.abs(s.alpha - phi1.alpha)) < 1e-15


def test_iso_roundtrip_and_guard():
    rng = np.random.default_rng(10)
    v = rng.standard_normal(CTX.r) + 1j * rng.standard_normal(CTX.r)
    back = iso_to_skein(iso_from_skein(TorusVector(CTX.r, tuple(v)), CTX))
    assert np.max(np.abs(back.as_array() - v)) < 1e-12
    with pytest.raises(DimensionMismatch):
        iso_from_skein(np.ones(5), CTX)


def test_section_input_errors():
    # a wrong length, a pairing across contexts, a section off the alternating subspace,
    # and an unknown generator
    with pytest.raises(DimensionMismatch, match=f"length {CTX.N}"):
        ThetaSection(CTX, np.ones(CTX.N - 1))
    other = QuantizationContext(4, 1j)
    with pytest.raises(DimensionMismatch, match="different contexts"):
        gram_matrix([basis_phi(CTX)[0], basis_phi(other)[0]])
    with pytest.raises(PrecisionLoss, match="not alternating"):
        iso_to_skein(ThetaSection(CTX, np.eye(CTX.N)[1]))
    with pytest.raises(ValueError, match="'T' or 'S'"):
        modular_phase_check("X", CTX)


def test_translation_of_stacked_rows_acts_row_by_row():
    # scalar j and k on 2- and 3-axis rows: the translation of each row in its place
    rows = np.random.default_rng(16).standard_normal((2, 3, CTX.N)) + 0j
    for j, k in ((1, 0), (0, 1), (2, 3), (-1, -4)):
        each = np.array([[geom._translated(CTX, row, j, k) for row in block] for block in rows])
        assert np.array_equal(geom._translated(CTX, rows, j, k), each)
        assert np.array_equal(geom._translated(CTX, rows[0], j, k), each[0])


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

MODULAR_TAUS = (1j, 0.3 + 1.7j, 2 + 3j, -1.5 + 0.8j, 0.05j, 4j, -0.4 + 0.6j, 10 + 1j)


@pytest.mark.parametrize("tau", MODULAR_TAUS)
def test_modular_T_phases(tau):
    # the measured matrix is the predicted phase -exp(i pi/N) times rep_T, with no fit
    for r in (3, 5, 10, 20):
        ctx = QuantizationContext(r, tau)
        rep = modular_phase_check("T", ctx)
        assert rep.global_phase == -cmath.exp(1j * math.pi / ctx.N)
        assert rep.max_dev < 1e-12
        # measured matrix is diagonal
        off = rep.measured - np.diag(np.diag(rep.measured))
        assert np.max(np.abs(off)) < 1e-12
        # relative phase between successive entries carries the twist sign
        d = np.diag(rep.measured)
        t = np.diag(rep_T(r))
        for l in range(1, r):
            assert abs(d[l] / d[l - 1] - t[l] / t[l - 1]) < 1e-12


@pytest.mark.parametrize("tau", MODULAR_TAUS)
def test_modular_S_matrix(tau):
    # the vacuum-anchored theta construction lands on the opposite global sign, -1,
    # with no fit
    for r in (3, 5, 10, 20):
        ctx = QuantizationContext(r, tau)
        rep = modular_phase_check("S", ctx)
        assert rep.global_phase == -1
        assert rep.max_dev < 1e-12
        assert np.max(np.abs(rep.measured + rep_S(r))) < 1e-12


@pytest.mark.parametrize("r", [*range(3, 13), 50, 100])
def test_twist_frame_closed_form_matches_the_chain(r):
    # the N - 1 step chain of the normalised (1,1) lift, built by translations
    # alone, is Phi~_l = z_l Phi_l with z = -exp(i pi/N) diag(rep_T): the skein
    # twist with the chain's anchor phase, the z the T check reads (tau-free)
    ctx = QuantizationContext(r, 1j)
    z = -cmath.exp(1j * math.pi / ctx.N) * np.diag(rep_T(r))
    closed = geom._phi_rows(ctx) * z[:, None]
    assert np.max(np.abs(closed - chained_twist_frame_rows(ctx))) <= 1e-13
    assert modular_phase_check("T", ctx).max_dev <= 1e-12


@pytest.mark.parametrize("tau", MODULAR_TAUS)
def test_theta_side_st_cubed_is_s_squared(tau):
    # (S_m T_m)^3 = c S_m^2 for the measured frame matrices, S_m = -rep_S and
    # T_m = -exp(i pi/N) rep_T, so c is exp(3 i pi/N) times the skein factor
    for r in (3, 5, 10, 20):
        ctx = QuantizationContext(r, tau)
        S, T = rep_S(r), rep_T(r)
        skein = np.trace((S @ S).conj().T @ np.linalg.matrix_power(S @ T, 3)) / r
        c = cmath.exp(3j * math.pi / ctx.N) * skein / abs(skein)
        S_m = modular_phase_check("S", ctx).measured
        T_m = modular_phase_check("T", ctx).measured
        assert np.max(np.abs(np.linalg.matrix_power(S_m @ T_m, 3) - c * S_m @ S_m)) < 1e-12


def test_quadrature_cap_raises(monkeypatch):
    # a byte budget below the Gram kernel's or the S pairing's count refuses the
    # grid before any q-part is built, naming r, tau, the bytes and the MiB
    ctx = QuantizationContext(3, 1j)
    s = random_section(ctx, 11)
    monkeypatch.setattr(errors, "BYTE_BUDGET", 1000)
    monkeypatch.setattr(geom, "_q_parts", lambda *args: pytest.fail("a q-part was built"))
    for what, check in (("Gram kernel", lambda: inner_product(s, s)),
                        ("S-frame pairing", lambda: modular_phase_check("S", ctx))):
        with pytest.raises(StateSpaceTooLarge,
                           match=rf"{what} at r = 3, tau = 1j needs \d+ bytes \(.* MiB\), "
                                 r"over the 1000-byte \(0.000953674 MiB\) budget$"):
            check()


def test_series_window_cap_raises(monkeypatch):
    # a nearly degenerate modular parameter needs a window of about 1.7e7 terms
    # at one point, past the byte budget; it raises before the window is built,
    # while Im(tau) = 0.001, a window of about 540 terms, evaluates
    ctx = QuantizationContext(3, 1e-12j)
    s = random_section(ctx, 12)
    window = geom._window
    monkeypatch.setattr(geom, "_window", lambda *args: pytest.fail("a window was built"))
    with pytest.raises(StateSpaceTooLarge, match=r"series window at r = 3, tau = 1e-12j .* MiB"):
        section_eval(s, 0.1, 0.1)
    monkeypatch.setattr(geom, "_window", window)
    assert np.isfinite(section_eval(random_section(QuantizationContext(3, 0.001j), 12), 0.1, 0.1))


def _traced_peak(f) -> int:
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_geom_budget_counts_the_traced_peak(monkeypatch):
    # the Gram kernel at r = 500, tau = i, and the S pairing from a single small
    # block (r = 3, tau = i) to r = 40 and to r = 3, tau = 1e4+i, whose S frame
    # has a window of about 170000 terms: the bytes traced in one call stay
    # within what it counts, and over half of it; a budget one byte below the
    # count raises before any q-part is built
    counted = []
    check, q_parts = geom._check_bytes, geom._q_parts
    monkeypatch.setattr(geom, "_check_bytes",
                        lambda ctx, what, nbytes: counted.append(nbytes) or check(ctx, what, nbytes))
    for ctx, build in ((QuantizationContext(500, 1j), _gram_kernel),
                       (QuantizationContext(3, 1j), _s_frame_pairing),
                       (QuantizationContext(10, 0.3 + 1.7j), _s_frame_pairing),
                       (QuantizationContext(40, 1j), _s_frame_pairing),
                       (QuantizationContext(3, 1e4 + 1j), _s_frame_pairing)):
        n = geom._grid(ctx)
        counted.clear()
        peak = _traced_peak(lambda: build(ctx, n))
        assert len(counted) == 1 and counted[0] / 2 < peak <= counted[0] <= errors.BYTE_BUDGET
        monkeypatch.setattr(errors, "BYTE_BUDGET", math.ceil(counted[0]) - 1)
        monkeypatch.setattr(geom, "_q_parts", lambda *args: pytest.fail("a q-part was built"))
        with pytest.raises(StateSpaceTooLarge, match=re.escape(f"r = {ctx.r}, tau = {ctx.tau} needs")):
            build(ctx, n)
        monkeypatch.setattr(errors, "BYTE_BUDGET", 1 << 28)
        monkeypatch.setattr(geom, "_q_parts", q_parts)


@pytest.mark.parametrize("r, include_modular", (
    (3, False), (5, False), (10, False), (20, False), (40, True), (200, True), (200, False),
    pytest.param(400, True, marks=pytest.mark.slow)))
def test_report_counts_its_traced_peak(monkeypatch, r, include_modular):
    # the Gram kernel while the Psi residuals are read off it, the stacked pairing
    # columns and the largest engine transient (at small r without the modular checks,
    # the quasi-periodicity series or the curve operators) stay within what the report
    # counts before its first array, and over half of it; a budget one byte below the
    # count refuses before the Psi constant is read
    ctx = QuantizationContext(r, 1j)
    counted, check = [], verify._check_bytes
    monkeypatch.setattr(verify, "_check_bytes",
                        lambda ctx, what, nbytes: counted.append(nbytes) or check(ctx, what, nbytes))
    peak = _traced_peak(lambda: verification_report(ctx, include_modular))
    assert len(counted) == 2   # the S pairing alone, then the report
    count = counted[1]
    assert count / 2 < peak <= count <= errors.BYTE_BUDGET
    monkeypatch.setattr(errors, "BYTE_BUDGET", math.ceil(count) - 1)
    monkeypatch.setattr(verify, "psi_norm_constant", lambda ctx: pytest.fail("Psi was built"))
    with pytest.raises(StateSpaceTooLarge, match=f"verification report at r = {r}, tau = 1j needs"):
        verification_report(ctx, include_modular)


def test_report_admits_r_600_at_tau_i():
    # with no N x N array but the kernel G, the count at r = 600, tau = i is about
    # 231 MiB, under the budget; r = 632 is the first level past it
    for r in (600, 631):
        verify._check_report_bytes(QuantizationContext(r, 1j), True)
    with pytest.raises(StateSpaceTooLarge, match="verification report at r = 632, tau = 1j"):
        verify._check_report_bytes(QuantizationContext(632, 1j), True)


def test_series_counts_what_its_blocks_hold(monkeypatch):
    # a series is counted at the terms x points its block holds, not at _GRID_BLOCK: a
    # traced call stays within its count, and the whole report at r = 3, tau = i (about
    # 105 kB traced) passes under 1 MiB
    counted, check = [], geom._check_bytes
    monkeypatch.setattr(geom, "_check_bytes",
                        lambda ctx, what, n: counted.append(n) or check(ctx, what, n))
    for ctx in (CTX, CTX_SKEW, QuantizationContext(40, 1j)):
        s = random_section(ctx, 13)
        for P, Q in ((0.1, 0.2), np.meshgrid(np.linspace(0, 1, 4), np.linspace(0, 1, 4))):
            counted.clear()
            peak = _traced_peak(lambda: eval_grid(s, P, Q))
            assert len(counted) == 1 and peak <= counted[0], (ctx, peak, counted)
    monkeypatch.setattr(errors, "BYTE_BUDGET", 1 << 20)
    assert verification_report(CTX)["pass"]


def test_series_window_half_width_at_r_200():
    # every term is at most exp(-pi b (m + N q)^2 / N) times its coefficient,
    # so the half-width is sqrt(N log(1/tol) / (pi b)) rounded up, plus one:
    # 66 at r = 200, tau = i, and the first term left out is below the
    # tolerance
    ctx = QuantizationContext(200, 1j)
    assert geom._window(ctx, 0.0, 0.0) == (-66, 66)
    assert math.exp(-math.pi * ctx.b * 67 ** 2 / ctx.N) < geom.SERIES_TOL
    assert geom._window(ctx, 0.0, 1.0) == (-401 - 66, 66)


@pytest.mark.parametrize("tau", (1j, 0.3 + 1.7j))
@pytest.mark.parametrize("r", (3, 8))
def test_gram_kernel_matches_grid_sum(r, tau):
    # the exact 1-D kernel against the plain n x n trapezoid sum of the
    # section values, including the aliased small grids
    ctx = QuantizationContext(r, tau)
    rng = np.random.default_rng(13)
    psis = np.stack([s.alpha for s in basis_psi(ctx)], axis=1)
    secs = [ThetaSection(ctx, psis @ (rng.standard_normal(ctx.N) + 1j * rng.standard_normal(ctx.N)))
            for _ in range(2)]
    C = np.stack([s.alpha for s in secs], axis=1)
    for n in (4, 8, 128, 256):
        xs = np.arange(n) / n
        P, Q = np.meshgrid(xs, xs, indexing="ij")
        vals = [eval_grid(s, P, Q) for s in secs]
        grid = np.array([[4 * math.pi / n ** 2 * np.sum(np.conj(a) * b) for b in vals]
                         for a in vals])
        kernel = C.conj().T @ _gram_kernel(ctx, n) @ C
        assert np.max(np.abs(grid - kernel)) <= 1e-12 * np.max(np.abs(kernel)), n


@pytest.mark.parametrize("r, tau, n", [(r, tau, None) for r in (3, 60, 200)
                                        for tau in (1j, 0.3 + 1.7j, 0.01j, 50j)]
                         + [(60, 1j, 4), (60, 0.3 + 1.7j, 4)])
def test_gram_kernel_matches_the_dense_oracle(r, tau, n):
    # only the aliased pairs, shift by shift, against every pair masked and folded, on
    # the grid the pairings use; n = 4 at r = 60 takes about 60 shifts, whose products
    # are complex off the imaginary axis
    ctx = QuantizationContext(r, tau)
    n = n or geom._grid(ctx)
    got, want = _gram_kernel(ctx, n), dense_gram_kernel(ctx, n)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("r, tau", [(3, 1j), (3, 0.3 + 1.7j), (8, 1j), (8, 0.3 + 1.7j),
                                    (5, 30j)])
def test_s_frame_pairing_matches_grid_sum(r, tau, monkeypatch):
    # the blocked q-part products against the plain n x n trapezoid sum
    # of conj(phi_m(p, q)) tilde_phi_l(q, -p); three p rows per block, so
    # every grid runs several blocks and a partial last one.  At tau = 30i
    # the S window is about 130 terms wide, so the integer phase exponents
    # a m reach the thousands before they are reduced mod n
    ctx = QuantizationContext(r, tau)
    ctx_t = QuantizationContext(r, -1.0 / tau)
    phis, tilde = basis_phi(ctx), basis_phi(ctx_t)
    # the window bounds of the two sides, which size the blocks
    w = [geom._window_len(ctx, 1.0, t) for t in (1, abs(tau))]
    for n in (4, 8, 16, 32):
        xs = np.arange(n) / n
        monkeypatch.setattr(geom, "_GRID_BLOCK", math.ceil(3 * r * max(n, *w)))
        P, Q = np.meshgrid(xs, xs, indexing="ij")
        vals = [eval_grid(s, P, Q) for s in phis]
        vals_t = [eval_grid(s, Q, -P) for s in tilde]
        grid = np.array([[4 * math.pi / n ** 2 * np.sum(np.conj(a) * b) for b in vals_t]
                         for a in vals])
        blocked = _s_frame_pairing(ctx, n)
        assert np.max(np.abs(grid - blocked)) <= 1e-12 * np.max(np.abs(blocked)), n


@pytest.mark.parametrize("tau", (1j, 0.3 + 1.7j, 2 + 3j, 0.5j, 0.1 + 0.25j, 10j, 3 + 1j))
@pytest.mark.parametrize("r", (3, 10, 30))
def test_start_grid_does_not_change_the_numbers(r, tau, monkeypatch):
    # the one grid the aliasing bound picks from Im(tau) returns what a
    # 256-point grid returns, for the S check too: at tau = 3+i its S frame
    # has Im(-1/tau) = 0.1, but its sections are sections of the same torus
    ctx = QuantizationContext(r, tau)

    def numbers():
        return [gram_matrix(basis_psi(ctx))] + [modular_phase_check(gen, ctx).measured
                                               for gen in ("S", "T")]
    got = numbers()
    assert geom._grid(ctx) < 256
    monkeypatch.setattr(geom, "_grid", lambda ctx: 256)
    for name, g, w in zip(("gram", "S", "T"), got, numbers()):
        assert np.max(np.abs(g - w)) < 1e-12, name


@pytest.mark.parametrize("small_block", (False, True))
@pytest.mark.parametrize("framed", (True, False))
@pytest.mark.parametrize("ctx", (CTX, CTX_SKEW, QuantizationContext(8, 0.3 + 1.7j)))
def test_series_matches_termwise_oracle(ctx, framed, small_block, monkeypatch):
    # framed: the section values of _series; unframed: g through holomorphic_part,
    # the section value times exp(-i pi N q z), point by point
    if small_block:
        monkeypatch.setattr(geom, "_GRID_BLOCK", 1000)
    xs = np.linspace(-0.5, 1.5, 37)
    P, Q = np.meshgrid(xs, xs[::2], indexing="ij")
    for s in (random_section(ctx, 14), basis_phi(ctx)[-1]):
        if framed:
            got = _series(s.ctx, s.alpha, P, Q)
        else:
            got = np.vectorize(lambda p, q: holomorphic_part(s, p, q))(P, Q)
        want = termwise_series(s, P, Q, framed)
        assert got.shape == want.shape
        # relative to the largest value at each q, since g grows like exp(pi b N q^2)
        scale = np.max(np.abs(want), axis=0)
        assert np.all(np.max(np.abs(got - want), axis=0) <= 1e-13 * scale)


def test_holomorphic_factor_past_the_float_range_raises():
    # g grows like exp(pi b N q^2): about exp(767) at q = 0.27, b N = 3350
    ctx = QuantizationContext(33, 0.3 + 50j)
    s = ThetaSection(ctx, np.ones(ctx.N))
    with pytest.raises(PrecisionLoss, match=r"holomorphic factor.* r = 33"):
        holomorphic_part(s, 0.31, 0.27)
    assert np.isfinite(section_eval(s, 0.31, 0.27))


def test_overflowing_grid_raises_after_one_grid(monkeypatch):
    # a block that overflows (forced here by scaling the S-frame pairing
    # past the float range) raises on the one grid, without a numpy warning
    ctx = QuantizationContext(40, 0.1 + 0.25j)
    calls = []

    def counted(ctx, n):
        calls.append(n)
        return _s_frame_pairing(ctx, n) * 1e300 * 1e300

    monkeypatch.setattr(geom, "_s_frame_pairing", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PrecisionLoss,
                           match=rf"r = 40, tau = \(0\.1\+0\.25j\), n = {geom._grid(ctx)} "):
            modular_phase_check("S", ctx)
    assert calls == [geom._grid(ctx)]


@pytest.mark.parametrize("tau,r", [(1j, 9), (1j, 10), (1j, 20), (1j, 25), (1j, 60), (1j, 200),
                                   (0.3 + 1.7j, 5), (0.3 + 1.7j, 8), (0.3 + 1.7j, 20),
                                   (0.1 + 0.25j, 40), (5 + 1j, 40), (0.3 + 50j, 40),
                                   (0.01j, 20), (3 + 0.01j, 8), (0.001j, 3)])
def test_verification_report_passes_without_float_errors(tau, r):
    from skeinquant.verify import verification_report
    with np.errstate(all="raise", under="ignore"):
        report = verification_report(QuantizationContext(r, tau))
    assert report["pass"], report["residuals"]


@pytest.mark.parametrize("tau,r", [(1j, 27), (1j, 30), (0.3 + 1.7j, 25), (0.3 + 1.7j, 30)])
def test_verification_report_past_a_window_of_n_terms(tau, r):
    # the series window is wider than N = 2r+1 here
    from skeinquant.verify import verification_report
    with np.errstate(all="raise", under="ignore"):
        report = verification_report(QuantizationContext(r, tau))
    assert report["pass"], report["residuals"]


def test_coefficient_maps_do_not_read_tau():
    # in alpha coordinates the translations, the reflection, the bases and
    # the curve operators are the same arrays for every tau
    a, b = QuantizationContext(6, 1j), QuantizationContext(6, 0.3 + 1.7j)
    rows = np.random.default_rng(15).standard_normal((3, a.N)) + 0j
    for j, k in ((1, 0), (0, 1), (2, 3), (-1, -4), (5, 13)):
        assert np.array_equal(geom._translated(a, rows, j, k), geom._translated(b, rows, j, k))
    assert np.array_equal(geom._reflected(a, rows), geom._reflected(b, rows))
    assert np.array_equal(geom._phi_rows(a), geom._phi_rows(b))
    for gamma in ((1, 0), (0, 1), (1, 1), (2, 1)):
        assert np.array_equal(curve_operator_geom(gamma, a), curve_operator_geom(gamma, b))


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
    # every pairing of the one-pass report is a block of one product on the
    # grid _grid(ctx), the grid the public functions use; the stacked curve
    # operators and quasi-periodicity sections match the one-at-a-time ones
    ctx = QuantizationContext(r, tau)
    got = verification_report(ctx)["residuals"]
    rng = random.Random(7)
    normal_vector_by_pairs(rng, ctx.N)   # the report's random section comes first
    want = {
        "gram_psi": np.max(np.abs(gram_matrix(basis_psi(ctx)) - np.eye(ctx.N))),
        "intertwine_mu": intertwining_deviation((1, 0), ctx),
        "intertwine_lambda": intertwining_deviation((0, 1), ctx),
        "intertwine_mu_plus_lambda": intertwining_deviation((1, 1), ctx),
        "quasi_periodicity": quasi_periodicity_by_section(ctx, rng),
    }
    for key, value in want.items():
        assert abs(got[key] - value) <= 1e-12, (key, got[key], value)


def test_report_residual_keys():
    # each residual states its own fact: none is bounded by another's maximum
    got = verification_report(QuantizationContext(4, 1j))["residuals"]
    assert sorted(got) == [
        "gram_psi", "heisenberg_commutation", "intertwine_lambda",
        "intertwine_mu", "intertwine_mu_plus_lambda", "iso_roundtrip", "modular_S_matrix",
        "phi_alternating", "psi_eigenrelation", "quasi_periodicity", "translation_unitarity"]


def test_report_pairs_two_columns(monkeypatch):
    # the random section and its translate are the only pairings a report makes,
    # with or without the modular checks: no Phi block rides in the stacked product
    stacked, pairings = [], verify._pairings
    monkeypatch.setattr(verify, "_pairings", lambda ctx, blocks: stacked.append(
        sum(len(cols) for _, cols, _ in blocks)) or pairings(ctx, blocks))
    for ctx in (QuantizationContext(5, 1j), QuantizationContext(8, 0.3 + 1.7j)):
        for include_modular in (True, False):
            stacked.clear()
            verification_report(ctx, include_modular)
            assert stacked == [2]


@pytest.mark.parametrize("r, tau", BENCH_CONTEXTS)
def test_vacuum_norm_and_mu_spectrum_stay_under_their_bounds(r, tau):
    # the vacuum's frame norm gap is one entry of the Psi Gram gap, the
    # meridian's spectrum gap one entry of the meridian's intertwining gap
    # (the skein operator is diag(-2 cos(2 pi l/N))), and each entry of the Phi
    # Gram gap half a signed sum of four Psi Gram gap entries, as
    # Phi_l = (Psi_l - Psi_(N-l))/sqrt(2); the T check's gap is the Phi Gram gap
    # times unit phases, so none decides pass
    ctx = QuantizationContext(r, tau)
    got = verification_report(ctx)["residuals"]
    vacuum = ThetaSection(ctx, np.eye(ctx.N)[0])
    target = math.sqrt(8 * math.pi ** 2 / (ctx.N * ctx.b))
    frame_norm = abs(inner_product(vacuum, vacuum).real / halfform_norm_sq(ctx) - target) / target
    mu = np.diag(-2 * np.cos(2 * math.pi * np.arange(1, r + 1) / ctx.N))
    spectrum = np.max(np.abs(curve_operator_geom((1, 0), ctx) - mu))
    gram_phi = np.max(np.abs(gram_matrix(basis_phi(ctx)) - np.eye(r)))
    assert frame_norm <= got["gram_psi"] + 1e-15
    assert spectrum <= got["intertwine_mu"] + 1e-15
    assert gram_phi <= 2 * got["gram_psi"] + 1e-15
    assert modular_phase_check("T", ctx).max_dev <= 2 * got["gram_psi"] + 1e-15


@pytest.mark.parametrize("r, tau", BENCH_CONTEXTS + [(40, 1j), (100, 0.5 + 2j), (60, 2 + 3j)])
def test_report_reads_the_psi_stack_residuals_bit_for_bit(r, tau):
    # the Psi Gram matrix and the vacuum read off the kernel, and the Heisenberg and
    # eigen relations on one coefficient row, give the floats of the N x N stack
    ctx = QuantizationContext(r, tau)
    got = verification_report(ctx, include_modular=r <= 10)["residuals"]
    for key, value in psi_stack_residuals(ctx).items():
        assert got[key] == value, (key, got[key], value)


def test_report_builds_each_grid_kernel_once(monkeypatch):
    # a report builds one kernel, on the grid each public function uses
    from skeinquant.verify import verification_report
    built = []
    kernel = geom._gram_kernel

    def counted(ctx, n):
        built.append(n)
        return kernel(ctx, n)

    monkeypatch.setattr(geom, "_gram_kernel", counted)
    for ctx in (QuantizationContext(5, 1j), QuantizationContext(8, 0.3 + 1.7j),
                QuantizationContext(5, 0.5j)):
        built.clear()
        assert verification_report(ctx)["pass"]
        assert built == [geom._grid(ctx)]
        built.clear()
        gram_matrix(basis_psi(ctx))
        gram_matrix(basis_phi(ctx))
        vacuum = ThetaSection(ctx, np.eye(ctx.N)[0])
        inner_product(vacuum, vacuum)
        modular_phase_check("T", ctx)
        assert built == 4 * [geom._grid(ctx)]


def test_report_evaluates_each_point_check_in_one_call(monkeypatch):
    # the alternation zeros, quasi-periodicity and holomorphy each make one
    # series call, and the random section's translate, the Heisenberg and
    # eigen checks (which share the (1, 0) translate) and the three curve
    # classes make six translate calls, whatever N: no per-section loop and
    # no N-step twist chain
    calls = {}
    for name in ("_series", "_translated"):
        def counted(*args, name=name, f=getattr(geom, name)):
            calls[name] += 1
            return f(*args)
        for module in (geom, verify):
            monkeypatch.setattr(module, name, counted)
    for ctx in (QuantizationContext(10, 1j), QuantizationContext(8, 0.3 + 1.7j)):
        calls.update(_series=0, _translated=0)
        assert verification_report(ctx)["pass"]
        assert calls == {"_series": 3, "_translated": 6}


@pytest.mark.parametrize("seed", (0, 7, 2024))
def test_normal_vector_draws_real_then_imaginary(seed):
    # quasi_periodicity, translation_unitarity, iso_roundtrip and the
    # holomorphy check all read the report's draws in this order
    for n in (1, 3, 7, 21):
        got = _normal_vector(random.Random(seed), n)
        want = normal_vector_by_pairs(random.Random(seed), n)
        assert got.dtype == np.complex128 and got.tobytes() == want.tobytes()
