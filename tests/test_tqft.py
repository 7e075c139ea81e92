import cmath
import itertools
import math
import random
import tracemalloc

import mpmath
import numpy as np
import pytest

from oracles import curve_operator_by_word, kappa_modulus_dev
from skeinquant import cli
from skeinquant.errors import NotPrimitive, PrecisionLoss
from skeinquant.geom import QuantizationContext, intertwining_deviation
from skeinquant.jones import KnotPresentation
from skeinquant.roots import RootContext, quantum_integer
from skeinquant.tqft import (MappingClassWord, TorusVector,
                             curve_operator_skein, kirby_constants, rep_S, rep_T,
                             rt_invariant, sl2z_rep, word_from_matrix)
from skeinquant.tqft import _GEN_MATS, _mat_mul, _twist_eigenvalues

UNKNOT = KnotPresentation.from_catalog("unknot")


def test_torus_vector_norm():
    v = TorusVector(3, (1.0, 1j, -1.0))
    assert v.norm() == pytest.approx(math.sqrt(3))
    with pytest.raises(ValueError):
        TorusVector(3, (1.0,))


# -- mapping class words ---------------------------------------------------

def test_generator_matrices():
    assert MappingClassWord(("T",)).matrix == ((1, 1), (0, 1))
    assert MappingClassWord(("S",)).matrix == ((0, -1), (1, 0))
    assert MappingClassWord(()).matrix == ((1, 0), (0, 1))
    w = MappingClassWord.from_text("S T S^-1")
    assert w.word == ("S", "T", "S^-1")


def test_word_matrix_determinant_and_product():
    rng = random.Random(3)
    gens = list(_GEN_MATS.values())
    for _ in range(40):
        m = ((1, 0), (0, 1))
        toks = []
        for _ in range(rng.randint(1, 9)):
            g = rng.choice(list(_GEN_MATS))
            toks.append(g)
            m = _mat_mul(m, _GEN_MATS[g])
        w = MappingClassWord(tuple(toks))
        assert w.matrix == m
        a, b = m[0]
        c, d = m[1]
        assert a * d - b * c == 1
        # decomposition reproduces the matrix
        assert word_from_matrix(m).matrix == m


def test_word_from_matrix_on_every_small_matrix():
    # one Euclid pass on the first column, ending at T^b or at S^2 T^-b
    mats = [((a, b), (c, d)) for a, b, c, d in itertools.product(range(-9, 10), repeat=4)
            if a * d - b * c == 1]
    assert len(mats) == 884
    for m in mats:
        assert word_from_matrix(m).matrix == m
    assert word_from_matrix(((-1, 3), (0, -1))).word == ("S", "S") + ("T^-1",) * 3
    with pytest.raises(ValueError, match="determinant 1"):
        word_from_matrix(((1, 1), (1, 1)))


def test_sl2z_rep_basics():
    r = 5
    assert np.allclose(sl2z_rep(MappingClassWord(()), r), np.eye(r))
    S, T = rep_S(r), rep_T(r)
    assert np.allclose(sl2z_rep("S T", r), S @ T)


def test_sl2z_rep_builds_an_adjoint_only_for_an_inverse_letter():
    # "S T S" holds rep_T, rep_S, the product and its next step, 4 units of 16 r^2 bytes
    # and rep_S's temporaries; an inverse letter's factor is the adjoint, bit for bit
    r = 100
    S, T = rep_S(r), rep_T(r)
    tracemalloc.start()
    try:
        sl2z_rep("S T S", r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * 16 * r * r, peak / (16 * r * r)
    assert np.array_equal(sl2z_rep("S T^-1 S^-1", r),
                          np.eye(r, dtype=np.complex128) @ S @ T.conj().T @ S.conj().T)


@pytest.mark.parametrize("r", range(3, 17))
def test_rep_unitarity(r):
    for M in (rep_T(r), rep_S(r)):
        assert np.max(np.abs(M @ M.conj().T - np.eye(r))) < 1e-10


def test_writing_a_returned_rep_changes_no_later_call():
    # every call builds its own matrices, so a caller's write stays in its copy
    from skeinquant.geom import QuantizationContext, modular_phase_check
    ctx = QuantizationContext(4, 1j)
    before = modular_phase_check("T", ctx)
    mats = (rep_T(4), rep_S(4), before.predicted)
    copies = [M.copy() for M in mats]
    for M in mats:
        M[0, 0] = 0
    assert np.array_equal(rep_T(4), copies[0]) and np.array_equal(rep_S(4), copies[1])
    after = modular_phase_check("T", ctx)
    assert after.max_dev == before.max_dev < 1e-12
    assert np.array_equal(after.predicted, copies[2])
    assert np.array_equal(after.predicted, np.diag(rep_T(4)) * np.eye(4))


def test_rep_T_entries():
    # entries are the color twist eigenvalues: sign times a quadratic phase
    r = 3
    T = rep_T(r)
    n = 1
    expected = (-1) ** n * cmath.exp(1j * math.pi * (n * n + 2 * n) / 7)
    assert abs(T[n, n] - expected) < 1e-15
    assert abs(abs(T[n, n]) - 1) < 1e-15
    assert abs(cmath.phase(-T[1, 1]) - 3 * math.pi / 7) < 1e-12


def test_rep_T_entries_at_a_large_level():
    # the exponent is reduced mod 2(2r+1) in integers, so each entry is within a few ulp
    r = 300
    N = 2 * r + 1
    T = np.diag(rep_T(r))
    with mpmath.workprec(120):
        exact = [complex((-1) ** n * mpmath.expjpi(mpmath.mpf(n * n + 2 * n) / N))
                 for n in range(r)]
    assert np.max(np.abs(T - exact)) < 1e-15


@pytest.mark.parametrize("k", (-1, 2, -7, 10**12 + 1, -(10**20 + 3)))
def test_twist_powers_are_reduced_in_integers(k):
    # theta_n^k = (-1)^(nk) exp(i pi (k(n^2+2n) mod 2(2r+1))/(2r+1)), within a few ulp at any k
    r = 30
    N = 2 * r + 1
    with mpmath.workprec(200):
        exact = [complex((-1) ** (n * k % 2) * mpmath.expjpi(mpmath.mpf(k * (n * n + 2 * n)) / N))
                 for n in range(r)]
    assert np.max(np.abs(np.array(_twist_eigenvalues(r, k)) - exact)) < 1e-15
    assert _twist_eigenvalues(r, k) == _twist_eigenvalues(r, k + 2 * N)
    assert _twist_eigenvalues(r, 1) == tuple(np.diag(rep_T(r)))


def test_rep_T_periodicity():
    for r in (3, 5):
        N = 2 * r + 1
        T = rep_T(r)
        power = np.linalg.matrix_power(T, 2 * N)
        assert np.max(np.abs(power - np.eye(r))) < 1e-10


def test_rep_S_squared_is_global_phase():
    for r in range(3, 11):
        S = rep_S(r)
        S2 = S @ S
        assert np.max(np.abs(S2 - 1j * np.eye(r))) < 1e-10


def test_projective_relations():
    for r in range(3, 17):
        S, T = rep_S(r), rep_T(r)
        ST3 = np.linalg.matrix_power(S @ T, 3)
        S2 = S @ S
        phase = np.trace(S2.conj().T @ ST3) / r
        phase /= abs(phase)
        assert abs(abs(phase) - 1) < 1e-10
        assert np.max(np.abs(ST3 - phase * S2)) < 1e-10
        S4 = np.linalg.matrix_power(S, 4)
        p4 = np.trace(S4) / r
        p4 /= abs(p4)
        assert np.max(np.abs(S4 - p4 * np.eye(r))) < 1e-10


def test_projective_word_equality():
    r = 4
    a = sl2z_rep("S T S T S T", r)
    b = sl2z_rep("S S", r)
    phase = np.trace(b.conj().T @ a) / r
    phase /= abs(phase)
    assert np.max(np.abs(a - phase * b)) < 1e-10


# -- curve operators ---------------------------------------------------------

def test_meridian_diagonal():
    for r in (3, 10):
        N = 2 * r + 1
        M = curve_operator_skein((1, 0), r)
        expect = np.diag([-2 * math.cos(2 * (n + 1) * math.pi / N) for n in range(r)])
        assert np.max(np.abs(M - expect)) < 1e-14


def test_longitude_fold():
    M = curve_operator_skein((0, 1), 4)
    expect = np.zeros((4, 4))
    for n in range(4):
        if n > 0:
            expect[n - 1, n] = -1
        if n + 1 < 4:
            expect[n + 1, n] = -1
    expect[3, 3] = 1.0  # folded top corner
    assert np.max(np.abs(M - expect)) < 1e-14
    # column for e_1 couples only its neighbours
    col = curve_operator_skein((0, 1), 4)[:, 1]
    assert np.allclose(col, [-1, 0, -1, 0])


def test_curve_operator_self_adjoint():
    for gamma in ((1, 0), (0, 1), (1, 1), (2, 1), (1, -2)):
        M = curve_operator_skein(gamma, 5)
        assert np.max(np.abs(M - M.conj().T)) < 1e-12


def test_curve_operator_primitive_guard():
    with pytest.raises(NotPrimitive):
        curve_operator_skein((2, 2), 4)
    with pytest.raises(NotPrimitive):
        curve_operator_skein((0, 3), 4)


@pytest.mark.parametrize("r", (3, 5, 8, 13))
def test_curve_operator_matches_the_word_route(r):
    # Euclid's conjugations against the meridian conjugated by sl2z_rep of a T/S word for
    # an ext-gcd matrix, on every primitive class with |a|, |b| <= 7
    worst = max(float(np.max(np.abs(curve_operator_skein((a, b), r)
                                    - curve_operator_by_word((a, b), r))))
                for a in range(-7, 8) for b in range(-7, 8) if math.gcd(a, b) == 1)
    assert worst < 1e-13


@pytest.mark.parametrize("r", (5, 30))
def test_far_classes_intertwine_to_rounding(r):
    # each Euclid step conjugates by the integer-reduced power of rho(T)
    ctx = QuantizationContext(r, 1j)
    for gamma in ((10**12 + 1, 1), (1, 10**9 + 2)):
        assert intertwining_deviation(gamma, ctx) <= 1e-13


def test_conjugation_covariance():
    for r in (3, 4):
        for gname in ("T", "S"):
            U = sl2z_rep(MappingClassWord((gname,)), r)
            g = _GEN_MATS[gname]
            for gamma in ((1, 0), (0, 1)):
                image = (g[0][0] * gamma[0] + g[0][1] * gamma[1],
                         g[1][0] * gamma[0] + g[1][1] * gamma[1])
                lhs = U @ curve_operator_skein(gamma, r) @ U.conj().T
                rhs = curve_operator_skein(image, r)
                assert np.max(np.abs(lhs - rhs)) < 1e-9


# -- Kirby constants and surgeries -------------------------------------------

def test_kirby_eta_formula():
    for r in range(3, 9):
        kc = kirby_constants(r)
        N = 2 * r + 1
        assert kc.eta == pytest.approx(2 * math.sin(2 * math.pi / N) / math.sqrt(N))
        assert kc.eta > 0


def test_kirby_kappa_modulus():
    for r in range(3, 9):
        assert kappa_modulus_dev(kirby_constants(r)) < 1e-10


def test_kirby_omega_coefficients():
    r = 5
    ctx = RootContext(r)
    kc = kirby_constants(r)
    for i in range(r):
        assert kc.omega_coeffs[i] == pytest.approx(
            (-1) ** i * quantum_integer(i + 1, ctx), abs=1e-12)


def test_rt_three_sphere_three_ways():
    for r in range(3, 9):
        empty = rt_invariant(None, 0, r)
        plus = rt_invariant(UNKNOT, 1, r)
        minus = rt_invariant(UNKNOT, -1, r)
        assert abs(empty - kirby_constants(r).eta) < 1e-14
        assert abs(plus - empty) < 1e-9
        assert abs(minus - empty) < 1e-9


def test_rt_s2_x_s1():
    for r in range(3, 9):
        val = rt_invariant(UNKNOT, 0, r)
        assert abs(val - 1.0) < 1e-9


def test_rt_certified_where_the_sum_cancels_little():
    trefoil = KnotPresentation.from_catalog("trefoil")
    fig8 = KnotPresentation.from_catalog("figure-eight")
    for r in (10, 29):                    # the levels the bench's unknot task draws
        for framing in (1, -1):
            assert abs(rt_invariant(UNKNOT, framing, r) - rt_invariant(None, 0, r)) < 1e-9
    # neither raises PrecisionLoss: the trefoil's terms cancel at most 25-fold,
    # the figure-eight's 5.7e3-fold at r = 30
    for r in (10, 40, 150):
        rt_invariant(trefoil, -2, r)
    for r in (10, 20, 30):
        for framing in (-2, 1):
            rt_invariant(fig8, framing, r)


def test_rt_raises_where_the_sum_cancels_past_its_tolerance(capsys):
    fig8 = KnotPresentation.from_catalog("figure-eight")
    for r in (40, 150):                   # 1.3e5-fold cancellation at r = 40
        with pytest.raises(PrecisionLoss, match=f"r={r}, framing -2"):
            rt_invariant(fig8, -2, r)
    # a value that vanishes has no relative accuracy to certify
    with pytest.raises(PrecisionLoss):
        rt_invariant(KnotPresentation.from_catalog("trefoil"), 0, 3)
    assert cli.main(["rt", "--surgery", "figure-eight", "--framing", "-2", "--r", "40"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err


def _rt_bits(K, framing, r):
    try:
        return repr(rt_invariant(K, framing, r))
    except PrecisionLoss:
        return "PrecisionLoss"


@pytest.mark.parametrize("r", (5, 30))
@pytest.mark.parametrize("name", ("trefoil", "figure-eight"))
def test_rt_is_periodic_in_the_framing_to_the_bit(name, r):
    # the framing factor is the twist to the power -framing, reduced in integers, so
    # framings 2(2r+1) apart of one sign give the same floats, far out too
    K = KnotPresentation.from_catalog(name)
    period = 2 * (2 * r + 1)
    for f in (10**12 + 7, -(10**12 + 7), 10**20 + 3, -(10**20 + 3)):
        assert _rt_bits(K, f, r) == _rt_bits(K, f + period, r) == _rt_bits(K, f - period, r)


@pytest.mark.parametrize("r", (5, 10, 30))
def test_rt_of_the_trefoil_mirror_is_the_conjugate_at_the_opposite_framing(r):
    # surgery on the mirror at framing f is the mirror manifold of framing -f on the trefoil
    mirror = KnotPresentation.from_catalog("trefoil-mirror")
    trefoil = KnotPresentation.from_catalog("trefoil")
    for f in (1, -1, 2, -2, 3, -3):
        want = rt_invariant(trefoil, -f, r).conjugate()
        assert abs(rt_invariant(mirror, f, r) - want) <= 1e-12 * abs(want), f
