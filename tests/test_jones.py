import math
import random
import tracemalloc
from functools import reduce
from itertools import islice

import mpmath
import numpy as np
import pytest

from oracles import (all_sector_bound, all_sector_loop, all_sector_window, cabled_jones,
                     cyclotomic_jones, dense_rmatrix_jones, exact, habiro_forward, mirrored,
                     morton_trefoil, mpmath_root_table, numpy_q_bits)
from skeinquant import cli, errors, jones, roots
from skeinquant.diagrams import BraidWord
from skeinquant.errors import (InexactDivision, PrecisionLoss, StateSpaceTooLarge,
                               UnknownCatalogEntry)
from skeinquant.jones import (CATALOG, JONES_REL_TOL, Dyadic, KnotPresentation,
                              catalog_jones_values, catalog_name, colored_jones,
                              colored_jones_catalog, colored_jones_exact,
                              colored_jones_polynomial, colored_jones_rmatrix,
                              colored_jones_values)
from skeinquant.laurent import LaurentPoly
from skeinquant.roots import RootContext, quantum_integer, unit_root

UNKNOT = KnotPresentation.from_catalog("unknot")
TREFOIL = KnotPresentation.from_catalog("trefoil")
FIG8 = KnotPresentation.from_catalog("figure-eight")


def test_catalog_presentations():
    assert TREFOIL.braid.word == (1, 1, 1) and TREFOIL.braid.strands == 2
    assert FIG8.braid.word == (1, -2, 1, -2) and FIG8.braid.strands == 3
    assert TREFOIL.braid.writhe == 3 and FIG8.braid.writhe == 0
    with pytest.raises(UnknownCatalogEntry):
        KnotPresentation.from_catalog("granny")


def test_knots_must_be_single_component():
    with pytest.raises(ValueError):
        KnotPresentation.from_braid((1, 1), 2)  # Hopf link closure


def test_trivial_color_is_one():
    for K in (UNKNOT, TREFOIL, FIG8):
        assert colored_jones_exact(K, 1) == LaurentPoly.one()


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_unknot_normalization(n):
    assert colored_jones_exact(UNKNOT, n) == LaurentPoly.one()
    ctx = RootContext(6)
    assert colored_jones_rmatrix(UNKNOT, n, ctx) == pytest.approx(1.0, abs=1e-12)
    assert colored_jones_catalog("unknot", n, ctx) == pytest.approx(1.0, abs=1e-14)


def test_figure_eight_jones_polynomial():
    assert colored_jones_exact(FIG8, 2) == LaurentPoly({-2: 1, -1: -1, 0: 1, 1: -1, 2: 1})


def test_trefoil_jones_polynomial():
    # golden value under the fixed chirality convention
    assert colored_jones_exact(TREFOIL, 2) == LaurentPoly({1: 1, 3: 1, 4: -1})


def test_figure_eight_palindromic():
    for n in (2, 3, 5, 6):
        p = colored_jones_exact(FIG8, n)
        assert p == mirrored(p)
        assert (p.min_exp, p.max_exp) == (-n * (n - 1), n * (n - 1))
    for n in range(1, 21):   # the catalog polynomial, where the engine would take minutes
        p = jones._catalog_polynomial("figure-eight", n)
        assert p == mirrored(p)
        assert (p.min_exp, p.max_exp) == (-n * (n - 1), n * (n - 1))


def test_backend_agreement_grid():
    for r in range(3, 9):
        ctx = RootContext(r)
        for K in (TREFOIL, FIG8):
            for n in (1, 2, 3):
                exact = colored_jones_exact(K, n).eval_at(ctx.t_value)
                rmat = colored_jones_rmatrix(K, n, ctx)
                cat = colored_jones_catalog(K.name, n, ctx)
                assert abs(exact - rmat) < 1e-9
                assert abs(exact - cat) < 1e-9
                assert abs(rmat - cat) < 1e-9


def test_writhe_invariance_across_presentations():
    # same knot, different writhe: the framing correction must cancel
    stabilized = KnotPresentation.from_braid((1, 1, 1, 2), 3)  # writhe 4
    conjugated = KnotPresentation.from_braid((1, 1, 1, 1, 2, -1), 3)  # writhe 4
    ctx = RootContext(5)
    for n in (1, 2, 3):
        base = colored_jones_exact(TREFOIL, n)
        assert colored_jones_exact(stabilized, n) == base
        assert colored_jones_exact(conjugated, n) == base
        assert abs(colored_jones_rmatrix(stabilized, n, ctx)
                   - base.eval_at(ctx.t_value)) < 1e-9


def test_mirror_has_equal_modulus():
    mirror = KnotPresentation.from_braid((-1, -1, -1), 2)
    for r in (3, 5):
        ctx = RootContext(r)
        for n in (2, 3):
            a = colored_jones_exact(TREFOIL, n).eval_at(ctx.t_value)
            b = colored_jones_exact(mirror, n).eval_at(ctx.t_value)
            assert abs(abs(a) - abs(b)) < 1e-12


def test_quantum_integer_reflection_symmetry():
    # |[2r+1-n]| = |[n]| exactly at the evaluation root
    for r in (3, 6, 10):
        ctx = RootContext(r)
        for n in range(1, r + 1):
            assert abs(abs(quantum_integer(2 * r + 1 - n, ctx))
                       - abs(quantum_integer(n, ctx))) < 1e-12


def test_rmatrix_state_guard():
    ctx = RootContext(20)
    # each generator twice: no destabilization takes it to fewer strands
    wide = KnotPresentation.from_braid((1, 2, 3, 4, 5, 6) * 2, 7)
    with pytest.raises(StateSpaceTooLarge):
        colored_jones_rmatrix(wide, 6, ctx)


def test_two_strand_guard_counts_the_pair_tables():
    # the two flat pair tables of n^4 int64 each outgrow the sector itself, d = n
    knot = KnotPresentation.from_braid((1, 1, 1, 1, 1), 2)
    with pytest.raises(StateSpaceTooLarge,
                       match=r"has 63 states and needs 273571360 bytes \(260.898 MiB\)"):
        colored_jones_rmatrix(knot, 63, RootContext(70))
    assert abs(colored_jones_rmatrix(knot, 3, RootContext(8))
               - colored_jones_exact(knot, 3).eval_at(RootContext(8).t_value)) < 1e-10


SECTOR_KNOTS = (((1, 1, 1), 2), ((-1, -1, -1), 2), ((1, -2, 1, -2), 3),
                ((1, 1, 1, 2), 3), ((1, -2, 3, -1, 2, -3, 2), 4))


# knot words of 3 strands and 8 crossings, as the knot-state tasks of the bench draw them
KNOT_WORDS = ((1, -2, 1, 1, -2, -2, 1, -2), (-1, 2, -1, -1, -2, 2, 1, -2),
              (2, -2, -2, 1, -2, -1, -2, -2))
HALF_SECTOR_CASES = ([(word, strands, 5) for word, strands in SECTOR_KNOTS]
                     + [(tuple(-g for g in word), strands, 5) for word, strands in SECTOR_KNOTS]
                     + [(word, 3, 8) for word in KNOT_WORDS])


@pytest.mark.parametrize("word, strands, n_max", HALF_SECTOR_CASES)
def test_mirror_sectors_trace_alike_and_tighten_window_and_bound(monkeypatch, word, strands,
                                                                n_max):
    primes = list(islice(jones._primes(16), 24))
    p, powers = primes[0], jones._unit_powers(primes[0], 4)
    traces = []

    def every_sector(word, plan, gens, one, matmul, rowdot, weigh):
        traces[:] = all_sector_loop(word, strands, N, gens, one, matmul,
                                    lambda e, diag: diag.sum(axis=-1) % p)
        return [np.zeros(4, dtype=np.int64)]

    for N in range(2, n_max + 1):
        terms, plan = jones._rmatrix_terms(N), list(jones._sector_plan(word, strands, N))
        with monkeypatch.context() as m:
            m.setattr(jones, "_sector_loop", every_sector)
            jones._trace_mod(word, plan, N, terms, 0, 2 * N * (N + strands), p, powers,
                             np.arange(4))
        assert len(traces) == strands * (N - 1) + 1
        for w, trace in enumerate(traces):
            assert np.array_equal(trace, traces[-1 - w])
        lo, hi = jones._degree_window(word, plan, strands, terms, 1)
        lo_all, hi_all = all_sector_window(word, strands, N)
        assert lo_all <= lo <= hi <= hi_all
        moduli = [math.prod(primes[:k]) for k in range(1, len(primes) + 1)]
        needed = [next(k for k, M in enumerate(moduli) if M > 2 * b)
                  for b in (jones._coefficient_bound(word, plan, N, terms),
                            all_sector_bound(word, strands, N))]
        assert needed[0] <= needed[1]


def test_mirror_tables_are_the_flipped_tables_up_to_a_gauge():
    # the degree window's high end is the mirror word's low end: the lowest exponents of
    # one sign are the negated highest of the other at flipped slot values, up to a gauge
    # psi(i') + psi(j') - psi(i) - psi(j) that no diagonal of a (min, +) product sees
    for N in range(2, 13):
        x = np.arange(N)
        psi = -2 * x * (N - 1 - x)
        i2, j2, i, j = np.indices((N,) * 4)
        gauge = psi[i2] + psi[j2] - psi[i] - psi[j]
        terms = jones._rmatrix_terms(N)
        for (where, c), (flipped, c_flipped) in zip(terms, terms[::-1]):
            where, flipped = where.reshape((N,) * 4), flipped[::-1].reshape((N,) * 4)
            assert np.array_equal(where >= 0, flipped >= 0)
            lowest, highest = (c[0] - c[4])[where], (c_flipped[0] + c_flipped[4])[flipped]
            assert not np.any((lowest + highest - gauge)[where >= 0]), N


def test_sector_loop_multiplies_half_the_sectors(monkeypatch):
    products, rowdots, loop = [], [], jones._sector_loop

    def counted(word, plan, gens, one, matmul, rowdot, weigh):
        return loop(word, plan, gens, one,
                    lambda X, Y: products.append(X.shape) or matmul(X, Y),
                    lambda Y, X: rowdots.append(X.shape) or rowdot(Y, X), weigh)

    monkeypatch.setattr(jones, "_sector_loop", counted)
    colored_jones_rmatrix(FIG8, 12, RootContext(30))
    # sectors w <= 16 of 0..33: the period (1, -2) from its first block, then diag(U U)
    assert len(products) == 17 * 1 and len(rowdots) == 17
    products.clear()
    rowdots.clear()
    # an aperiodic word: its L - 1 = 7 products, letter by letter, in each of sectors w <= 6
    colored_jones_rmatrix(KnotPresentation.from_braid((2, 1, 1, 1, 1, -2, 1, 2), 3), 5,
                          RootContext(8))
    assert len(products) == 7 * 7 and rowdots == []
    products.clear()
    assert abs(colored_jones_rmatrix(UNKNOT, 5, RootContext(8)) - 1) < 1e-12
    assert products == [] == rowdots   # the empty word's product is the identity


def test_sector_loop_builds_each_slot_index_once_per_sector(monkeypatch):
    builds, slot_index = [], jones._slot_index
    monkeypatch.setattr(jones, "_slot_index",
                        lambda flat, k, i, s, N: builds.append((len(flat), i))
                        or slot_index(flat, k, i, s, N))
    colored_jones_rmatrix(FIG8, 12, RootContext(30))
    assert len(builds) == 17 * 2 == len(set(builds))   # sectors w <= 16, slots 0 and 1
    builds.clear()
    # a word its normal form leaves as it is
    colored_jones_rmatrix(KnotPresentation.from_braid((2, 1, 1, 1, 1, -2, 1, 2), 3), 5,
                          RootContext(8))
    assert len(builds) == 7 * 2   # eight letters of both signs, on two slots


def test_exact_call_builds_each_slot_index_once_per_sector(monkeypatch):
    # the window's two sides, the bound and every batch of every prime share one plan
    builds, slot_index = [], jones._slot_index
    monkeypatch.setattr(jones, "_slot_index",
                        lambda flat, k, i, s, N: builds.append((tuple(flat), i))
                        or slot_index(flat, k, i, s, N))
    uncached = jones._colored_jones_exact_cached.__wrapped__
    J = cabled_jones(FIG8, 4)   # before the budget shrinks: its contraction shares it
    monkeypatch.setattr(errors, "BYTE_BUDGET", 100000)   # six batches of the 29 points
    assert uncached(FIG8.braid.word, FIG8.braid.strands, 4) == J
    assert len(builds) == 5 * 2 == len(set(builds))   # sectors w <= 4 of 0..9, slots 0 and 1


@pytest.mark.parametrize("r", (5, 8, 30))
@pytest.mark.parametrize("word, strands", SECTOR_KNOTS)
def test_sector_engine_matches_dense_oracle(word, strands, r):
    K = KnotPresentation.from_braid(word, strands)
    ctx = RootContext(r)
    for n in range(1, 6):
        dense = dense_rmatrix_jones(K, n, ctx)
        assert abs(colored_jones_rmatrix(K, n, ctx) - dense) <= 1e-11 * max(1.0, abs(dense))


# braid words u^k of a shorter word u, whose sector products the loop takes by squaring:
# the figure-eight and its mirror, T(3, 4) and its mirror, T(3, 5) and T(2, 5)
PERIODIC_WORDS = (((1, -2) * 2, 3), ((-1, 2) * 2, 3), ((1, 2) * 4, 3), ((-1, -2) * 4, 3),
                  ((1, 2) * 5, 3), ((1,) * 5, 2))


@pytest.mark.parametrize("word, strands", PERIODIC_WORDS)
def test_periodic_words_match_the_letter_by_letter_loop(monkeypatch, word, strands):
    # every ring of the exact engine, the window and the bound too, against the loop over
    # every sector that multiplies letter by letter from the identity; and the cabling
    uncached = jones._colored_jones_exact_cached.__wrapped__

    def every_sector(word, plan, gens, one, matmul, rowdot, weigh):
        diags = all_sector_loop(word, strands, N, gens, one, matmul, lambda e, diag: diag)
        return [weigh(e, diag) for (e, _, _), diag in zip(plan, diags)]

    for N in range(2, 6):
        J = uncached(word, strands, N)
        with monkeypatch.context() as m:
            m.setattr(jones, "_sector_loop", every_sector)
            assert uncached(word, strands, N) == J, N
        if N <= 3:
            assert J == cabled_jones(KnotPresentation.from_braid(word, strands), N)


@pytest.mark.parametrize("word, strands", PERIODIC_WORDS)
def test_periodic_words_match_dense_oracle(word, strands):
    K = KnotPresentation.from_braid(word, strands)
    ctx = RootContext(8)
    for n in range(1, 6):
        dense = dense_rmatrix_jones(K, n, ctx)
        # both are uncertified floats, and at n = 5 two words are past 1e-11 apart: (1, 2)^5
        # is 2.2e-11 (sector) and 1.4e-11 (dense) off the exact value, 3.5e-11 apart letter
        # by letter, and (-1, -2)^4 1.9e-11 and 8.3e-12 off, 3.0e-12 apart letter by letter
        tol = JONES_REL_TOL if n == 5 and word in ((1, 2) * 5, (-1, -2) * 4) else 1e-11
        assert abs(colored_jones_rmatrix(K, n, ctx) - dense) <= tol * max(1.0, abs(dense))


# knot words that repeat letters and take both signs of one slot
REPEAT_WORDS = ((-1, 2, 2, 2, 2, -1, -2, 1), (2, 1, 1, 1, 1, -2, 1, 2))


@pytest.mark.parametrize("r", (8, 30))
@pytest.mark.parametrize("word", KNOT_WORDS + REPEAT_WORDS)
def test_sector_engine_matches_dense_oracle_on_knot_words(word, r):
    # both engines are uncertified floats: at n = 5, r = 8 the first word is 1.2e-11 (sector)
    # and 2.2e-11 (dense) off the exact value, and they differ by 2.6e-11
    K = KnotPresentation.from_braid(word, 3)
    ctx = RootContext(r)
    for n in range(1, 6):
        dense = dense_rmatrix_jones(K, n, ctx)
        assert abs(colored_jones_rmatrix(K, n, ctx) - dense) <= (JONES_REL_TOL
                                                                  * max(1.0, abs(dense)))


# a seeded 31-crossing knot word on 4 strands, checked at n <= 2 only
LONG_KNOT = ((1, -2, 1, -2, -1, -3, 1, 1, 3, -1, -3, -1, -1, -3, 1, -3, 1, 3, -2, 3, -2, -1,
              3, 1, 1, 1, -2, -1, -1, 2, 2), 4)


@pytest.mark.parametrize("mirror", (False, True))
@pytest.mark.parametrize("word, strands", SECTOR_KNOTS + (LONG_KNOT,))
def test_exact_engine_matches_cabled_oracle(word, strands, mirror):
    # the F_p sector loop against the planar bracket contraction: no shared code
    if mirror:
        word = tuple(-g for g in word)
    K = KnotPresentation.from_braid(word, strands)
    n_max = 2 if len(word) > 20 else 3 if strands == 4 else 4
    for n in range(1, n_max + 1):
        assert colored_jones_exact(K, n) == cabled_jones(K, n)


@pytest.mark.parametrize("K", (TREFOIL, FIG8), ids=("trefoil", "figure-eight"))
def test_exact_engine_matches_catalog_at_r30(K):
    ctx = RootContext(30)
    for n in range(1, 9):
        exact = colored_jones_exact(K, n).eval_at(ctx.t_value)
        cat = colored_jones_catalog(K.name, n, ctx)
        assert abs(exact - cat) <= 1e-10 * max(1.0, abs(cat))


@pytest.mark.parametrize("K", (TREFOIL, FIG8), ids=("trefoil", "figure-eight"))
def test_rmatrix_matches_catalog_at_r30(K):
    ctx = RootContext(30)
    cat = [complex(v) for v in catalog_jones_values(K.name, 30, 12)]
    for n in range(1, 12):
        assert abs(colored_jones_rmatrix(K, n, ctx) - cat[n - 1]) <= 1e-10 * abs(cat[n - 1])
    # n = 12 is past the float trace's accuracy; the bench checks it at 1e-6
    assert abs(colored_jones_rmatrix(K, 12, ctx) - cat[11]) <= 1e-6 * abs(cat[11])


def test_engines_run_a_multiple_of_2r_plus_1_at_2r_plus_1(monkeypatch):
    # J(14) = J(7) at r = 3: the exact engine builds the 7-colored polynomial (0.06 s on
    # this word), not the 14-colored one (28 s), and the value keeps the color asked for;
    # the R-matrix refuses J(7)
    calls, cached = [], jones._colored_jones_exact_cached
    monkeypatch.setattr(jones, "_colored_jones_exact_cached",
                        lambda *args: calls.append(args) or cached(*args))
    ctx = RootContext(3)
    value = colored_jones(FIG8, 14, ctx, "exact")
    assert calls == [((1, -2, 1, -2), 3, 7)]
    assert value == (14, cached((1, -2, 1, -2), 3, 7).eval_at(ctx.t_value), "exact")
    with pytest.raises(PrecisionLoss, match=r"^the R-matrix gives J\(7\) at r=3 as 0/0"):
        colored_jones(FIG8, 14, ctx, "rmatrix")


@pytest.mark.parametrize("K", (FIG8, KnotPresentation.from_braid((1, 1, 1, 2, -1, 2), 3)),
                         ids=("figure-eight", "custom"))
def test_rmatrix_refuses_the_colors_where_n_vanishes(K, monkeypatch):
    # where 2r+1 divides n, [n] and T both vanish and T/[n] is rounding over rounding: the
    # refusal names n and r before a table is built, and the next color still agrees
    ctx = RootContext(3)
    monkeypatch.setattr(jones, "_rmatrix_terms", lambda N: pytest.fail("a table was built"))
    for n in (7, 14):
        with pytest.raises(PrecisionLoss, match=rf"J\({n}\) at r=3 as 0/0"):
            colored_jones_rmatrix(K, n, ctx)
    monkeypatch.undo()
    exact = colored_jones_exact(K, 8).eval_at(ctx.t_value)
    assert abs(colored_jones_rmatrix(K, 8, ctx) - exact) <= 1e-10 * abs(exact)


def test_input_errors_raise():
    with pytest.raises(ValueError, match="unknown backend 'bogus'"):
        colored_jones(FIG8, 2, RootContext(5), backend="bogus")
    with pytest.raises(ValueError, match="n must be >= 1"):
        colored_jones_rmatrix(FIG8, 0, RootContext(5))


def test_exact_past_the_prime_supply_raises(monkeypatch):
    # figure-eight n = 6 needs two primes for its coefficient bound, n = 4 one
    uncached, primes = jones._colored_jones_exact_cached.__wrapped__, jones._primes
    monkeypatch.setattr(jones, "_primes", lambda M: islice(primes(M), 1))
    assert uncached(FIG8.braid.word, FIG8.braid.strands, 4) == cabled_jones(FIG8, 4)
    with pytest.raises(PrecisionLoss, match=r"J\(6\) needs more primes p = 1 mod 268 below"):
        uncached(FIG8.braid.word, FIG8.braid.strands, 6)


def test_degree_window_one_short_raises(monkeypatch):
    n = 3
    J = cabled_jones(FIG8, n)
    # T = J(A^4) [n] A^-((n^2-1) writhe), and the figure-eight has writhe 0
    lo, hi = 4 * J.min_exp - 2 * (n - 1), 4 * J.max_exp + 2 * (n - 1)
    uncached = jones._colored_jones_exact_cached.__wrapped__
    monkeypatch.setattr(jones, "_degree_window", lambda word, plan, s, terms, points: (lo, hi - 4))
    with pytest.raises(InexactDivision):
        uncached(FIG8.braid.word, FIG8.braid.strands, n)
    monkeypatch.setattr(jones, "_degree_window", lambda word, plan, s, terms, points: (lo, hi))
    assert uncached(FIG8.braid.word, FIG8.braid.strands, n) == J


def test_inverse_dft_returns_the_coefficients_and_checks_the_top(monkeypatch):
    # the values of a random polynomial mod p at the nodes t_j = w^4j give back its
    # coefficients for any row block, up to degree L - 2; one of degree L - 1 raises
    rng = np.random.default_rng(7)
    for L in (2, 3, 29, 100):
        p = next(jones._primes(4 * L))
        for deg in (L - 2, L - 1):
            coef = rng.integers(1, p, deg + 1).tolist()
            monkeypatch.setattr(jones, "_trace_mod", lambda *args: np.array(
                [sum(c * pow(int(args[-2][4 * i]), k, p) for k, c in enumerate(coef)) % p
                 for i in args[-1]], dtype=np.int64))
            for chunk in (1, 5, L):
                if deg == L - 2:
                    assert jones._coefficients_mod((), [], 2, (), 0, L, 0, p, chunk).tolist() \
                        == coef
                else:
                    with pytest.raises(InexactDivision, match=f"degree {L - 2} in A"):
                        jones._coefficients_mod((), [], 2, (), 0, L, 0, p, chunk)


def test_exact_points_are_chunked_to_the_budget(monkeypatch):
    # figure-eight n=4: 29 points of 6 * 12^2 + 396 int64 entries each (a power table of
    # 2 (2E + 1) entries, E = 2 * 4 * (4 + 3) = 56); once, 3 * 290
    # positions (290 = 1 + 3^2 + 6^2 + 10^2 + 12^2 over the sectors w <= 4), 5 * 4^3
    # index entries, 2 * 4^4 + 20 * 30 for the pair tables, 8 * (8 + 1) + 256 bytes for
    # each of the 29 nodes of one prime, and 8192.  The whole batch needs 328440 bytes,
    # one point 46200
    word, strands = FIG8.braid.word, FIG8.braid.strands
    uncached = jones._colored_jones_exact_cached.__wrapped__
    sizes, trace_mod = [], jones._trace_mod
    monkeypatch.setattr(jones, "_trace_mod",
                        lambda *args: sizes.append(len(args[-1])) or trace_mod(*args))
    J = cabled_jones(FIG8, 4)   # before the budget shrinks: its contraction shares it
    assert uncached(word, strands, 4) == J and set(sizes) == {29}
    sizes.clear()
    monkeypatch.setattr(errors, "BYTE_BUDGET", 100000)   # (100000 - 36120) // 10080 = 6
    assert uncached(word, strands, 4) == J
    assert sizes[:5] == [6, 6, 6, 6, 5] and set(sizes) == {6, 5}
    monkeypatch.setattr(errors, "BYTE_BUDGET", 46199)
    with pytest.raises(StateSpaceTooLarge, match="has 12 states"):
        uncached(word, strands, 4)


def _traced_peak(f) -> int:
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("N", (5, 7))
def test_budget_counts_the_traced_peak(monkeypatch, N):
    # a 4-strand word on its 3 slots, and the power (1, 2)^4, whose loop squares its
    # period's product, from cold tables and each backend's plan (the int64 call holds
    # every visited sector's positions as a list, the complex128 call one sector at a
    # time): the bytes traced in one call stay within what _check_budget counts for it,
    # and over half of it
    P = 7
    p = next(jones._primes(4 * P))
    powers = jones._unit_powers(p, P)
    for word, s in (((1, -2, 3, -1, 2, -3, 2), 4), ((1, 2) * 4, 3)):
        E = 2 * N * (N + s)
        K = KnotPresentation.from_braid(word, s)
        for itemsize, points, call in (
                (16, 1, lambda: colored_jones_rmatrix(K, N, RootContext(30))),
                (8, P, lambda: jones._trace_mod(word, list(jones._sector_plan(word, s, N)), N,
                                                jones._rmatrix_terms(N), 0, E, p, powers,
                                                np.arange(P)))):
            peak = _traced_peak(call)
            for budget, admitted in ((peak - 1, False), (2 * peak, True)):
                monkeypatch.setattr(errors, "BYTE_BUDGET", budget)
                try:
                    fits = jones._check_budget(N, s, itemsize, E) >= points
                except StateSpaceTooLarge:
                    fits = False
                assert fits == admitted, (word, itemsize, peak)


def test_budget_counts_the_traced_peak_of_one_exact_point(monkeypatch):
    # under the smallest budget that admits one point, the whole exact call, window, bound,
    # prime search, batches, inverse DFT one row at a time, CRT and division, stays within
    # it.  The trefoil word at n = 12 (deg 209) has the largest sectors; the other two have
    # many nodes and primes and small sectors, where the per-node and per-call terms carry
    # the count
    uncached = jones._colored_jones_exact_cached.__wrapped__
    check_budget, trace_mod = jones._check_budget, jones._trace_mod
    for word, s, n, nodes, primes in (((1, 1, 1), 2, 12, 211, 3), ((1,) * 41, 2, 2, 44, 3),
                                      ((1, -2) * 20, 3, 2, 43, 2)):
        counted = []
        monkeypatch.setattr(errors, "BYTE_BUDGET", 1 << 28)
        monkeypatch.setattr(jones, "_check_budget",
                            lambda *args: counted.append(args) or check_budget(*args))
        J = uncached(word, s, n)
        args = counted[-1]   # the check that sizes the batches, once the primes are picked
        assert args[4:] == (nodes, primes)

        def admits(budget):
            monkeypatch.setattr(errors, "BYTE_BUDGET", budget)
            try:
                return check_budget(*args) >= 1
            except StateSpaceTooLarge:
                return False

        lo, hi = 0, errors.BYTE_BUDGET   # bisect to the smallest admitting budget
        while hi - lo > 1:
            lo, hi = (lo, (lo + hi) // 2) if admits((lo + hi) // 2) else ((lo + hi) // 2, hi)
        assert admits(hi) and check_budget(*args) == 1   # and the budget stays at hi
        sizes = []
        monkeypatch.setattr(jones, "_trace_mod", lambda *args: sizes.append(len(args[-1]))
                            or trace_mod(*args))
        peak = _traced_peak(lambda: uncached(word, s, n) == J or pytest.fail("J changed"))
        assert sizes == [1] * nodes * primes and peak <= hi, (word, peak, hi)
        monkeypatch.setattr(jones, "_trace_mod", trace_mod)


@pytest.mark.parametrize("name, r, n", (("figure-eight", 2000, 3), ("trefoil", 100000, 5)))
def test_catalog_tables_count_their_traced_peak(monkeypatch, capsys, name, r, n):
    # the root table, with the figure-eight's Q chain or Morton's sums, is counted once
    # before either exists: the count bounds the traced peak of the values, and stays within
    # twice it; under a budget below it the command exits 2 with one line before any root
    # of unity is taken
    counted, check_bytes = [], errors.check_bytes
    monkeypatch.setattr(errors, "check_bytes",
                        lambda what, nbytes: counted.append(nbytes) or check_bytes(what, nbytes))
    peak = _traced_peak(lambda: catalog_jones_values(name, r, n))
    assert len(counted) == 1 and peak <= counted[0] <= 2 * peak, (peak, counted)
    monkeypatch.setattr(errors, "BYTE_BUDGET", counted[0] - 1)
    for module in (jones, roots):
        monkeypatch.setattr(module, "unit_root", lambda *args: pytest.fail("unit_root ran"))
    assert cli.main(["jones", "--knot", name, "--n", str(n), "--r", str(r)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: the ") and err.count("\n") == 1
    assert f"needs {counted[0]} bytes" in err and f"over the {counted[0] - 1}-byte" in err


@pytest.mark.parametrize("r", (3000, pytest.param(100000, marks=pytest.mark.slow)))
def test_trefoil_sums_count_their_traced_peak(monkeypatch, capsys, r):
    # Morton's table, its sums and the caller's list, the values or the norm's squares and
    # ratios, are counted once before any exists: the count bounds the traced peak of both
    # callers, and stays within twice it; under a budget below it the command exits 2 with
    # one line before any root of unity is taken
    counted, check_bytes = [], errors.check_bytes
    monkeypatch.setattr(errors, "check_bytes",
                        lambda what, nbytes: counted.append(nbytes) or check_bytes(what, nbytes))
    for run in (lambda: catalog_jones_values("trefoil", r, r), lambda: jones._trefoil_norm(r)):
        counted.clear()
        peak = _traced_peak(run)
        assert len(counted) == 1 and peak <= counted[0] <= 2 * peak, (peak, counted)
    monkeypatch.setattr(errors, "BYTE_BUDGET", counted[0] - 1)
    for module in (jones, roots):
        monkeypatch.setattr(module, "unit_root", lambda *args: pytest.fail("unit_root ran"))
    assert cli.main(["jones", "--knot", "trefoil", "--n", str(r), "--r", str(r)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: the Morton sum ") and err.count("\n") == 1
    assert f"needs {counted[0]} bytes" in err and f"over the {counted[0] - 1}-byte" in err


@pytest.mark.parametrize("r", [pytest.param(r, marks=pytest.mark.slow) for r in (2000, 2117)])
def test_figure_eight_norm_counts_its_traced_peak(monkeypatch, capsys, tmp_path, r):
    # the float norm pass counts its table, then its float lists and one color's slices,
    # once before any exists: the count bounds the traced peak, and stays within twice it;
    # under a budget below it volume-seq exits 2 with one line before any root of unity is
    # taken
    counted, check_bytes = [], errors.check_bytes
    monkeypatch.setattr(errors, "check_bytes",
                        lambda what, nbytes: counted.append(nbytes) or check_bytes(what, nbytes))
    peak = _traced_peak(lambda: jones._figure_eight_norm(r))
    assert len(counted) == 1 and peak <= counted[0] <= 2 * peak, (peak, counted)
    monkeypatch.setattr(errors, "BYTE_BUDGET", counted[0] - 1)
    for module in (jones, roots):
        monkeypatch.setattr(module, "unit_root", lambda *args: pytest.fail("unit_root ran"))
    out = tmp_path / "v.csv"
    assert cli.main(["volume-seq", "--knot", "figure-eight", "--r-min", str(r),
                     "--r-max", str(r), "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("error: the figure-eight norm pass ")
    assert err.count("\n") == 1 and not out.exists()
    assert f"needs {counted[0]} bytes" in err and f"over the {counted[0] - 1}-byte" in err


def test_rmatrix_values_leave_no_tables_behind():
    # the R-matrix tables live for one call: kept, the 2 n^4 int64 positions and their
    # columns of every color n = 4..30 would hold about 90 MB
    K = KnotPresentation.from_braid((1, 1, 1, 1, 1), 2)
    colored_jones_values(K, 3)   # the lazy imports, before the trace starts
    tracemalloc.start()
    try:
        values = colored_jones_values(K, 30)
        del values
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 2 ** 20, retained


def test_exact_nodes_are_roots_of_unity(monkeypatch):
    # the nodes are A = w^j mod p, j < L = deg + 2, read from the table of w's 4L powers,
    # so t = A^4 takes each L-th root of unity once
    uncached = jones._colored_jones_exact_cached.__wrapped__
    calls, trace_mod = [], jones._trace_mod
    monkeypatch.setattr(jones, "_trace_mod",
                        lambda *args: calls.append(args[-3:]) or trace_mod(*args))
    assert uncached(FIG8.braid.word, FIG8.braid.strands, 4) == cabled_jones(FIG8, 4)
    (p, powers, j), = calls   # one prime, one batch
    L = 29                    # deg 27 and one more for the check
    assert j.tolist() == list(range(L)) and p % (4 * L) == 1
    w = int(powers[1])
    assert powers.tolist() == [pow(w, k, p) for k in range(4 * L)]
    t = powers[4 * j].tolist()
    assert len(set(t)) == L and all(pow(v, L, p) == 1 for v in t)


def _order(g: int, p: int) -> int:
    """The multiplicative order of g modulo the prime p."""
    order, m, f = p - 1, p - 1, 2
    while m > 1:
        f = m if f * f > m else f
        if m % f == 0:
            while m % f == 0:
                m //= f
            while order % f == 0 and pow(g, order // f, p) == 1:
                order //= f
        f += 1
    return order


def test_sector_sizes_by_inclusion_exclusion_match_the_convolution():
    # the budget reads the middle sector and the squares up to it in O(s) integer sums
    for s in range(1, 6):
        for N in range(1, 12):
            sizes = reduce(np.convolve, [np.ones(N)] * s)
            top = s * (N - 1)
            assert [jones._sector_size(s, N, w) for w in range(top + 1)] == sizes.tolist()
            assert jones._sector_size(s, N, top // 2) == sizes.max()
            assert jones._sector_size(2 * s, N, top) == np.square(sizes).sum()


def test_prime_search():
    # no sector past d_max fits one int64 point: 3 entries of each state pair, and on two
    # strands or more at least two int64 positions
    d_max = math.isqrt(errors.BYTE_BUDGET // (5 * 8))
    with pytest.raises(StateSpaceTooLarge):
        jones._check_budget(d_max + 1, 2, 8)   # two strands: the largest sector has N states

    def admits(N, s):
        try:
            return jones._check_budget(N, s, 8) >= 1
        except StateSpaceTooLarge:
            return False

    for s in range(2, 9):   # the largest sector of the largest N each strand count admits
        N = max(N for N in range(2, 100) if admits(N, s))
        assert max(reduce(np.convolve, [np.ones(N)] * s)) <= d_max
    # the search yields every prime p = 1 mod M = 4L below 2^25, largest first, and for
    # each the table of w^k, k < 4L, whose w^4 has order exactly L
    for L in (2, 3, 29, 211, 5000):
        M = 4 * L
        primes = list(islice(jones._primes(M), 6))
        top = (2 ** 25 - 1) // M * M + 1
        assert primes == [q for q in range(top, primes[-1] - 1, -M)
                          if all(q % f for f in range(3, math.isqrt(q) + 1, 2))]
        for p in primes:
            assert p % M == 1 and p < 2 ** 25 and d_max * p * p < 2 ** 63
            w = int(jones._unit_powers(p, L)[1])
            assert _order(pow(w, 4, p), p) == L and pow(w, M, p) == 1


def test_auto_past_the_budget_raises_without_exact(monkeypatch):
    def no_exact(*args, **kwargs):
        raise AssertionError("auto fell back to the exact backend")

    monkeypatch.setattr(jones, "colored_jones_exact", no_exact)
    # each generator twice: no destabilization takes it to the catalog
    wide = KnotPresentation.from_braid((1, 2, 3, 4, 5, 6) * 2, 7)
    with pytest.raises(StateSpaceTooLarge,
                       match=r"has 24017 states and needs 161528777768 bytes \(154046 MiB\), "
                             r"over the 268435456-byte \(256 MiB\) budget$"):
        colored_jones(wide, 6, RootContext(20))


def test_catalog_unknown():
    ctx = RootContext(4)
    with pytest.raises(UnknownCatalogEntry):
        colored_jones_catalog("granny", 2, ctx)


@pytest.mark.parametrize("r", (-1, 0, 1, 2))
@pytest.mark.parametrize("name", ("unknot", "trefoil", "figure-eight"))
def test_catalog_refuses_levels_below_three(name, r):
    # RootContext's level error before any sum runs, as at every other entry point
    with pytest.raises(ValueError, match=r"^level r must be >= 3$"):
        catalog_jones_values(name, r, 1)


@pytest.mark.parametrize("n_max", (-1, -7))
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_refuses_a_negative_color_bound(monkeypatch, name, n_max):
    # a negative bound asks for no color: at r = 3, n_max = -1 would read J(-7) from its class
    monkeypatch.setitem(jones.CATALOG, name, CATALOG[name]._replace(
        values=lambda *args: pytest.fail("a catalog sum ran")))
    with pytest.raises(ValueError, match=r"^color bound n_max must be >= 0$"):
        catalog_jones_values(name, 3, n_max)


def test_dispatch_backends():
    ctx = RootContext(4)
    assert colored_jones(FIG8, 2, ctx).backend == "catalog"
    # the catalog is keyed by braid word, so the trefoil word needs no name
    assert colored_jones(KnotPresentation.from_braid((1, 1, 1), 2), 2, ctx).backend == "catalog"
    custom = KnotPresentation.from_braid((1, 1, 1, 2, -1, 2), 3)   # 5_2
    assert colored_jones(custom, 2, ctx).backend == "rmatrix"
    assert colored_jones(custom, 2, ctx, backend="exact").backend == "exact"
    vals = [colored_jones(custom, 2, ctx, backend=b).value
            for b in ("exact", "rmatrix")]
    assert abs(vals[0] - vals[1]) < 1e-10


def test_catalog_dispatch_ignores_the_label():
    ctx = RootContext(10)
    mislabeled = KnotPresentation.from_braid((1, -2, 1, -2), 3, name="trefoil")
    for n in (2, 5, 10):
        assert colored_jones(mislabeled, n, ctx).value == colored_jones(FIG8, n, ctx).value
    with pytest.raises(UnknownCatalogEntry):
        colored_jones(KnotPresentation.from_braid((1, 1, 1, 2, -1, 2), 3, name="trefoil"),
                      2, ctx, backend="catalog")


@pytest.mark.parametrize("word", ((-2, 1, -2, 1), (2, -1, 2, -1), (-1, 2, -1, 2)))
def test_every_spelling_of_a_catalog_word_takes_the_catalog(word):
    # a rotation, the flip σ1 ↔ σ2 and a reversal close to the figure-eight
    K = KnotPresentation.from_braid(word, 3)
    for r in (5, 30):
        ctx = RootContext(r)
        assert colored_jones_values(K, r) == colored_jones_values(FIG8, r)
        assert colored_jones(K, 7, ctx) == colored_jones(FIG8, 7, ctx)
        forced = colored_jones(K, 3, ctx, backend="rmatrix")
        assert forced.backend == "rmatrix"
        assert abs(forced.value - colored_jones(FIG8, 3, ctx).value) < 1e-9


STABILIZED_SPELLINGS = (
    ((1, 1, 1, 2), 3, "trefoil"), ((1, 1, 1, -2), 3, "trefoil"),   # the last strand goes
    ((-1, 2, 2, 2), 3, "trefoil"), ((2, -3, 2, -3, 1), 4, "figure-eight"),   # the first goes
    ((1, 2, 2, 2, 3), 4, "trefoil"), ((1, -2, 1, -2, 3), 4, "figure-eight"), ((1,), 2, "unknot"),
    ((1, 1, 1, 2, -1, 2), 3, None), ((-1, -1, -1, 2), 3, "trefoil-mirror"),   # 5_2, a mirror
    # pairs to cancel before the destabilizations: the first two are the seed-1 and seed-2
    # knot words of the bench's skein_braids
    ((-1, 2, 2, 2, 2, -1, -2, 1), 3, "trefoil"), ((-2, 2, 2, 1, 2, -2, -1, 1), 3, "unknot"),
    ((-1, 1, 2, -2, 1, 1, 2, 1), 3, "trefoil"),
    ((2, 1, -2, 3, -3, 1, -2, 3, -2), 4, "figure-eight"))


@pytest.mark.parametrize("word, strands, name", STABILIZED_SPELLINGS)
def test_a_stabilized_catalog_word_takes_the_catalog(word, strands, name):
    K = KnotPresentation.from_braid(word, strands)
    assert catalog_name(K) == name
    ctx = RootContext(5)
    assert abs(colored_jones(K, 3, ctx).value
               - colored_jones(K, 3, ctx, backend="exact").value) < 1e-9


@pytest.mark.parametrize("word, strands", sorted(jones._CATALOG_NAMES)
                         + [((1, 1, 1, 2), 3), ((1, -2, 1, -2, 3), 4)])
def test_catalog_polynomial_is_the_engines(word, strands):
    # Masbaum's sum for every spelling the catalog keys, and two stabilized ones, against the
    # sector engine that --backend exact forces
    K = KnotPresentation.from_braid(word, strands)
    for n in range(1, 7):
        assert colored_jones_polynomial(K, n) == (colored_jones_exact(K, n), "catalog")
        assert colored_jones_polynomial(K, n, "exact") == (colored_jones_exact(K, n), "exact")


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_polynomial_matches_cabled_oracle(name):
    K = KnotPresentation.from_catalog(name)
    for n in range(1, 5):
        assert jones._catalog_polynomial(name, n) == cabled_jones(K, n)


def test_polynomial_dispatch_refuses_what_gives_no_polynomial():
    custom = KnotPresentation.from_braid((1, 1, 1, 2, -1, 2), 3)   # 5_2
    assert colored_jones_polynomial(custom, 2) == (colored_jones_exact(custom, 2), "exact")
    with pytest.raises(UnknownCatalogEntry):
        colored_jones_polynomial(custom, 2, "catalog")
    for backend in ("rmatrix", "bogus"):   # the R-matrix gives values
        with pytest.raises(ValueError, match=f"^backend '{backend}' gives no polynomial"):
            colored_jones_polynomial(TREFOIL, 2, backend)
    with pytest.raises(ValueError, match="color index"):
        colored_jones_polynomial(TREFOIL, 0)


def test_catalog_polynomial_counts_its_bytes_before_the_sum(monkeypatch):
    # 4 polynomials of 2n(n-1)+1 terms of 202 + 4 ceil(2n/30) bytes, and 8 KiB: 25 terms of
    # 202 + 4 bytes at n = 4, 28792 bytes
    def no_product(*args):
        raise AssertionError("the sum ran past its budget")

    assert jones._catalog_polynomial("figure-eight", 4) == cabled_jones(FIG8, 4)
    monkeypatch.setattr(errors, "BYTE_BUDGET", 28791)
    monkeypatch.setattr(LaurentPoly, "__mul__", no_product)
    with pytest.raises(StateSpaceTooLarge, match=r"figure-eight sum at n=4 holds 4 polynomials "
                                                 r"of 25 terms and needs 28792 bytes"):
        jones._catalog_polynomial("figure-eight", 4)


@pytest.mark.parametrize("name", ("trefoil", "trefoil-mirror", "figure-eight"))
def test_catalog_polynomial_counts_its_traced_peak(name):
    # within the count at every color, and over a third of it once the terms dominate
    for n in (1, 2, 5, 12, 30):
        count = 4 * (2 * n * (n - 1) + 1) * (202 + 4 * -(-2 * n // 30)) + 8192
        peak = _traced_peak(lambda: jones._catalog_polynomial(name, n))
        assert peak <= count and (n < 30 or 3 * peak > count), (n, peak, count)


def _padded_knot_words(seed: int, count: int) -> list:
    """Seeded 3-strand knot words of 6 letters, with a g, -g pair inserted and conjugated by a
    letter."""
    rng, gens, words = random.Random(seed), (1, -1, 2, -2), []
    while len(words) < count:
        word = [rng.choice(gens) for _ in range(6)]
        g, at = rng.choice(gens), rng.randint(0, 6)
        word[at:at] = [g, -g]
        h = rng.choice(gens)
        braid = BraidWord([h] + word + [-h], 3)
        if len(braid.closure_components()) == 1:
            words.append(braid)
    return words


@pytest.mark.parametrize("word, strands", [(w, s) for w, s, _ in STABILIZED_SPELLINGS]
                         + _padded_knot_words(41, 8))
def test_exact_on_the_normal_form_is_exact_on_the_word_as_given(word, strands):
    K = KnotPresentation.from_braid(word, strands)
    for n in (2, 3):
        assert colored_jones_exact(K, n) == jones._colored_jones_exact_cached(word, strands, n)


def test_the_trefoil_mirror_takes_the_catalog():
    # J(K*)(t) = J(K)(1/t) = conj J(K)(t) at |t| = 1: the trefoil's certified values, conjugated
    mirror = KnotPresentation.from_braid((-1, -1, -1), 2)
    assert catalog_name(mirror) == "trefoil-mirror"
    assert colored_jones(mirror, 2, RootContext(8)).backend == "catalog"
    for r, n_max in ((8, 8), (30, 60), (149, 149)):
        assert catalog_jones_values("trefoil-mirror", r, n_max) == [
            z.conjugate() for z in catalog_jones_values("trefoil", r, n_max)]


def test_a_mirror_spelling_by_braid_relations_runs_the_rmatrix():
    # (-1, -2, -1, -2) is the mirror trefoil by a braid relation, which the normal form
    # does not make, so it keeps the uncertified R-matrix, near the catalog entry at r = 8
    K = KnotPresentation.from_braid((-1, -2, -1, -2), 3)
    assert catalog_name(K) is None
    ctx, want = RootContext(8), catalog_jones_values("trefoil-mirror", 8, 8)
    for n, value in enumerate(want, 1):
        got = colored_jones(K, n, ctx)
        assert got.backend == "rmatrix"
        assert abs(got.value - value) <= 1e-10 * abs(value), n


@pytest.mark.parametrize("r", (100, 140, 149, 300))
@pytest.mark.parametrize("name", ("trefoil", "figure-eight"))
def test_catalog_precision_against_oracle(name, r):
    ours = catalog_jones_values(name, r, r)
    ref = cyclotomic_jones(name, r, r, 100 + r)
    with mpmath.workprec(100 + r):
        worst = max(abs(mpmath.mpc(exact(a)) - b) / abs(b) for a, b in zip(ours, ref))
    assert worst < JONES_REL_TOL


def test_figure_eight_at_r500_against_oracle():
    # the partial products reach 2^241.6 here, and J(n) cancels up to 231 bits of them
    ours = catalog_jones_values("figure-eight", 500, 500)
    ref = cyclotomic_jones("figure-eight", 500, 500, 600)
    with mpmath.workprec(600):
        worst = max(abs(exact(a) - b) / abs(b) for a, b in zip(ours, ref))
    assert worst < JONES_REL_TOL


@pytest.mark.parametrize("r", range(3, 13))
def test_figure_eight_small_levels_every_color(r):
    # three periods of colors: factors c(n) - c(j) of adjacent table entries, and from
    # n = r + 1 on the exact zeros at j = -n mod 2r+1
    n_max = 3 * (2 * r + 1)
    ours = catalog_jones_values("figure-eight", r, n_max)
    ref = cyclotomic_jones("figure-eight", r, n_max, 200)
    with mpmath.workprec(200):
        assert all(abs(exact(a) - b) <= JONES_REL_TOL * abs(b) for a, b in zip(ours, ref))


@pytest.mark.parametrize("r", (700, 1000))
def test_figure_eight_matches_forward_oracle_at_large_levels(r):
    ours = catalog_jones_values("figure-eight", r, r)
    ref = habiro_forward(r, r)
    assert all(abs(exact(a) - b) <= 1e-15 * abs(b) for a, b in zip(ours, ref))


def test_figure_eight_certifies_every_color_at_r2000():
    assert len(catalog_jones_values("figure-eight", 2000, 2000)) == 2000


NORM_GROWTH_SEED_1 = (27, 57, 86, 120, 150, 174, 205, 237, 264, 295)


NORM_LEVELS = sorted({*range(3, 81), *NORM_GROWTH_SEED_1, 500, 1000})


@pytest.mark.parametrize("r", NORM_LEVELS)
def test_figure_eight_moduli_lie_within_their_bounds(r):
    # each A(n) = NN^(3/2) w(n) |J(n)| = NN |s(n)| |J(n)| against 60 digits from the exact
    # Dyadic values
    moduli, bounds, argmax = jones._figure_eight_terms(r)
    values = jones._figure_eight_values(r, r, 0)
    NN = 2 * r + 1
    assert len(moduli) == len(bounds) == r
    with mpmath.workdps(60):
        want = [NN * 2 * abs(mpmath.sin(2 * mpmath.pi * n / NN)) * abs(exact(v))
                for n, v in enumerate(values, start=1)]
        for n, (a, e, w) in enumerate(zip(moduli, bounds, want), start=1):
            assert abs(a - w) <= e, n
    moduli_j = [abs(exact(v)) for v in values]
    assert argmax == moduli_j.index(max(moduli_j)) + 1


def test_figure_eight_moduli_stop_at_the_double_range():
    # |Q| stays inside [2^-500, 2^500] up to r = 2117
    assert jones._figure_eight_terms(2117) is not None
    assert jones._figure_eight_terms(2118) is None


@pytest.mark.parametrize("r", NORM_LEVELS)
def test_trefoil_norm_sums_lie_within_their_bounds(r):
    # each part of S'(n) over the table at F = 64 + bitlen(NN) within 1.56 n units of 2^F
    # times Morton's sum at 60 digits, and the sum of their squares within its bound
    NN = 2 * r + 1
    F = 64 + NN.bit_length()
    X, _, re, im = jones._trefoil_sums(r, r)
    assert X[0] == 2 ** F
    with mpmath.workdps(60):
        def g(h):
            return (mpmath.expjpi(mpmath.mpf(-2 * (3 * h * h + 5 * h + 4)) / NN)
                    - mpmath.expjpi(mpmath.mpf(-2 * (3 * h * h - h + 2)) / NN))

        exact_sums, run = [], [mpmath.mpc(0), mpmath.mpc(0)]
        for n in range(1, r + 1):
            run[n % 2] += g(n - 1) + (g(1 - n) if n > 1 else 0)
            exact_sums.append(run[n % 2] * mpmath.mpf(2) ** F)
        for n, (a, b, z) in enumerate(zip(re, im, exact_sums), start=1):
            assert abs(a - z.real) <= 1.56 * n and abs(b - z.imag) <= 1.56 * n, n
        total, n2 = sum(a * a + b * b for a, b in zip(re, im)), r * (r + 1) * (2 * r + 1) // 6
        bound = 1.56 * (2 * mpmath.sqrt(2 * total * n2) + 3.12 * n2)
        assert abs(total - mpmath.fsum(abs(z) ** 2 for z in exact_sums)) <= bound


def test_figure_eight_high_color_reflects_in_small_memory():
    # colors past r repeat J(min(n mod NN, NN - n mod NN)), and J(NN) at n = 0 mod NN:
    # no memory that grows with n_max beyond the list of values
    r, n_max = 5, 3000
    NN = 2 * r + 1
    tracemalloc.start()
    try:
        values = catalog_jones_values("figure-eight", r, n_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20
    assert len(values) == n_max
    for n in range(1, n_max + 1):
        m = min(n % NN, -n % NN) or NN
        assert values[n - 1] == values[m - 1], n


@pytest.mark.parametrize("M", (3, 4, 7, 8, 13, 101, 1001, 4001, 6001, 60001))
@pytest.mark.parametrize("W", (0, 1, 5, 30, 64, 300, 1000, 3000))
def test_unit_root_is_the_rounded_root(M, W):
    with mpmath.workprec(W + 64):
        w = mpmath.expjpi(mpmath.mpf(2) / M)
        want = tuple(int(mpmath.nint(mpmath.ldexp(v, W))) for v in (w.real, w.imag))
    assert unit_root(M, W) == want


def test_unit_root_refuses_the_trivial_roots():
    for M in (1, 2):
        with pytest.raises(ValueError):
            unit_root(M, 64)


def test_root_table_matches_the_mpmath_table(monkeypatch):
    # every table the catalog builds, at the bit count F each sum asks for at its level
    tables = []
    build = jones._root_table
    monkeypatch.setattr(jones, "_root_table",
                        lambda NN, F: tables.append((NN, F, build(NN, F))) or tables[-1][2])
    levels = (*range(3, 401), 1000, 2000, 3000)
    for r in levels:
        jones._figure_eight_values(r, 1, 0)
        jones._trefoil_values(r, 1)
    assert [NN for NN, _, _ in tables] == [2 * r + 1 for r in levels for _ in range(2)]
    assert [F for _, F, _ in tables[1::2]] == [64 + (2 * r + 1).bit_length() for r in levels]
    for NN, F, table in tables:
        assert table == mpmath_root_table(NN, F), (NN, F)


def test_dyadic_reads_as_the_nearest_double():
    # the old mpf values, rebuilt from the same pair, give the same complex and log pairs
    for v in catalog_jones_values("figure-eight", 300, 300):
        assert complex(v) == complex(mpmath.mpf((v.man, v.exp), prec=0))
    assert complex(Dyadic(-(3 << 1100), -10)) == complex(-math.inf, 0)
    assert complex(Dyadic(3 << 1100, -10)) == complex(math.inf, 0)
    assert complex(Dyadic(0, -10)) == 0j
    assert complex(Dyadic(-3, -1)) == -1.5 + 0j


def test_catalog_color_sums_only_its_class(monkeypatch):
    # a multiple of NN = 2r+1 asks the sum for no color below it, only for itself
    asked = []

    def recorded(f):
        return lambda r, n_max, zero: asked.append((r, n_max, zero)) or f(r, n_max, zero)

    for name in ("figure-eight", "trefoil"):
        entry = jones.CATALOG[name]
        monkeypatch.setitem(jones.CATALOG, name, entry._replace(values=recorded(entry.values)))
    ctx = RootContext(3)
    assert colored_jones_catalog("figure-eight", 7 * 10 ** 6, ctx) == \
        colored_jones_catalog("figure-eight", 7, ctx)
    assert asked == [(3, 0, 7 * 10 ** 6), (3, 0, 7)]
    assert colored_jones_catalog("figure-eight", 7 * 10 ** 6 + 2, ctx) == \
        colored_jones_catalog("figure-eight", 2, ctx)
    assert asked[2:] == [(3, 2, 0), (3, 2, 0)]
    assert colored_jones_catalog("trefoil", 7 * 10 ** 6, ctx) == \
        colored_jones_catalog("trefoil", 7, ctx)
    assert asked[4:] == [(3, 0, 7 * 10 ** 6), (3, 0, 7)]


def test_figure_eight_certificate_can_fail(monkeypatch):
    monkeypatch.setattr(jones, "JONES_REL_TOL", 1e-300)
    with pytest.raises(PrecisionLoss, match=r"figure-eight J\(1\) at r=100 "):
        catalog_jones_values("figure-eight", 100, 100)


def test_trefoil_certificate_can_fail(monkeypatch):
    monkeypatch.setattr(jones, "JONES_REL_TOL", 1e-300)
    with pytest.raises(PrecisionLoss, match=r"trefoil J\(1\) at r=100 "):
        catalog_jones_values("trefoil", 100, 100)


@pytest.mark.parametrize("r", (*range(1, 13), 27, 86, 150, 295, 500))
def test_trefoil_running_sums_match_morton_oracle(r):
    # the sums themselves: the catalog refuses levels below 3
    ours = jones._trefoil_values(r, r)
    ref = morton_trefoil(r, r)
    assert len(ours) == r
    assert all(abs(a - b) <= 1e-12 * abs(b) for a, b in zip(ours, ref))


@pytest.mark.parametrize("r", (*range(3, 41), 57, 150, 295, 500))
def test_catalog_floats_match_the_numpy_forms(r):
    assert jones._q_bits(2 * r + 1) == numpy_q_bits(2 * r + 1)


def test_trefoil_certifies_every_color_at_r3000():
    assert len(catalog_jones_values("trefoil", 3000, 3000)) == 3000


def test_trefoil_certifies_every_color_at_r50000():
    assert len(catalog_jones_values("trefoil", 50000, 50000)) == 50000


def test_trefoil_certifies_at_r400000():
    # the table at F = 64 + bitlen(NN) bits keeps the certificate's table share near 2^-64
    # at every level, so the colors certify wherever the byte count fits the budget
    values = catalog_jones_values("trefoil", 400000, 5)
    assert values[0] == 1
    assert len(values) == 5


@pytest.mark.parametrize("r, colors", ((3, (8, 9, 13)),
                                       pytest.param(5, range(12, 22), marks=pytest.mark.slow)))
def test_trefoil_colors_past_2r_fold_onto_the_sums(r, colors):
    # at t = exp(4 pi i/NN), J(n) depends only on min(n mod NN, -n mod NN), so no color
    # outside the class of NN needs Morton's vanishing denominator
    ctx = RootContext(r)
    values = catalog_jones_values("trefoil", r, 2 * r)
    for n in colors:
        exact = colored_jones_exact(TREFOIL, n).eval_at(ctx.t_value)
        cat = colored_jones_catalog("trefoil", n, ctx)
        assert abs(cat - exact) <= 1e-10 * abs(exact), n
        assert cat == values[min(n % (2 * r + 1), -n % (2 * r + 1)) - 1]


@pytest.mark.parametrize("word, backend, r, n, k", (
    ((1, 1, 1, 2, -1, 2), "auto", 8, 23, 6), ((1, 1, 1, 2, -1, 2), "auto", 8, 28, 6),
    ((1, 1, 1, 2, -1, 2), "auto", 8, 40, 6), ((1, 1, 1, 2, -1, 2), "exact", 3, 9, 2),
    ((1, -2, 1, -2), "rmatrix", 5, 10 ** 6, 1)))
def test_every_backend_runs_a_color_at_its_class(word, backend, r, n, k):
    # the same fold for any word: the 5_2 word's R-matrix and exact engines, and the
    # figure-eight word's R-matrix at a color whose representation no budget admits
    K, ctx = KnotPresentation.from_braid(word, 3), RootContext(r)
    value = colored_jones(K, n, ctx, backend)
    assert value.n == n and value.value == colored_jones(K, k, ctx, backend).value
    exact = colored_jones_exact(K, k).eval_at(ctx.t_value)
    assert abs(value.value - exact) <= 1e-10 * abs(exact)


@pytest.mark.parametrize("r", (3, 4, 5))
def test_trefoil_class_zero_is_the_exact_value(r):
    # den'(2r+1) = 0, and l'Hopital in A gives J(2r+1) from the same table: the value of
    # every multiple of 2r+1, conjugated for the mirror
    ctx, NN = RootContext(r), 2 * r + 1
    exact = colored_jones_exact(TREFOIL, NN).eval_at(ctx.t_value)
    value = colored_jones_catalog("trefoil", NN, ctx)
    assert abs(value - exact) <= 1e-10 * abs(exact)
    assert colored_jones_catalog("trefoil-mirror", NN, ctx) == value.conjugate()
    assert colored_jones_catalog("trefoil", 10 ** 6 * NN, ctx) == value
    assert catalog_jones_values("trefoil", r, NN + 3)[NN - 1] == value


def test_uncertifiable_value_raises(monkeypatch):
    # every color certifies, the class of 2r+1 by its own bound; under a tolerance no sum
    # meets, a multiple of 2r+1 asked alone raises naming itself, and a run of colors at J(1)
    for r in (3, 10, 40):
        assert len(catalog_jones_values("trefoil", r, 2 * r + 4)) == 2 * r + 4
    monkeypatch.setattr(jones, "JONES_REL_TOL", 1e-300)
    for r in (3, 10, 40):
        NN = 2 * r + 1
        with pytest.raises(PrecisionLoss, match=rf"trefoil J\({3 * NN}\) at r={r} "):
            colored_jones_catalog("trefoil", 3 * NN, RootContext(r))
        with pytest.raises(PrecisionLoss, match=rf"trefoil J\(1\) at r={r} "):
            catalog_jones_values("trefoil", r, NN + 3)
