import math
import tracemalloc
from functools import reduce
from itertools import islice

import mpmath
import numpy as np
import pytest

from oracles import (all_sector_bound, all_sector_loop, all_sector_window, cabled_jones,
                     cyclotomic_jones, dense_rmatrix_jones, exact, habiro_forward, mirrored,
                     morton_trefoil, mpmath_root_table, numpy_q_bits, numpy_trefoil)
from skeinquant import errors, jones
from skeinquant.errors import (InexactDivision, PrecisionLoss, StateSpaceTooLarge,
                               UnknownCatalogEntry)
from skeinquant.jones import (JONES_REL_TOL, Dyadic, KnotPresentation, catalog_jones_values,
                              catalog_name, colored_jones, colored_jones_catalog,
                              colored_jones_exact, colored_jones_rmatrix, colored_jones_values)
from skeinquant.laurent import LaurentPoly
from skeinquant.roots import RootContext, quantum_integer, unit_root

UNKNOT = KnotPresentation.from_catalog("unknot")
TREFOIL = KnotPresentation.from_catalog("trefoil")
FIG8 = KnotPresentation.from_catalog("figure-eight")


def test_catalog_presentations():
    assert TREFOIL.braid.word == (1, 1, 1) and TREFOIL.braid.strands == 2
    assert FIG8.braid.word == (1, -2, 1, -2) and FIG8.braid.strands == 3
    assert TREFOIL.writhe == 3 and FIG8.writhe == 0
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
    wide = KnotPresentation.from_braid((1, 2, 3, 4, 5, 6), 7)
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

    def every_sector(word, plan, gens, one, matmul, weigh):
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
    products, loop = [], jones._sector_loop

    def counted(word, plan, gens, one, matmul, weigh):
        return loop(word, plan, gens, one,
                    lambda X, Y: products.append(X.shape) or matmul(X, Y), weigh)

    monkeypatch.setattr(jones, "_sector_loop", counted)
    colored_jones_rmatrix(FIG8, 12, RootContext(30))
    assert len(products) == 17 * 3   # sectors w <= 16 of 0..33, each from its first block
    products.clear()
    assert abs(colored_jones_rmatrix(UNKNOT, 5, RootContext(8)) - 1) < 1e-12
    assert products == []            # the empty word's product is the identity


def test_sector_loop_builds_each_slot_index_once_per_sector(monkeypatch):
    builds, slot_index = [], jones._slot_index
    monkeypatch.setattr(jones, "_slot_index",
                        lambda flat, k, i, s, N: builds.append((len(flat), i))
                        or slot_index(flat, k, i, s, N))
    colored_jones_rmatrix(FIG8, 12, RootContext(30))
    assert len(builds) == 17 * 2 == len(set(builds))   # sectors w <= 16, slots 0 and 1
    builds.clear()
    colored_jones_rmatrix(KnotPresentation.from_braid((-1, 2, 2, 2, 2, -1, -2, 1), 3), 5,
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
    # a 4-strand word on its 3 slots, from cold tables and each backend's plan (the int64
    # call holds every visited sector's positions as a list, the complex128 call one sector
    # at a time): the bytes traced in one call stay within what _check_budget counts for
    # it, and over half of it
    word, s, P = (1, -2, 3, -1, 2, -3, 2), 4, 7
    E = 2 * N * (N + s)
    p = next(jones._primes(4 * P))
    powers = jones._unit_powers(p, P)
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
            assert fits == admitted, (itemsize, peak)


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


@pytest.mark.parametrize("word, strands, name", (
    ((1, 1, 1, 2), 3, "trefoil"), ((1, 1, 1, -2), 3, "trefoil"),   # the last strand goes
    ((-1, 2, 2, 2), 3, "trefoil"), ((2, -3, 2, -3, 1), 4, "figure-eight"),   # the first goes
    ((1, 2, 2, 2, 3), 4, "trefoil"), ((1, -2, 1, -2, 3), 4, "figure-eight"), ((1,), 2, "unknot"),
    ((1, 1, 1, 2, -1, 2), 3, None), ((-1, -1, -1, 2), 3, None)))   # 5_2, a stabilized mirror
def test_a_stabilized_catalog_word_takes_the_catalog(word, strands, name):
    K = KnotPresentation.from_braid(word, strands)
    assert catalog_name(K) == name
    ctx = RootContext(5)
    assert abs(colored_jones(K, 3, ctx).value
               - colored_jones(K, 3, ctx, backend="exact").value) < 1e-9


def test_the_trefoil_mirror_stays_off_the_catalog():
    # its J is the complex conjugate of the trefoil's
    mirror = KnotPresentation.from_braid((-1, -1, -1), 2)
    assert colored_jones(mirror, 2, RootContext(8)).backend == "rmatrix"


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
    assert {F for _, F, _ in tables[1::2]} == {52}
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
        monkeypatch.setitem(jones._CATALOG_SUMS, name, recorded(jones._CATALOG_SUMS[name]))
    ctx = RootContext(3)
    assert colored_jones_catalog("figure-eight", 7 * 10 ** 6, ctx) == \
        colored_jones_catalog("figure-eight", 7, ctx)
    assert asked == [(3, 0, 7 * 10 ** 6), (3, 0, 7)]
    assert colored_jones_catalog("figure-eight", 7 * 10 ** 6 + 2, ctx) == \
        colored_jones_catalog("figure-eight", 2, ctx)
    assert asked[2:] == [(3, 2, 0), (3, 2, 0)]
    with pytest.raises(PrecisionLoss, match=r"trefoil J\(7000000\) at r=3 "):
        colored_jones_catalog("trefoil", 7 * 10 ** 6, ctx)
    assert asked[-1] == (3, 0, 7 * 10 ** 6)


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
    ours = catalog_jones_values("trefoil", r, r)
    ref = morton_trefoil(r, r)
    assert len(ours) == r
    assert all(abs(a - b) <= 1e-12 * abs(b) for a, b in zip(ours, ref))


@pytest.mark.parametrize("r", (*range(3, 41), 57, 150, 295, 500))
def test_catalog_floats_match_the_numpy_forms(r):
    # the sums and den' are exact integers on the 2^-52 grid; each converts correctly
    # rounded, and a division by a power of two neither rounds nor moves a quotient
    assert jones._trefoil_values(r, r) == numpy_trefoil(r, r)
    assert jones._q_bits(2 * r + 1) == numpy_q_bits(2 * r + 1)


def test_trefoil_certifies_every_color_at_r3000():
    assert len(catalog_jones_values("trefoil", 3000, 3000)) == 3000


def test_trefoil_certifies_every_color_at_r50000():
    # the table's 0.78 units per part on the 2^-52 grid, under 2^-51 in modulus, certify
    # every color to r = 350000
    assert len(catalog_jones_values("trefoil", 50000, 50000)) == 50000


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


def test_uncertifiable_value_raises():
    # n = 2r+1 puts Morton's denominator sin(2 pi n/(2r+1)) at zero
    with pytest.raises(PrecisionLoss):
        catalog_jones_values("trefoil", 3, 7)
    for r in (3, 10, 40):   # every color below 2r+1 certifies, and 2r+1 is the one that raises
        NN = 2 * r + 1
        assert len(catalog_jones_values("trefoil", r, NN - 1)) == NN - 1
        with pytest.raises(PrecisionLoss, match=rf"trefoil J\({NN}\) at r={r} "):
            catalog_jones_values("trefoil", r, NN + 3)
        with pytest.raises(PrecisionLoss, match=rf"trefoil J\({3 * NN}\) at r={r} "):
            colored_jones_catalog("trefoil", 3 * NN, RootContext(r))
