import math

import mpmath
import pytest

from oracles import (cabled_jones, cyclotomic_jones, dense_rmatrix_jones, mirrored,
                     morton_trefoil)
from skeinquant import jones
from skeinquant.errors import (InexactDivision, PrecisionLoss, StateSpaceTooLarge,
                               UnknownCatalogEntry)
from skeinquant.jones import (JONES_REL_TOL, KnotPresentation, catalog_jones_values,
                              colored_jones, colored_jones_catalog, colored_jones_exact,
                              colored_jones_rmatrix, so3_bracket_coefficient)
from skeinquant.laurent import LaurentPoly
from skeinquant.roots import RootContext, quantum_integer

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


SECTOR_KNOTS = (((1, 1, 1), 2), ((-1, -1, -1), 2), ((1, -2, 1, -2), 3),
                ((1, 1, 1, 2), 3), ((1, -2, 3, -1, 2, -3, 2), 4))


@pytest.mark.parametrize("r", (5, 8, 30))
@pytest.mark.parametrize("word, strands", SECTOR_KNOTS)
def test_sector_engine_matches_dense_oracle(word, strands, r):
    K = KnotPresentation.from_braid(word, strands)
    ctx = RootContext(r)
    for n in range(1, 6):
        dense = dense_rmatrix_jones(K, n, ctx)
        assert abs(colored_jones_rmatrix(K, n, ctx) - dense) <= 1e-11 * max(1.0, abs(dense))


@pytest.mark.parametrize("mirror", (False, True))
@pytest.mark.parametrize("word, strands", SECTOR_KNOTS)
def test_exact_engine_matches_cabled_oracle(word, strands, mirror):
    if mirror:
        word = tuple(-g for g in word)
    K = KnotPresentation.from_braid(word, strands)
    for n in range(1, 4 if strands == 4 else 5):
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


def test_degree_window_one_short_raises(monkeypatch):
    n = 3
    J = cabled_jones(FIG8, n)
    # T = J(A^4) [n] A^-((n^2-1) writhe), and the figure-eight has writhe 0
    lo, hi = 4 * J.min_exp - 2 * (n - 1), 4 * J.max_exp + 2 * (n - 1)
    uncached = jones._colored_jones_exact_cached.__wrapped__
    monkeypatch.setattr(jones, "_degree_window", lambda word, s, N: (lo, hi - 4))
    with pytest.raises(InexactDivision):
        uncached(FIG8.braid.word, FIG8.braid.strands, n)
    monkeypatch.setattr(jones, "_degree_window", lambda word, s, N: (lo, hi))
    assert uncached(FIG8.braid.word, FIG8.braid.strands, n) == J


def test_exact_points_are_chunked_to_the_budget(monkeypatch):
    # figure-eight n=4: 29 points of 4 * 12^2 + 340 int64 entries each, and 29^2
    # Newton inverses; the whole batch needs 219256 bytes, one point 14056
    word, strands = FIG8.braid.word, FIG8.braid.strands
    uncached = jones._colored_jones_exact_cached.__wrapped__
    sizes, trace_mod = [], jones._trace_mod
    monkeypatch.setattr(jones, "_trace_mod",
                        lambda *args: sizes.append(len(args[-1])) or trace_mod(*args))
    assert uncached(word, strands, 4) == cabled_jones(FIG8, 4) and set(sizes) == {29}
    sizes.clear()
    monkeypatch.setattr(jones, "RMATRIX_BYTE_BUDGET", 50000)   # (50000/8 - 841) // 916 = 5
    assert uncached(word, strands, 4) == cabled_jones(FIG8, 4)
    assert sizes[:6] == [5, 5, 5, 5, 5, 4] and set(sizes) == {5, 4}
    monkeypatch.setattr(jones, "RMATRIX_BYTE_BUDGET", 14000)
    with pytest.raises(StateSpaceTooLarge, match="has 12 states"):
        uncached(word, strands, 4)


def test_prime_table():
    # the largest sector the budget admits for one int64 point
    d_max = math.isqrt(jones.RMATRIX_BYTE_BUDGET // (4 * 8))
    with pytest.raises(StateSpaceTooLarge):
        jones._check_budget(d_max + 1, 2, 8)   # two strands: the largest sector has N states
    assert jones._check_budget(d_max, 2, 8) == 1
    assert len(set(jones._PRIMES)) == len(jones._PRIMES)
    for p in jones._PRIMES:
        assert p % 4 == 3 and p < 2 ** 25
        assert p % 2 and all(p % f for f in range(3, math.isqrt(p) + 1, 2))
        assert d_max * p * p < 2 ** 63


def test_auto_past_the_budget_raises_without_exact(monkeypatch):
    def no_exact(*args, **kwargs):
        raise AssertionError("auto fell back to the exact backend")

    monkeypatch.setattr(jones, "colored_jones_exact", no_exact)
    wide = KnotPresentation.from_braid((1, 2, 3, 4, 5, 6), 7)
    with pytest.raises(StateSpaceTooLarge,
                       match="has 24017 states and needs 35206 MiB, over the 256 MiB sector"):
        colored_jones(wide, 6, RootContext(20))


def test_catalog_unknown():
    ctx = RootContext(4)
    with pytest.raises(UnknownCatalogEntry):
        colored_jones_catalog("granny", 2, ctx)


def test_so3_bracket_coefficient():
    ctx = RootContext(3)
    # color zero always evaluates to 1
    for K in (UNKNOT, TREFOIL, FIG8):
        assert so3_bracket_coefficient(K, 0, ctx) == pytest.approx(1.0, abs=1e-12)
    # unknot gives the signed quantum integer
    for n in range(0, 3):
        val = so3_bracket_coefficient(UNKNOT, n, ctx)
        expect = (-1) ** n * quantum_integer(n + 1, ctx)
        assert val == pytest.approx(expect, abs=1e-12)
    # modulus identity against an independently evaluated Jones value
    for n in (1, 2):
        coef = so3_bracket_coefficient(FIG8, n, ctx)
        jval = colored_jones_exact(FIG8, n + 1).eval_at(ctx.t_value)
        assert abs(abs(coef) - abs(quantum_integer(n + 1, ctx) * jval)) < 1e-12
    with pytest.raises(ValueError):
        so3_bracket_coefficient(FIG8, 3, ctx)


def test_dispatch_backends():
    ctx = RootContext(4)
    assert colored_jones(FIG8, 2, ctx).backend == "catalog"
    # the catalog is keyed by braid word, so the trefoil word needs no name
    assert colored_jones(KnotPresentation.from_braid((1, 1, 1), 2), 2, ctx).backend == "catalog"
    custom = KnotPresentation.from_braid((1, 1, 1, 2), 3)
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
        colored_jones(KnotPresentation.from_braid((1, 1, 1, 2), 3, name="trefoil"),
                      2, ctx, backend="catalog")


@pytest.mark.parametrize("r", (100, 140, 149, 300))
@pytest.mark.parametrize("name", ("trefoil", "figure-eight"))
def test_catalog_precision_against_oracle(name, r):
    ours = catalog_jones_values(name, r, r)
    ref = cyclotomic_jones(name, r, r, 100 + r)
    with mpmath.workprec(100 + r):
        worst = max(abs(mpmath.mpc(a) - b) / abs(b) for a, b in zip(ours, ref))
    assert worst < JONES_REL_TOL


def test_figure_eight_at_r500_against_oracle():
    # the partial products reach 2^241.6 here, and J(n) cancels up to 231 bits of them
    ours = catalog_jones_values("figure-eight", 500, 500)
    ref = cyclotomic_jones("figure-eight", 500, 500, 600)
    with mpmath.workprec(600):
        worst = max(abs(a - b) / abs(b) for a, b in zip(ours, ref))
    assert worst < JONES_REL_TOL


@pytest.mark.parametrize("r", range(3, 13))
def test_figure_eight_small_levels_every_color(r):
    # three periods of colors: factors c(n) - c(j) of adjacent table entries, and from
    # n = r + 1 on the exact zeros at j = -n mod 2r+1
    n_max = 3 * (2 * r + 1)
    ours = catalog_jones_values("figure-eight", r, n_max)
    ref = cyclotomic_jones("figure-eight", r, n_max, 200)
    with mpmath.workprec(200):
        assert all(abs(a - b) <= JONES_REL_TOL * abs(b) for a, b in zip(ours, ref))


@pytest.mark.parametrize("r", (*range(1, 13), 27, 86, 150, 295, 500))
def test_trefoil_running_sums_match_morton_oracle(r):
    ours = catalog_jones_values("trefoil", r, r)
    ref = morton_trefoil(r, r)
    assert len(ours) == r
    assert all(abs(a - b) <= 1e-12 * abs(b) for a, b in zip(ours, ref))


def test_trefoil_certifies_every_color_at_r3000():
    assert len(catalog_jones_values("trefoil", 3000, 3000)) == 3000


def test_uncertifiable_value_raises():
    # n = 2r+1 puts Morton's denominator sin(2 pi n/(2r+1)) at zero
    with pytest.raises(PrecisionLoss):
        catalog_jones_values("trefoil", 3, 7)
    for r in (3, 10, 40):   # every color below 2r+1 certifies, and 2r+1 is the one that raises
        NN = 2 * r + 1
        assert len(catalog_jones_values("trefoil", r, NN - 1)) == NN - 1
        with pytest.raises(PrecisionLoss, match=rf"trefoil J\({NN}\) at r={r} "):
            catalog_jones_values("trefoil", r, NN + 3)
