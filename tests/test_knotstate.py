import math

import mpmath
import numpy as np
import pytest

from oracles import cyclotomic_jones, exact, lobachevsky, lobachevsky_series, numpy_norm
from skeinquant import jones, knotstate
from skeinquant.errors import SkeinQuantError, UnknownCatalogEntry
from skeinquant.jones import CATALOG, Dyadic, KnotPresentation, catalog_jones_values
from skeinquant.knotstate import (L2Norm, knot_state, l2_norm_formula,
                                  l2_norm_quadrature, reference_volume,
                                  volume_sequence, write_volume_csv)
from skeinquant.roots import RootContext, quantum_integer
from skeinquant.tqft import _weights, kirby_constants

UNKNOT = KnotPresentation.from_catalog("unknot")
TREFOIL = KnotPresentation.from_catalog("trefoil")
FIG8 = KnotPresentation.from_catalog("figure-eight")


def test_unknot_state_coefficients():
    r = 3
    state = knot_state(UNKNOT, r)
    ctx = RootContext(r)
    eta = kirby_constants(r).eta
    for n in range(1, r + 1):
        expect = eta * (-1) ** (n - 1) * quantum_integer(n, ctx)
        assert state.coeffs.coeffs[n - 1] == pytest.approx(expect, abs=1e-12)


def test_log_abs_reads_the_exact_pair():
    values = catalog_jones_values("figure-eight", 300, 300)
    for z in values[1:]:
        want = float(mpmath.log(abs(exact(z))))
        assert abs(knotstate._log_abs(z) - want) <= 1e-15 * max(1.0, abs(want))
    huge = Dyadic(-3 << 5100, -100)   # far past the double range
    assert knotstate._log_abs(huge) == pytest.approx(math.log(3) + 5000 * math.log(2), rel=1e-15)
    assert knotstate._log_abs(Dyadic(0, -10)) == -math.inf
    assert knotstate._log_abs(0j) == -math.inf
    assert knotstate._log_abs(-3 + 4j) == pytest.approx(math.log(5), rel=1e-15)


def test_log_abs_of_a_dyadic_is_the_mpf_reading():
    # the mpf that held each value before, normalized to an odd mantissa, read as
    # log(man 2^-b) + (exp + b) log 2: the same double for every figure-eight value
    def mpf_log_abs(z):
        bits = z.man.bit_length()
        return math.log(z.man / 2 ** bits) + (z.exp + bits) * math.log(2)

    for v in catalog_jones_values("figure-eight", 300, 300):
        assert knotstate._log_abs(v) == mpf_log_abs(mpmath.mpf((v.man, v.exp), prec=0))


def test_first_coefficient_is_eta():
    for K in (TREFOIL, FIG8):
        state = knot_state(K, 4)
        assert state.coeffs.coeffs[0] == pytest.approx(kirby_constants(4).eta, abs=1e-12)


def test_coefficient_modulus_identity():
    r = 3
    ctx = RootContext(r)
    state = knot_state(FIG8, r)
    eta = kirby_constants(r).eta
    from skeinquant.jones import colored_jones_catalog
    for n in range(1, r + 1):
        j = colored_jones_catalog("figure-eight", n, ctx)
        target = eta * abs(quantum_integer(n, ctx) * j)
        assert abs(state.coeffs.coeffs[n - 1]) == pytest.approx(target, abs=1e-10)


def test_unknot_norm_is_exactly_one():
    for r in (3, 7, 25, 80):
        res = l2_norm_formula(UNKNOT, r)
        assert res.norm == pytest.approx(1.0, abs=1e-12)


def test_parseval_formula_vs_quadrature():
    for K in (UNKNOT, TREFOIL, FIG8):
        for r in (3, 4, 5, 6):
            f = l2_norm_formula(K, r).norm
            q = l2_norm_quadrature(K, r)
            assert abs(f - q) / f < 1e-6


@pytest.mark.parametrize("K", (TREFOIL, FIG8), ids=lambda K: K.name)
@pytest.mark.parametrize("r", (60, 200, 500))
def test_quadrature_norm_matches_the_formula_at_large_levels(K, r):
    # b N = 121, 401 and 1001 at tau = i: no theta factor leaves the float range
    log_q = 2 * math.log(l2_norm_quadrature(K, r))
    assert abs(log_q - l2_norm_formula(K, r).log_norm_sq) <= 1e-12


@pytest.mark.parametrize("K", (TREFOIL, FIG8), ids=lambda K: K.name)
@pytest.mark.parametrize("r", (20, 60))
@pytest.mark.parametrize("tau", (0.3 + 1.7j, 2 + 3j))
def test_quadrature_norm_matches_the_formula_off_tau_i(K, r, tau):
    # the formula does not see tau; the quadrature runs on the tau grid
    log_q = 2 * math.log(l2_norm_quadrature(K, r, tau))
    assert abs(log_q - l2_norm_formula(K, r).log_norm_sq) <= 1e-12


def test_norm_invariant_under_phase():
    r = 4
    state = knot_state(FIG8, r)
    base = state.coeffs.norm()
    rotated = np.array(state.coeffs.coeffs) * np.exp(0.7j)
    assert np.linalg.norm(rotated) == pytest.approx(base, rel=1e-12)


def test_extended_precision_recomputation():
    for r in (10, 40, 120):
        a = l2_norm_formula(FIG8, r).norm
        ctx, eta = RootContext(r), kirby_constants(r).eta
        ref = cyclotomic_jones("figure-eight", r, r, 100 + r)
        b = math.sqrt(sum((eta * quantum_integer(n, ctx) * abs(complex(j))) ** 2
                          for n, j in enumerate(ref, start=1)))
        assert abs(a - b) / a < 1e-12, r


def _values_spy(monkeypatch) -> list:
    """The calls l2_norm_formula makes to colored_jones_values, the per-color path."""
    calls = []
    values = knotstate.colored_jones_values
    monkeypatch.setattr(knotstate, "colored_jones_values",
                        lambda *args: calls.append(args[1:]) or values(*args))
    return calls


NORM_GROWTH_SEED_1 = (27, 57, 86, 120, 150, 174, 205, 237, 264, 295)


def test_figure_eight_norm_certifies_from_the_float_bounds(monkeypatch):
    # the float pass's bounds certify the norm to 1e-12 at the norm_growth levels of seed 1
    calls = _values_spy(monkeypatch)
    monkeypatch.setattr(jones, "JONES_REL_TOL", 1e-12)
    for r in NORM_GROWTH_SEED_1:
        l2_norm_formula(FIG8, r)
    assert calls == []


def test_trefoil_norm_certifies_from_the_integer_sums(monkeypatch):
    # no norm_growth level of seed 1 sums the trefoil's values color by color
    calls = _values_spy(monkeypatch)
    for r in NORM_GROWTH_SEED_1:
        for K in (TREFOIL, KnotPresentation.from_catalog("trefoil-mirror")):
            l2_norm_formula(K, r)
    assert calls == []


@pytest.mark.parametrize("K", (TREFOIL, KnotPresentation.from_catalog("trefoil-mirror"),
                               KnotPresentation.from_braid((1, 1, 1, 2), 3)),
                         ids=("trefoil", "trefoil-mirror", "1 1 1 2"))
def test_trefoil_norm_is_the_nearest_integer_to_a_third_of_2r_plus_1(K):
    # an observed closed form, not a proven one, so it stays here and not on the product path:
    # the certified norm is its exact integer
    for r in (*range(3, 301), 1000):
        assert l2_norm_formula(K, r).norm_sq == round((2 * r + 1) / 3), r


def test_unknot_norm_is_its_closed_form(monkeypatch):
    # sum_{n<=r} (eta [n])^2 = 1 exactly (docs/conventions.md "Catalog norms"); the per-color
    # log-sum-exp read 1 +- 2^-52 at 25 of these levels, r = 4 and 6 among them
    calls = _values_spy(monkeypatch)
    for r in range(3, 401):
        res = l2_norm_formula(UNKNOT, r)
        assert (res.norm_sq, res.log_norm_sq, res.argmax_n) == (1.0, 0.0, 1), r
    assert calls == []


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_knot_state_norm_agrees_with_the_catalog_norm_pass(name):
    # knot_state sums its certified values and l2_norm_formula takes the entry's norm pass:
    # two paths, each within JONES_REL_TOL, that agree far closer (worst 2.8e-14 measured)
    K = KnotPresentation.from_catalog(name)
    for r in (*range(3, 81), *NORM_GROWTH_SEED_1):
        a, b = knot_state(K, r).norm, l2_norm_formula(K, r)
        assert abs(a.norm_sq - b.norm_sq) <= 1e-12 * b.norm_sq, r
        assert abs(a.log_norm_sq - b.log_norm_sq) <= 1e-12, r
        assert a.argmax_n == b.argmax_n, r


def test_a_failed_norm_certificate_takes_the_values(monkeypatch):
    # below the float bounds' 5e-13 at r = 237, above what the exact values need
    calls = _values_spy(monkeypatch)
    monkeypatch.setattr(jones, "JONES_REL_TOL", 1e-13)
    r = 237
    assert l2_norm_formula(FIG8, r) == knotstate._norm(
        catalog_jones_values("figure-eight", r, r), _weights(r))
    assert calls == [(r,)]


def test_a_level_past_the_float_range_takes_the_values(monkeypatch):
    # the per-color sum is replaced by ones: the exact one takes seconds here
    calls = _values_spy(monkeypatch)
    ones = [Dyadic(1, 0)] * 2118
    monkeypatch.setitem(jones.CATALOG, "figure-eight", jones.CATALOG["figure-eight"]._replace(
        values=lambda r, n_max, zero: ones))
    assert l2_norm_formula(FIG8, 2118) == knotstate._norm(ones, _weights(2118))
    assert calls == [(2118,)]


def test_catalog_norm_follows_the_braid_word():
    mislabeled = KnotPresentation.from_braid((1, -2, 1, -2), 3, name="trefoil")
    assert l2_norm_formula(mislabeled, 10).norm == pytest.approx(31.5231, abs=1e-4)
    row, = volume_sequence(mislabeled, [10])
    assert row.ref_vol == reference_volume("figure-eight")


@pytest.mark.parametrize("K", (TREFOIL, FIG8))
def test_state_moduli_are_the_norm_terms(K):
    r = 60
    ctx, eta = RootContext(r), kirby_constants(r).eta
    terms = [(eta * quantum_integer(n, ctx) * abs(complex(j))) ** 2
             for n, j in enumerate(catalog_jones_values(K.name, r, r), start=1)]
    moduli_sq = np.abs(np.array(knot_state(K, r).coeffs.coeffs)) ** 2
    assert np.allclose(moduli_sq, terms, rtol=1e-12, atol=0)
    assert math.fsum(moduli_sq) == pytest.approx(l2_norm_formula(K, r).norm_sq, rel=1e-12)


def test_lobachevsky_series_against_clausen():
    # independent oracle: the sine series (1/2) sum sin(2 n theta)/n^2, against Clausen's Cl_2
    for theta in (math.pi / 6, math.pi / 3, 1.0):
        assert abs(lobachevsky(theta) - lobachevsky_series(theta)) < 1e-12


def test_reference_volumes():
    assert reference_volume("unknot") == 0.0
    assert reference_volume("trefoil") == 0.0
    v = reference_volume("figure-eight")
    assert v == pytest.approx(2.029883212819, abs=1e-11)
    assert v == 4 * lobachevsky(math.pi / 6)   # the double nearest 2.02988321281930725004
    assert reference_volume("5_2", user_value=2.82812) == pytest.approx(2.82812)
    with pytest.raises(UnknownCatalogEntry):
        reference_volume("5_2")


@pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf, -1.0, -1e-300))
def test_reference_volume_is_finite_and_nonnegative(value):
    with pytest.raises(SkeinQuantError, match="finite and nonnegative"):
        reference_volume(None, value)
    assert reference_volume(None, 0.0) == 0.0


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_reference_volume_of_a_catalog_word_takes_no_value(name):
    # the whole entry: its braid names it, and its volume is the reference
    K = KnotPresentation.from_catalog(name)
    assert jones.catalog_name(K) == name and K.braid == CATALOG[name].braid
    assert reference_volume(name) == CATALOG[name].volume
    for value in (7.0, reference_volume(name)):
        with pytest.raises(SkeinQuantError, match="catalog knot; pass no reference volume"):
            reference_volume(name, value)


def test_volume_rows_unknot_flat():
    rows = volume_sequence(UNKNOT, [10, 40])
    for row in rows:
        assert row.norm_sq == pytest.approx(1.0, abs=1e-10)
        assert abs(row.v_r) < 1e-10
        assert row.ref_vol == 0.0


def test_volume_rows_fig8_small():
    rows = volume_sequence(FIG8, [20, 30])
    assert [row.r for row in rows] == [20, 30]
    assert all(row.norm_sq > 0 for row in rows)
    assert all(row.argmax_n == row.r for row in rows)
    gaps = [abs(row.v_r - row.ref_vol) for row in rows]
    assert gaps[1] < gaps[0]


def test_csv_output(tmp_path):
    rows = volume_sequence(FIG8, [10, 20])
    path = tmp_path / "seq.csv"
    write_volume_csv(rows, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "r,norm_sq,v_r,argmax_n,ref_vol,rel_err"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "10"
    # 15 significant digits on floating columns
    assert len(first[1].replace(".", "").replace("-", "").lstrip("0")) >= 14


def test_reference_volume_follows_the_braid_word():
    mislabeled = KnotPresentation.from_braid((1, 1, 1), 2, name="figure-eight")
    assert volume_sequence(mislabeled, [10])[0].ref_vol == 0.0
    with pytest.raises(UnknownCatalogEntry):
        volume_sequence(KnotPresentation.from_braid((1, 1, 1, 2, -1, 2), 3, name="trefoil"),
                        [5])
    # a literal: no call sums the series
    assert reference_volume("figure-eight") == pytest.approx(2.029883212819307)


def test_unknot_growth_is_flat():
    # the weighted sum telescopes to 1 exactly, so the growth rate
    # vanishes: r * v_r / (2 pi) stays bounded by any log for r <= 500
    for r in (100, 300, 500):
        res = l2_norm_formula(UNKNOT, r)
        v_r = math.pi / r * res.log_norm_sq
        assert abs(r * v_r / (2 * math.pi)) < math.log(r)
        assert abs(v_r) < 1e-9


@pytest.mark.parametrize("r", (*range(3, 41), 57, 150, 295, 500))
@pytest.mark.parametrize("name", ("trefoil", "figure-eight"))
def test_norm_matches_the_numpy_log_sum_exp(name, r):
    values = catalog_jones_values(name, r, r)
    assert knotstate._norm(values, _weights(r)) == numpy_norm(r, values)


def test_norm_past_the_double_range_reads_inf():
    # |state|^2 = e^713.4 leaves the double range; its square root and log do not
    assert l2_norm_formula(FIG8, 1100) == L2Norm(math.inf, 8.182679040987989e+154,
                                                 713.4002478584017, 1100)
