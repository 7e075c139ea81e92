import math

import mpmath
import numpy as np
import pytest

from oracles import cyclotomic_jones, lobachevsky_series, numpy_norm
from skeinquant import knotstate
from skeinquant.errors import UnknownCatalogEntry
from skeinquant.jones import KnotPresentation, catalog_jones_values
from skeinquant.knotstate import (L2Norm, knot_state, l2_norm_formula,
                                  l2_norm_quadrature, lobachevsky, reference_volume,
                                  volume_sequence, write_volume_csv)
from skeinquant.roots import RootContext, quantum_integer
from skeinquant.tqft import kirby_constants

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
        want = float(mpmath.log(abs(z)))
        assert abs(knotstate._log_abs(z) - want) <= 1e-15 * max(1.0, abs(want))
    huge = mpmath.mpf((-3, 5000), prec=0)   # far past the double range
    assert knotstate._log_abs(huge) == pytest.approx(math.log(3) + 5000 * math.log(2), rel=1e-15)
    assert knotstate._log_abs(0j) == -math.inf
    assert knotstate._log_abs(-3 + 4j) == pytest.approx(math.log(5), rel=1e-15)


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


def test_norm_invariant_under_phase():
    r = 4
    state = knot_state(FIG8, r)
    base = state.coeffs.norm()
    rotated = np.array(state.coeffs.coeffs) * np.exp(0.7j)
    assert np.linalg.norm(rotated) == pytest.approx(base, rel=1e-12)


def test_extended_precision_recomputation():
    r = 10
    a = l2_norm_formula(FIG8, r).norm
    ctx, eta = RootContext(r), kirby_constants(r).eta
    ref = cyclotomic_jones("figure-eight", r, r, 100 + r)
    b = math.sqrt(sum((eta * quantum_integer(n, ctx) * abs(complex(j))) ** 2
                      for n, j in enumerate(ref, start=1)))
    assert abs(a - b) / a < 1e-12


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
    assert reference_volume("5_2", user_value=2.82812) == pytest.approx(2.82812)
    with pytest.raises(UnknownCatalogEntry):
        reference_volume("5_2")


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


def test_reference_volume_follows_the_braid_word(monkeypatch):
    mislabeled = KnotPresentation.from_braid((1, 1, 1), 2, name="figure-eight")
    assert volume_sequence(mislabeled, [10])[0].ref_vol == 0.0
    with pytest.raises(UnknownCatalogEntry):
        volume_sequence(KnotPresentation.from_braid((1, 1, 1, 2), 3, name="trefoil"), [5])
    # computed once per process: later calls do not sum the series again
    volume = reference_volume("figure-eight")
    monkeypatch.setattr(knotstate, "lobachevsky", None)
    assert reference_volume("figure-eight") == volume == pytest.approx(2.029883212819307)


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
    ours, ref = knotstate._norm(r, values), numpy_norm(r, values)
    assert (ours.log_norm_sq, ours.argmax_n) == (ref.log_norm_sq, ref.argmax_n)
    # numpy's float64 exp runs a SIMD kernel of its own on AVX-512 hosts, which differs
    # from the C library's exp in the last bit for a few percent of arguments
    assert abs(ours.norm_sq - ref.norm_sq) <= math.ulp(ref.norm_sq)
    assert abs(ours.norm - ref.norm) <= math.ulp(ref.norm)


def test_norm_past_the_double_range_reads_inf():
    # |state|^2 = e^713.4 leaves the double range; its square root and log do not
    assert l2_norm_formula(FIG8, 1100) == L2Norm(math.inf, 8.182679040987989e+154,
                                                 713.4002478584017, 1100)
