import math
import random

import pytest

from skeinquant.errors import InexactDivision
from skeinquant.laurent import (LaurentPoly, loop_value, quantum_integer_poly,
                                signed_color_norm)


def rand_poly(rng, max_terms=6, span=8):
    return LaurentPoly({rng.randint(-span, span): rng.randint(-5, 5)
                        for _ in range(rng.randint(0, max_terms))})


def test_zero_coefficients_dropped():
    p = LaurentPoly({3: 0, 1: 2, -2: 0})
    assert p.terms == {1: 2}
    assert LaurentPoly({0: 1}) - 1 == LaurentPoly.zero()


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(200):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_monomial_degree_additivity():
    m1 = LaurentPoly.monomial(3, 4)
    m2 = LaurentPoly.monomial(-5, 2)
    prod = m1 * m2
    assert prod.terms == {-2: 8}


def test_pow():
    p = LaurentPoly({1: 1, -1: 1})
    assert p ** 0 == LaurentPoly.one()
    assert p ** 2 == LaurentPoly({2: 1, 0: 2, -2: 1})
    assert LaurentPoly.monomial(2, -1) ** -3 == LaurentPoly.monomial(-6, -1)
    with pytest.raises(ValueError):
        p ** -1


def test_divexact_roundtrip():
    rng = random.Random(5)
    for _ in range(100):
        a = rand_poly(rng)
        b = rand_poly(rng)
        if b.is_zero():
            continue
        assert (a * b).divexact(b) == a


def test_divexact_rejects_remainder():
    num = LaurentPoly({2: 1, 0: 1})  # A^2 + 1
    den = LaurentPoly({1: 1, 0: 1})  # A + 1
    with pytest.raises(InexactDivision):
        num.divexact(den)


def test_divexact_by_zero_and_by_an_indivisible_leading_coefficient():
    with pytest.raises(ZeroDivisionError):
        LaurentPoly({1: 3}).divexact(LaurentPoly.zero())
    with pytest.raises(InexactDivision, match="leading coefficient not divisible"):
        LaurentPoly({1: 3}).divexact(LaurentPoly({1: 2}))


def test_in_variable_power():
    p = LaurentPoly({8: 1, -4: -2})
    q = p.in_variable_power(4)
    assert q == LaurentPoly({2: 1, -1: -2})
    with pytest.raises(InexactDivision):
        LaurentPoly({2: 1}).in_variable_power(4)


def test_eval_homomorphism():
    rng = random.Random(7)
    x = complex(0.31, 0.87)
    x /= abs(x)
    for _ in range(50):
        a, b = rand_poly(rng), rand_poly(rng)
        lhs = (a * b).eval_at(x)
        rhs = a.eval_at(x) * b.eval_at(x)
        assert abs(lhs - rhs) < 1e-12
        assert abs((a + b).eval_at(x) - (a.eval_at(x) + b.eval_at(x))) < 1e-12


def test_eval_is_ascending_exponent_order():
    # same value both times; ordering fixed by construction
    p = LaurentPoly({5: 3, -7: 2, 0: -1})
    x = complex(math.cos(0.4), math.sin(0.4))
    assert p.eval_at(x) == p.eval_at(x)


def test_format_styles():
    assert loop_value().format("A") == "-A^-2 - A^2"
    fig8_jones = LaurentPoly({-2: 1, -1: -1, 0: 1, 1: -1, 2: 1})
    assert fig8_jones.format("t") == "t^-2 - t^-1 + 1 - t + t^2"
    assert LaurentPoly.zero().format() == "0"
    assert LaurentPoly({0: -3, 2: 2}).format("A") == "-3 + 2A^2"


def test_quantum_integer_poly():
    assert quantum_integer_poly(1) == LaurentPoly.one()
    assert quantum_integer_poly(2) == LaurentPoly({2: 1, -2: 1})
    assert quantum_integer_poly(3) == LaurentPoly({4: 1, 0: 1, -4: 1})
    # defining relation [n+1] = [2][n] - [n-1]
    two = quantum_integer_poly(2)
    for n in range(2, 8):
        assert quantum_integer_poly(n + 1) == two * quantum_integer_poly(n) - quantum_integer_poly(n - 1)


def test_signed_color_norm_matches_loop_evaluation():
    # evaluating the n-th color on a single loop gives (-1)^n [n+1]
    from oracles import chebyshev_coeffs
    delta = loop_value()
    for n in range(6):
        val = LaurentPoly.zero()
        power = LaurentPoly.one()
        for j, c in enumerate(chebyshev_coeffs(n)):
            if c:
                val = val + power * c
            power = power * delta
        assert val == signed_color_norm(n)
