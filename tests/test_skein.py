import math

import pytest

from oracles import (cabled_bracket, cabled_word, chebyshev_coeffs, is_primitive_root, mirrored,
                     pd_text, state_sum_bracket, transfer_bracket)
from skeinquant import cli, errors
from skeinquant.bracket import braid_closure_bracket, kauffman_bracket
from skeinquant.diagrams import BraidWord, LinkDiagram, braid_to_diagram
from skeinquant.errors import StateSpaceTooLarge
from skeinquant.laurent import LaurentPoly, loop_value, signed_color_norm
from skeinquant.roots import RootContext, eval_at_root, quantum_integer

DELTA = loop_value()

TREFOIL = BraidWord((1, 1, 1), 2)
FIGURE_EIGHT = BraidWord((1, -2, 1, -2), 3)
HOPF = BraidWord((1, 1), 2)
UNKNOT, KINKED_UNKNOT = BraidWord((), 1), BraidWord((1,), 2)


# -- quantum integers at the root ---------------------------------------

def test_quantum_integer_values():
    ctx = RootContext(3)
    assert quantum_integer(1, ctx) == pytest.approx(1.0, abs=1e-14)
    assert quantum_integer(2 * 3 + 1, ctx) == pytest.approx(0.0, abs=1e-12)
    assert quantum_integer(2, ctx) == pytest.approx(2 * math.cos(2 * math.pi / 7), abs=1e-12)
    for r in (4, 9):
        ctx = RootContext(r)
        assert quantum_integer(2 * r + 1, ctx) == pytest.approx(0.0, abs=1e-12)


def test_root_context_primitive():
    for r in (3, 5, 8):
        ctx = RootContext(r)
        assert is_primitive_root(ctx)
        assert abs(ctx.A_value ** 4 - ctx.t_value) < 1e-15


def test_eval_at_root_examples():
    ctx = RootContext(3)
    assert eval_at_root(LaurentPoly.one(), ctx) == pytest.approx(1.0)
    assert eval_at_root(LaurentPoly.monomial(4 * 3 + 2), ctx) == pytest.approx(1.0)
    val = eval_at_root(DELTA, ctx)
    assert val.real == pytest.approx(-2 * math.cos(2 * math.pi / 7), abs=1e-12)
    assert abs(val.imag) < 1e-12


# -- Chebyshev colors of the cabled oracle --------------------------------

def test_chebyshev_small():
    assert chebyshev_coeffs(0) == (1,)
    assert chebyshev_coeffs(1) == (0, 1)
    assert chebyshev_coeffs(2) == (-1, 0, 1)
    assert chebyshev_coeffs(5) == (0, 3, 0, -4, 0, 1)


def test_chebyshev_recurrence_and_leading():
    # independent walk of e_{n+1} = z e_n - e_{n-1}
    prev, cur = [1], [0, 1]
    for n in range(1, 9):
        got = list(chebyshev_coeffs(n))
        assert got == cur
        assert got[-1] == 1 and len(got) == n + 1
        nxt = [0] + cur
        for j, c in enumerate(prev):
            nxt[j] -= c
        prev, cur = cur, nxt
    assert chebyshev_coeffs(3) == (0, -2, 0, 1)
    assert chebyshev_coeffs(4) == (1, 0, -3, 0, 1)


# -- brackets: golden values and moves ------------------------------------

def test_single_loop():
    assert kauffman_bracket(braid_to_diagram(UNKNOT)) == DELTA


def test_empty_diagram():
    d = LinkDiagram([], free_loops=0)
    assert kauffman_bracket(d) == LaurentPoly.one()


def test_hopf_bracket():
    # frozen state-sum value; dividing by one loop factor gives the
    # familiar two-term polynomial
    b = kauffman_bracket(braid_to_diagram(HOPF))
    assert b == LaurentPoly({6: 1, 2: 1, -2: 1, -6: 1})
    assert b.divexact(DELTA) == LaurentPoly({4: -1, -4: -1})


def test_trefoil_bracket():
    b = kauffman_bracket(braid_to_diagram(TREFOIL))
    assert b == LaurentPoly({-7: 1, -3: 1, 1: 1, 9: -1})
    # chirality convention: normalized value mirrors -A^5 - A^-3 + A^-7
    assert b.divexact(DELTA) == LaurentPoly({-5: -1, 3: -1, 7: 1})


def test_pd_matches_transfer_on_braids():
    for braid in (TREFOIL, FIGURE_EIGHT, HOPF, BraidWord((1, -2, -2, 1), 3)):
        diagram = braid_to_diagram(braid)
        assert kauffman_bracket(diagram) == transfer_bracket(braid)
        assert braid_closure_bracket(braid) == state_sum_bracket(diagram)


def test_cabled_transfer_matches_cabled_state_sum():
    # the engine on the 12-crossing 2-cable, against both oracles; e_2 = z^2 - 1
    flat = BraidWord(*cabled_word(TREFOIL, [2, 2]))
    cabled = braid_closure_bracket(flat)
    assert cabled == state_sum_bracket(braid_to_diagram(flat)) == transfer_bracket(flat)
    assert cabled_bracket(TREFOIL, [2]) == cabled - 1


@pytest.mark.parametrize("code", ("X 1 1 2 2", "X 1 2 2 1",
                                  # a trefoil beside a kinked unknot: a split link
                                  "X 1 4 2 5\nX 3 6 4 1\nX 5 2 6 3\nX 7 8 8 7"))
def test_kinks_and_split_pd_match_state_sum(code):
    d = LinkDiagram.from_pd_text(code)
    assert kauffman_bracket(d) == state_sum_bracket(d)


def test_reidemeister_one():
    plain = braid_closure_bracket(BraidWord((), 1))
    pos_kink = braid_closure_bracket(BraidWord((1,), 2))
    neg_kink = braid_closure_bracket(BraidWord((-1,), 2))
    assert pos_kink == plain * LaurentPoly.monomial(-3, -1)
    assert neg_kink == plain * LaurentPoly.monomial(3, -1)


def test_reidemeister_two_three():
    assert braid_closure_bracket(BraidWord((1, -1), 2)) == braid_closure_bracket(BraidWord((), 2))
    assert braid_closure_bracket(BraidWord((2, -2, 1), 3)) == braid_closure_bracket(BraidWord((1,), 3))
    assert braid_closure_bracket(BraidWord((1, 2, 1), 3)) == braid_closure_bracket(BraidWord((2, 1, 2), 3))
    # conjugation invariance of the closure
    assert braid_closure_bracket(BraidWord((2, 1, 1, -2), 3)) == braid_closure_bracket(BraidWord((1, 1), 3))


def test_contraction_budget(monkeypatch, tmp_path, capsys):
    # the trefoil's contraction holds 2 coefficients after its first crossing, then 4
    monkeypatch.setattr(errors, "BYTE_BUDGET", 399)
    with pytest.raises(StateSpaceTooLarge, match=r"holds 4 coefficients \(states: 1\)"):
        kauffman_bracket(braid_to_diagram(TREFOIL))
    pd = tmp_path / "trefoil.pd"
    pd.write_text(pd_text(braid_to_diagram(TREFOIL)))
    assert cli.main(["bracket", "--pd", str(pd)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    monkeypatch.setattr(errors, "BYTE_BUDGET", 400)
    assert kauffman_bracket(braid_to_diagram(TREFOIL)) == LaurentPoly({-7: 1, -3: 1, 1: 1, 9: -1})


def test_pd_text_roundtrip():
    d = braid_to_diagram(TREFOIL)
    text = pd_text(d)
    d2 = LinkDiagram.from_pd_text(text)
    assert d2.crossings == d.crossings
    assert kauffman_bracket(d2) == kauffman_bracket(d)


def test_pd_standard_trefoil_code():
    # a standard 3-crossing knot code; bracket equals one of the two
    # trefoil chiralities produced by the braid route
    d = LinkDiagram.from_pd_text("X 1 4 2 5\nX 3 6 4 1\nX 5 2 6 3\n")
    ours = kauffman_bracket(braid_to_diagram(TREFOIL))
    assert kauffman_bracket(d) in (ours, mirrored(ours))


def test_well_formedness_rejects_bad_codes():
    with pytest.raises(ValueError):
        LinkDiagram([(1, 2, 3, 4)])  # arcs appear once
    with pytest.raises(ValueError):
        LinkDiagram([(1, 1, 2, 2), (1, 2, 3, 4)])


# -- colored brackets of the cabled oracle ---------------------------------

def test_color_zero_gives_one():
    assert cabled_bracket(HOPF, [0, 0]) == LaurentPoly.one()
    assert cabled_bracket(UNKNOT, [0]) == LaurentPoly.one()


def test_color_one_is_plain_bracket():
    for braid in (TREFOIL, FIGURE_EIGHT):
        assert cabled_bracket(braid, [1]) == kauffman_bracket(braid_to_diagram(braid))


@pytest.mark.parametrize("n", range(5))
def test_unknot_color_identity(n):
    assert cabled_bracket(UNKNOT, [n]) == signed_color_norm(n)


@pytest.mark.parametrize("n", range(4))
def test_framed_unknot_twist(n):
    # one positive kink on an e_n strand multiplies by (-1)^n A^-(n^2+2n)
    expected = signed_color_norm(n) * LaurentPoly.monomial(-(n * n + 2 * n), (-1) ** n)
    assert cabled_bracket(KINKED_UNKNOT, [n]) == expected


def test_hopf_colored_symmetry():
    assert cabled_bracket(HOPF, [2, 1]) == cabled_bracket(HOPF, [1, 2])


def test_eval_at_root_ring_homomorphism():
    import random
    from skeinquant.laurent import LaurentPoly
    rng = random.Random(13)
    ctx = RootContext(4)
    for _ in range(40):
        a = LaurentPoly({rng.randint(-6, 6): rng.randint(-4, 4) for _ in range(4)})
        b = LaurentPoly({rng.randint(-6, 6): rng.randint(-4, 4) for _ in range(4)})
        lhs = eval_at_root(a * b, ctx)
        rhs = eval_at_root(a, ctx) * eval_at_root(b, ctx)
        assert abs(lhs - rhs) < 1e-12
