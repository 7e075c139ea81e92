"""Kauffman brackets by planar contraction, and the colored brackets.

One engine, exact over the integer Laurent ring, evaluates every
bracket: it adds a diagram's crossings one at a time, keeping a Laurent
polynomial for each matching of the arcs left open (local tangle
contraction, Bar-Natan, "Fast Khovanov homology computations",
arXiv:math/0606318).  PD codes go in as they are; (cabled) braid
closures go in through braid_to_diagram.  The smoothing convention is
fixed in docs/conventions.md: for a crossing ``X a b c d`` the
A-smoothing joins a-d and b-c, which makes a positive kink contribute
-A**-3.
"""

from __future__ import annotations

import math
from itertools import product
from typing import NamedTuple

from . import errors
from .diagrams import BraidWord, LinkDiagram, braid_to_diagram
from .errors import CablingUnsupported
from .laurent import LaurentPoly, loop_value


# -- Chebyshev colors -------------------------------------------------

class ChebyshevColor(NamedTuple):
    """Coefficients of the n-th cabling color in powers of z.

    Satisfies e_0 = 1, e_1 = z, e_{k+1} = z*e_k - e_{k-1}; coeffs[j] is
    the integer coefficient of z**j.
    """

    n: int
    coeffs: tuple

    def monomials(self):
        """(width, coefficient) pairs for the nonzero terms."""
        return [(j, c) for j, c in enumerate(self.coeffs) if c != 0]


def chebyshev_coeffs(n: int) -> ChebyshevColor:
    if n < 0:
        raise ValueError("color index must be >= 0")
    prev = [1]
    if n == 0:
        return ChebyshevColor(0, (1,))
    cur = [0, 1]
    for _ in range(n - 1):
        nxt = [0] + cur
        for j, c in enumerate(prev):
            nxt[j] -= c
        prev, cur = cur, nxt
    return ChebyshevColor(n, tuple(cur))


def twist_monomial(n: int, kinks: int = 1) -> LaurentPoly:
    """Bracket factor of adding ``kinks`` positive kinks to an e_n-colored strand.

    One positive kink multiplies by (-1)**n A**-(n^2+2n).
    """
    sign = -1 if (n % 2 == 1 and kinks % 2 == 1) else 1
    return LaurentPoly.monomial(-(n * n + 2 * n) * kinks, sign)


# -- planar contraction --------------------------------------------------

def _join(partner: dict, x: int, y: int) -> int:
    """Join the arc ends x and y in the open-arc partner map; returns the loops closed."""
    if x == y or partner.get(x) == y:
        partner.pop(x, None)
        partner.pop(y, None)
        return 1
    # an open arc ends here, so the path runs on to its partner; a new arc stays open
    ex, ey = partner.pop(x, x), partner.pop(y, y)
    partner[ex] = ey
    partner[ey] = ex
    return 0


def _contract(crossings, free_loops: int) -> LaurentPoly:
    """Bracket of a planar diagram, adding its crossings one at a time.

    Each state is a matching of the open arcs (a partner map, frozen as
    its item set) with its coefficients {exponent: coefficient}.  The next
    crossing is the one with the most arcs already open, ties to the
    earliest.  StateSpaceTooLarge once the coefficients held at one time
    exceed errors.BYTE_BUDGET at about 100 bytes each.
    """
    delta = loop_value()
    loop_terms = [{0: 1}, delta.terms, (delta * delta).terms]
    # A-smoothing joins slots a-d and b-c, times A; B-smoothing a-b and c-d, times A**-1.
    # Each takes its factor A**+-1 * delta**loops by the number of loops it closes.
    smoothings = [(p, q, s, t, [[(e + shift, c) for e, c in lt.items()] for lt in loop_terms])
                  for shift, p, q, s, t in ((1, 0, 3, 1, 2), (-1, 0, 1, 2, 3))]
    states = {frozenset(): {0: 1}}
    pending = list(crossings)
    open_arcs: set = set()
    while pending:
        x = pending.pop(max(range(len(pending)),
                            key=lambda i: len(open_arcs.intersection(pending[i]))))
        open_arcs.symmetric_difference_update(x)   # a kink arc occurs twice: no-op
        nxt: dict = {}
        for key, terms in states.items():
            for p, q, s, t, factors in smoothings:
                partner = dict(key)
                loops = _join(partner, x[p], x[q]) + _join(partner, x[s], x[t])
                acc = nxt.setdefault(frozenset(partner.items()), {})
                for de, dc in factors[loops]:
                    for e, c in terms.items():
                        acc[e + de] = acc.get(e + de, 0) + c * dc
        states = {}
        held = 0
        for key, acc in nxt.items():
            terms = {e: c for e, c in acc.items() if c}
            if terms:
                states[key] = terms
                held += len(terms)
        errors.check_bytes(f"the bracket contraction holds {held} coefficients (states: "
                           f"{len(states)}) at about 100 bytes each and", 100 * held)
    total = LaurentPoly(states.get(frozenset(), {}))
    for _ in range(free_loops):
        total = total * delta
    return total


def kauffman_bracket(diagram: LinkDiagram) -> LaurentPoly:
    """Exact bracket of a planar diagram.

    Empty diagram evaluates to 1; each closed loop contributes
    -A**2 - A**-2.
    """
    return _contract(diagram.crossings, diagram.free_loops)


def braid_closure_bracket(braid: BraidWord, widths=None) -> LaurentPoly:
    """Exact bracket of the closure of a (cabled) braid.

    ``widths``: cable width per strand position at the bottom (defaults to
    all 1).  Cabling replaces each crossing by a block transposition with
    blackboard framing, which is the parallel-copy convention the colored
    brackets need.
    """
    if widths is None:
        widths = [1] * braid.strands
    widths = list(widths)
    if len(widths) != braid.strands:
        raise ValueError("one width per strand position required")
    if any(w < 0 for w in widths):
        raise ValueError("widths must be >= 0")

    n = sum(widths)
    if n == 0:
        return LaurentPoly.one()
    diagram = braid_to_diagram(BraidWord(_cabled_word(braid, widths), n))
    return _contract(diagram.crossings, diagram.free_loops)


def _cabled_word(braid: BraidWord, widths) -> list:
    """Flatten a braid word into elementary generators on cabled strands."""
    w = list(widths)
    flat = []
    for g in braid.word:
        i = abs(g) - 1
        base = sum(w[:i])
        u, v = w[i], w[i + 1]
        sign = 1 if g > 0 else -1
        for a in range(u):
            for b in range(v):
                flat.append(sign * (base + u - a + b))  # 1-indexed generator
        w[i], w[i + 1] = v, u
    return flat


# -- colored brackets --------------------------------------------------

def colored_bracket(diagram: LinkDiagram, colors) -> LaurentPoly:
    """Multilinear bracket with the k-th component colored by e_{colors[k]}.

    Components follow the diagram's component order (closure-cycle order
    for braid-backed diagrams).  Any explicit framing corrections act by
    the color's twist eigenvalue.
    """
    colors = [int(col) for col in colors]
    ncomp = diagram.num_components
    if len(colors) != ncomp:
        raise ValueError(f"need {ncomp} colors, got {len(colors)}")
    if any(col < 0 for col in colors):
        raise ValueError("colors must be >= 0")

    if all(col == 0 for col in colors):
        result = LaurentPoly.one()
    elif diagram.braid is not None:
        result = _colored_braid_bracket(diagram.braid, colors)
    elif all(col <= 1 for col in colors):
        if any(col == 0 for col in colors):
            raise CablingUnsupported(
                "deleting individual components of a bare planar diagram is unsupported; "
                "present the link as a braid closure")
        result = kauffman_bracket(diagram)
    else:
        raise CablingUnsupported(
            "cable width > 1 needs a braid-backed diagram; build it with braid_to_diagram")

    for col, extra in zip(colors, diagram.framing_extra):
        if extra:
            result = result * twist_monomial(col, extra)
    return result


def _colored_braid_bracket(braid: BraidWord, colors) -> LaurentPoly:
    """Sum over one Chebyshev term per component of the cabled closure brackets."""
    comp_of = {pos: ci for ci, cyc in enumerate(braid.closure_components()) for pos in cyc}
    total = LaurentPoly.zero()
    for terms in product(*(chebyshev_coeffs(col).monomials() for col in colors)):
        widths = [terms[comp_of[p]][0] for p in range(braid.strands)]
        total = total + braid_closure_bracket(braid, widths) * math.prod(c for _, c in terms)
    return total
