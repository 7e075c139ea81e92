"""Kauffman brackets by planar contraction.

One engine, exact over the integer Laurent ring, evaluates every
bracket: it adds a diagram's crossings one at a time, keeping a Laurent
polynomial for each matching of the arcs left open (local tangle
contraction, Bar-Natan, "Fast Khovanov homology computations",
arXiv:math/0606318).  PD codes go in as they are; braid closures go in
through braid_to_diagram of the reduced word.  The smoothing convention is
fixed in docs/conventions.md: for a crossing ``X a b c d`` the A-smoothing
joins a-d and b-c, which makes a positive kink contribute -A**-3.
"""

from __future__ import annotations

from . import errors
from .diagrams import BraidWord, LinkDiagram, braid_to_diagram
from .laurent import LaurentPoly, loop_value


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


def braid_closure_bracket(braid: BraidWord) -> LaurentPoly:
    """Exact bracket of a braid closure, in its blackboard framing.

    The diagram is that of braid.reduced(): no Markov destabilization, which
    multiplies the bracket by -A^(+-3).
    """
    # _contract, not kauffman_bracket: bench/tracer.py times the two routes apart
    diagram = braid_to_diagram(braid.reduced())
    return _contract(diagram.crossings, diagram.free_loops)
