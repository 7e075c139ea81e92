"""Kauffman bracket engines: state sums on planar diagrams and a
Temperley-Lieb transfer method for (cabled) braid closures.

Both engines are exact over the integer Laurent ring and agree on any
braid closure; the state sum is the small-diagram oracle, the transfer
method scales to cables.  The smoothing convention is fixed in
docs/conventions.md: for a crossing ``X a b c d`` the A-smoothing joins
a-d and b-c, which makes a positive kink contribute -A**-3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .diagrams import BraidWord, LinkDiagram
from .errors import CablingUnsupported, TooManyCrossings
from .laurent import LaurentPoly, loop_value

STATE_SUM_GUARD = 24


# -- Chebyshev colors -------------------------------------------------

@dataclass(frozen=True)
class ChebyshevColor:
    """Coefficients of the n-th cabling color in powers of z.

    Satisfies e_0 = 1, e_1 = z, e_{k+1} = z*e_k - e_{k-1}; coeffs[j] is
    the integer coefficient of z**j.
    """

    n: int
    coeffs: tuple

    def monomials(self):
        """(width, coefficient) pairs for the nonzero terms."""
        return [(j, c) for j, c in enumerate(self.coeffs) if c != 0]


@lru_cache(maxsize=None)
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


# -- state sum on planar diagrams -------------------------------------

def kauffman_bracket(diagram: LinkDiagram) -> LaurentPoly:
    """Exact bracket by full smoothing enumeration.

    Empty diagram evaluates to 1; each closed loop contributes
    -A**2 - A**-2.  Guarded at 2**24 states.
    """
    c = diagram.num_crossings
    if c > STATE_SUM_GUARD:
        raise TooManyCrossings(f"{c} crossings exceed the guard of {STATE_SUM_GUARD}")
    arcs = diagram.arcs()
    index = {a: i for i, a in enumerate(arcs)}
    n = len(arcs)
    joins_a = []
    joins_b = []
    for a, b, cc, d in diagram.crossings:
        joins_a.append((index[a], index[d], index[b], index[cc]))
        joins_b.append((index[a], index[b], index[cc], index[d]))

    counts: dict = {}
    parent = list(range(n))
    for state in range(1 << c):
        for i in range(n):
            parent[i] = i

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        exp = 0
        for k in range(c):
            if (state >> k) & 1:
                p, q, s, t = joins_b[k]
                exp -= 1
            else:
                p, q, s, t = joins_a[k]
                exp += 1
            rp, rq = find(p), find(q)
            if rp != rq:
                parent[rp] = rq
            rs, rt = find(s), find(t)
            if rs != rt:
                parent[rs] = rt
        loops = sum(1 for i in range(n) if find(i) == i)
        key = (exp, loops)
        counts[key] = counts.get(key, 0) + 1

    delta = loop_value()
    max_loops = max((loops for _, loops in counts), default=0)
    delta_pow = [LaurentPoly.one()]
    for _ in range(max_loops + diagram.free_loops):
        delta_pow.append(delta_pow[-1] * delta)
    total = LaurentPoly.zero()
    for (exp, loops), mult in sorted(counts.items()):
        total = total + delta_pow[loops + diagram.free_loops] * LaurentPoly.monomial(exp, mult)
    return total


# -- Temperley-Lieb transfer on braid closures ------------------------

def _identity_matching(n: int) -> tuple:
    return tuple(list(range(n, 2 * n)) + list(range(n)))


def _apply_e_on_top(m: tuple, i: int, n: int):
    """Right-multiply matching by the cup-cap generator at top positions i, i+1.

    Returns (new_matching, closed_loop_formed).
    """
    ti, tj = n + i, n + i + 1
    x, y = m[ti], m[tj]
    if x == tj:
        return m, True
    new = list(m)
    new[x] = y
    new[y] = x
    new[ti] = tj
    new[tj] = ti
    return tuple(new), False


def _closure_loops(m: tuple, n: int) -> int:
    seen = [False] * (2 * n)
    loops = 0
    for start in range(2 * n):
        if seen[start]:
            continue
        loops += 1
        x = start
        while not seen[x]:
            seen[x] = True
            y = m[x]  # matching edge
            seen[y] = True
            x = y + n if y < n else y - n  # closure edge
    return loops


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

    flat = _cabled_word(braid, widths)
    n = sum(widths)
    if n == 0:
        return LaurentPoly.one()

    delta = loop_value()
    a_pos = LaurentPoly.monomial(1)
    a_neg = LaurentPoly.monomial(-1)

    element = {_identity_matching(n): LaurentPoly.one()}
    for g in flat:
        i = abs(g) - 1
        # positive crossing resolves as A**-1 * identity + A * cupcap
        id_coef, e_coef = (a_neg, a_pos) if g > 0 else (a_pos, a_neg)
        nxt: dict = {}
        for m, poly in element.items():
            contrib = poly * id_coef
            acc = nxt.get(m)
            nxt[m] = contrib if acc is None else acc + contrib
            m2, looped = _apply_e_on_top(m, i, n)
            contrib = poly * e_coef
            if looped:
                contrib = contrib * delta
            acc = nxt.get(m2)
            nxt[m2] = contrib if acc is None else acc + contrib
        element = {m: p for m, p in nxt.items() if not p.is_zero()}

    total = LaurentPoly.zero()
    delta_pow = [LaurentPoly.one()]
    for m in sorted(element):
        loops = _closure_loops(m, n)
        while len(delta_pow) <= loops:
            delta_pow.append(delta_pow[-1] * delta)
        total = total + element[m] * delta_pow[loops]
    return total


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
