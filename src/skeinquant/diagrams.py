"""Combinatorial link presentations: planar diagram codes and braid words.

Conventions (see docs/conventions.md):

* A crossing ``X a b c d`` lists the four incident arcs counterclockwise
  starting at the under-incoming arc, so the under-strand joins ``a``-``c``
  and the over-strand joins ``b``-``d``.
* Braid generator ``+k`` crosses strand position k over position k+1
  (1-indexed positions in text form, 0-indexed internally).
"""

from __future__ import annotations

from typing import NamedTuple


class BraidWord(NamedTuple("BraidWord", [("word", tuple), ("strands", int)])):
    """Signed generator word on a fixed number of strands."""

    __slots__ = ()

    def __new__(cls, word, strands):
        word = tuple(int(g) for g in word)
        if strands < 1:
            raise ValueError("need at least one strand")
        for g in word:
            if g == 0 or abs(g) >= strands:
                raise ValueError(f"generator {g} out of range for {strands} strands")
        return super().__new__(cls, word, strands)

    @property
    def writhe(self) -> int:
        return sum(1 if g > 0 else -1 for g in self.word)

    def permutation(self) -> list:
        """perm[i] = final position of the strand starting at position i."""
        perm = list(range(self.strands))
        for g in self.word:
            i = abs(g) - 1
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
        # perm as built tracks strand labels per position; invert to map start->end
        out = [0] * self.strands
        for pos, start in enumerate(perm):
            out[start] = pos
        return out

    def closure_components(self) -> list:
        """Cycles of the closure permutation, each a sorted tuple of start positions.

        Components are ordered by their smallest strand position.
        """
        perm = self.permutation()
        seen = [False] * self.strands
        comps = []
        for i in range(self.strands):
            if seen[i]:
                continue
            cyc = []
            j = i
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = perm[j]
            comps.append(tuple(sorted(cyc)))
        comps.sort(key=lambda c: c[0])
        return comps

    @classmethod
    def from_text(cls, text: str, strands: int) -> "BraidWord":
        """Parse whitespace-separated signed integers, +-k meaning generator k."""
        word = tuple(int(tok) for tok in text.split())
        return cls(word, strands)


class LinkDiagram(NamedTuple("LinkDiagram", [("crossings", list), ("free_loops", int)])):
    """Planar-diagram presentation of a link, in its blackboard framing.

    ``free_loops`` counts crossing-free circle components (PD codes cannot
    express them).
    """

    __slots__ = ()

    def __new__(cls, crossings, free_loops=0):
        crossings = [tuple(int(a) for a in x) for x in crossings]
        for x in crossings:
            if len(x) != 4:
                raise ValueError(f"crossing {x} must list exactly four arcs")
        self = super().__new__(cls, crossings, free_loops)
        self.validate()
        return self

    # -- structure -----------------------------------------------------

    def arcs(self) -> list:
        return sorted({a for x in self.crossings for a in x})

    @property
    def num_crossings(self) -> int:
        return len(self.crossings)

    def arc_components(self) -> list:
        """Partition of arcs into strand components (smallest-arc order)."""
        arcs = self.arcs()
        parent = {a: a for a in arcs}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        for a, b, c, d in self.crossings:
            union(a, c)  # under-strand continues
            union(b, d)  # over-strand continues
        groups = {}
        for a in arcs:
            groups.setdefault(find(a), []).append(a)
        comps = [tuple(sorted(g)) for g in groups.values()]
        comps.sort(key=lambda c: c[0])
        return comps

    @property
    def num_components(self) -> int:
        return len(self.arc_components()) + self.free_loops

    def validate(self) -> None:
        """Every arc label must occur exactly twice across all crossings."""
        counts = {}
        for x in self.crossings:
            for a in x:
                counts[a] = counts.get(a, 0) + 1
        bad = {a: k for a, k in counts.items() if k != 2}
        if bad:
            raise ValueError(f"arcs with occurrence != 2: {bad}")

    # -- parsing -------------------------------------------------------

    @classmethod
    def from_pd_text(cls, text: str) -> "LinkDiagram":
        """Parse the text format: lines ``X a b c d``, blank lines and ``#`` comments."""
        crossings = []
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "X":
                if len(parts) != 5:
                    raise ValueError(f"bad crossing line: {line!r}")
                crossings.append(tuple(int(p) for p in parts[1:]))
            else:
                raise ValueError(f"unrecognised line: {line!r}")
        return cls(crossings)


def braid_to_diagram(braid: BraidWord) -> LinkDiagram:
    """Planar diagram of a braid closure, in its blackboard framing.

    Strand positions untouched by any generator close up into free loops.
    """
    s = braid.strands
    next_arc = s + 1
    start = list(range(1, s + 1))
    cur = list(start)
    crossings = []
    for g in braid.word:
        i = abs(g) - 1
        in_l, in_r = cur[i], cur[i + 1]
        out_l, out_r = next_arc, next_arc + 1
        next_arc += 2
        if g > 0:
            # left strand over: under-incoming is the right arc
            crossings.append((in_r, out_r, out_l, in_l))
        else:
            crossings.append((in_l, in_r, out_r, out_l))
        cur[i], cur[i + 1] = out_l, out_r

    # close up: a touched position's fresh top arc is its start arc, and a
    # start arc never ends a position, so the map has no chains
    close = {cur[pos]: start[pos] for pos in range(s) if cur[pos] != start[pos]}
    free = s - len(close)  # positions that never crossed anything
    relabeled = [tuple(close.get(a, a) for a in x) for x in crossings]
    return LinkDiagram(relabeled, free_loops=free)

