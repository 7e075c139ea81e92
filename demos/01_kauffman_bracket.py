"""Exact bracket arithmetic on small diagrams.

Walks through the one bracket engine (planar contraction) on two routes,
a PD code and a braid closure, the move invariances that pin the
conventions, and the colored Jones polynomials of the exact engine, whose
n = 2 value is the normalized bracket.
"""

from skeinquant import (BraidWord, KnotPresentation, LaurentPoly, braid_closure_bracket,
                        braid_to_diagram, colored_jones_exact, kauffman_bracket, loop_value)

delta = loop_value()
print("one closed loop contributes:", delta.format("A"))

print("\n-- braid closures, PD route and braid route --")
for name, word, strands in (("hopf link", (1, 1), 2),
                            ("trefoil", (1, 1, 1), 2),
                            ("figure-eight", (1, -2, 1, -2), 3)):
    braid = BraidWord(word, strands)
    via_pd = kauffman_bracket(braid_to_diagram(braid))   # the closure's crossings, X a b c d
    via_braid = braid_closure_bracket(braid)
    assert via_pd == via_braid
    print(f"{name:14s} <closure> = {via_pd.format('A')}")
    print(f"{'':14s} normalized = {via_pd.divexact(delta).format('A')}")

print("\n-- move invariance --")
plain = braid_closure_bracket(BraidWord((), 1))
kink = braid_closure_bracket(BraidWord((1,), 2))
print("positive kink multiplies by:", kink.divexact(plain).format("A"))
assert braid_closure_bracket(BraidWord((1, -1), 2)) == braid_closure_bracket(BraidWord((), 2))
assert braid_closure_bracket(BraidWord((1, 2, 1), 3)) == braid_closure_bracket(BraidWord((2, 1, 2), 3))
print("second and third moves leave the bracket unchanged: OK")

print("\n-- colored Jones polynomials, the exact engine --")
for name in ("trefoil", "figure-eight"):
    K = KnotPresentation.from_catalog(name)
    for n in (2, 3):
        print(f"J({name}, {n}) = {colored_jones_exact(K, n).format('t')}")
    # n = 2 is the bracket: (-A^3)^writhe <closure> / delta, a polynomial in t = A^4
    w = K.braid.writhe
    framed = braid_closure_bracket(K.braid) * LaurentPoly.monomial(3 * w, (-1) ** w)
    assert framed.divexact(delta).in_variable_power(4) == colored_jones_exact(K, 2)
print("J(K, 2) equals the writhe-normalized bracket over one loop: OK")
