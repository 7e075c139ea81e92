"""Exact bracket arithmetic on small diagrams.

Walks through the one bracket engine (planar contraction) on two routes,
a PD code and a braid closure, the move invariances that pin the
conventions, and the colored-cable identities.
"""

from skeinquant import (BraidWord, braid_closure_bracket,
                        braid_to_diagram, colored_bracket, kauffman_bracket,
                        loop_value, signed_color_norm, unknot_diagram)

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

print("\n-- colored unknots --")
for n in range(5):
    val = colored_bracket(unknot_diagram(), [n])
    assert val == signed_color_norm(n)
    print(f"color {n}: {val.format('A')}")

print("\n-- framing twist on a colored strand --")
for n in range(3):
    kinked = colored_bracket(braid_to_diagram(BraidWord((1,), 2)), [n])
    quotient = kinked.divexact(signed_color_norm(n))
    print(f"color {n}: one positive kink multiplies by {quotient.format('A')}")
