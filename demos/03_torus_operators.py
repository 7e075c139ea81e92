"""Curve operators and the projective mapping-class action on the torus space.

Shows the meridian/longitude matrices with the boundary fold, the
unitarity and projective relations of the generator matrices, and the
surgery invariants built from the Kirby coloring.
"""

import numpy as np

from skeinquant import (KnotPresentation, curve_operator_skein, kirby_constants,
                        rep_S, rep_T, rt_invariant, word_from_matrix)

r = 4
print(f"level r = {r}")
print("\nmeridian operator (diagonal):")
print(np.round(curve_operator_skein((1, 0), r).real, 6))
print("\nlongitude operator (note the +1 fold in the corner):")
print(np.round(curve_operator_skein((0, 1), r).real, 6))

print("\n(1,1) operator via a mapping class carrying the meridian onto it:")
word = word_from_matrix(((1, 0), (1, 1)))
print("word:", " ".join(word.word))
op = curve_operator_skein((1, 1), r)
print("self-adjoint:", np.max(np.abs(op - op.conj().T)) < 1e-12,
      " spectrum:", np.round(np.sort(np.linalg.eigvalsh(op)), 6))

print("\nprojective relations of the generator matrices:")
for rr in (4, 9, 16):
    S, T = rep_S(rr), rep_T(rr)
    ST3 = np.linalg.matrix_power(S @ T, 3)
    S2 = S @ S
    phase = np.trace(S2.conj().T @ ST3) / rr
    phase /= abs(phase)
    print(f"  r={rr}: ||(ST)^3 - phase * S^2|| = {np.max(np.abs(ST3 - phase * S2)):.2e}, "
          f"S^2 = i * identity to {np.max(np.abs(S2 - 1j * np.eye(rr))):.2e}")

print("\nsurgery invariants:")
unknot = KnotPresentation.from_catalog("unknot")
for rr in (4, 6, 8):
    kc = kirby_constants(rr)
    print(f"  r={rr}: eta = {kc.eta:.8f}, |kappa| - 1 = {abs(abs(kc.kappa) - 1):.2e}")
    empty = rt_invariant(None, 0, rr)
    for framing, label in ((1, "+1 surgery"), (-1, "-1 surgery")):
        val = rt_invariant(unknot, framing, rr)
        print(f"      three-sphere via {label}: |diff from empty| = {abs(val - empty):.2e}")
    print(f"      product of sphere and circle: {rt_invariant(unknot, 0, rr).real:+.12f}")
