"""The geometric side: theta sections, translations, and the intertwiner.

Builds the orthonormal bases, verifies orthonormality by quadrature,
shows the finite Heisenberg action, and checks that the curve operators
computed from translations match the skein matrices through the
basis identification.
"""

import math
from fractions import Fraction

import numpy as np

from skeinquant import (QuantizationContext, ThetaSection, basis_phi, basis_psi,
                        curve_operator_geom, gram_matrix, inner_product,
                        intertwining_deviation, iso_from_skein, iso_to_skein,
                        section_eval, translate)

ctx = QuantizationContext(r=3, tau=1j)
N = ctx.N
print(f"level r = {ctx.r}, modular parameter tau = {ctx.tau}, space dimension {N}")

print("\n-- orthonormality by quadrature --")
G = gram_matrix(basis_psi(ctx))
print(f"translation eigenbasis Gram vs identity: {np.max(np.abs(G - np.eye(N))):.2e}")
G = gram_matrix(basis_phi(ctx))
print(f"alternating basis Gram vs identity:      {np.max(np.abs(G - np.eye(ctx.r))):.2e}")

vacuum = ThetaSection(ctx, np.eye(N, dtype=complex)[0])
val = inner_product(vacuum, vacuum, include_halfform=False).real
print(f"unnormalized vacuum norm^2 = {val:.10f} "
      f"(closed form {math.sqrt(8 * math.pi ** 2 / (N * ctx.b)):.10f})")

print("\n-- finite Heisenberg action --")
psi = basis_psi(ctx)
for l in (0, 1, 5):
    t = translate(psi[l], (Fraction(1, N), 0))
    ev = t.rho[l] / psi[l].rho[l]
    print(f"meridian fraction on basis vector {l}: eigenvalue {ev:.6f} "
          f"(expect exp(2 pi i {l}/{N}))")

print("\n-- alternating sections vanish at the fixed point --")
for l, s in enumerate(basis_phi(ctx), start=1):
    v0 = abs(section_eval(s, 0.0, 0.0))
    v1 = section_eval(s, 0.2, 0.3)
    v2 = section_eval(s, -0.2, -0.3)
    print(f"Phi_{l}: |value at 0| = {v0:.2e}, odd symmetry residual = {abs(v1 + v2):.2e}")

print("\n-- curve operators agree through the basis identification --")
for gamma in ((1, 0), (0, 1), (1, 1)):
    dev = intertwining_deviation(gamma, ctx)
    print(f"class {gamma}: operator-norm gap = {dev:.2e}")

print("\ngeometric (1,1) operator:")
print(np.round(curve_operator_geom((1, 1), ctx), 4))

print("\n-- round trip through the identification --")
rng = np.random.default_rng(1)
v = rng.standard_normal(ctx.r) + 1j * rng.standard_normal(ctx.r)
back = iso_to_skein(iso_from_skein(v, ctx)).as_array()
print(f"coefficient round-trip error: {np.max(np.abs(v - back)):.2e}")
