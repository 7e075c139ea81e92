"""Test-only oracles that no production path uses.

* The cyclotomic sums for the catalog knots, run in mpmath at a fixed
  precision far above what the cancellation in their partial products
  costs (about 0.46 r bits): the reference the certified catalog values
  are checked against.
* The dense R-matrix trace: every generator as a full Kronecker product
  on (C^n)^strands, the reference for the weight-sector engine.  It
  holds (n^strands)^2 entries, so keep it to small n and few strands.
"""

import mpmath
import numpy as np

from skeinquant.jones import _rmatrix_data


def cyclotomic_jones(name: str, r: int, n_max: int, bits: int) -> list:
    """J(name, n) for n = 1..n_max at t = exp(2 pi i/(r+1/2)), as mpmath values.

    Figure-eight: sum_k prod_{j<=k} (c_n - c_j), c_j = 2cos(4 pi j/NN).
    Trefoil (the positive braid sigma_1^3): the same products, each term
    weighted by (-1)^k t^(k(k+3)/2).
    """
    NN = 2 * r + 1
    with mpmath.workprec(bits):
        two_cos = [2 * mpmath.cos(4 * mpmath.pi * k / NN) for k in range(NN)]
        phase = [mpmath.exp(4j * mpmath.pi * k / NN) for k in range(NN)]
        values = []
        for n in range(1, n_max + 1):
            total = mpmath.mpc(1)
            prod = mpmath.mpf(1)
            for k in range(1, n):
                prod *= two_cos[n % NN] - two_cos[k % NN]
                if name == "figure-eight":
                    total += prod
                else:
                    term = prod * phase[(k * (k + 3) // 2) % NN]
                    total += term if k % 2 == 0 else -term
            values.append(total)
        return values


def dense_rmatrix_jones(K, n: int, ctx) -> complex:
    """J(K, n) at t = ctx.A_value**4 from the dense braid action of the n-dim rep."""
    if n < 1:
        raise ValueError("color index n must be >= 1")
    if n == 1:
        return 1 + 0j
    N = n
    s = K.braid.strands
    dim = N ** s

    R, Rinv, weight, twist, qdim = _rmatrix_data(N, ctx.r)
    gens = {}
    mat = np.eye(dim, dtype=np.complex128)
    for g in K.braid.word:
        key = g
        if key not in gens:
            i = abs(g) - 1
            block = R if g > 0 else Rinv
            gens[key] = np.kron(np.kron(np.eye(N ** i), block), np.eye(N ** (s - 2 - i)))
        mat = gens[key] @ mat
    full_weight = weight
    for _ in range(s - 1):
        full_weight = np.kron(full_weight, weight)
    trace = np.einsum("i,ii->", full_weight, mat)
    return complex(trace / (twist ** K.braid.writhe) / qdim)
