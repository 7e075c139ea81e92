"""Test-only oracles that no production path uses.

The cyclotomic sums for the catalog knots, run in mpmath at a fixed
precision far above what the cancellation in their partial products
costs (about 0.46 r bits): the reference the certified catalog values
are checked against.
"""

import mpmath


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
