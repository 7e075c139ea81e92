"""Test-only oracles that no production path uses.

* The cyclotomic sums for the catalog knots, run in mpmath at a fixed
  precision far above what the cancellation in their partial products
  costs (about 0.46 r bits): the reference the certified catalog values
  are checked against.
* Morton's trefoil sum term by term: for each color, every term of his
  formula from one float table, summed with math.fsum, the reference
  for the catalog's two running sums.
* The dense R-matrix trace: every generator as a full Kronecker product
  on (C^n)^strands, the reference for the weight-sector engine.  Its R
  is a float build of its own, from the E and F ladders, with R^-1 by
  matrix inversion and the twist by a partial trace, so it shares no
  entry with the closed form the engine evaluates.  It holds
  (n^strands)^2 entries, so keep it to small n and few strands.
* The cabled closure: J(K, n) from the Chebyshev-colored cable brackets
  over the integer Laurent ring, the reference for the exact engine.
  Its transfer runs over a cable of (n-1) x strands strands, so keep n
  and the strand count small.
* The theta series summed term by term: one exponentiated term at a
  time over the window, with zero coefficients skipped, the reference
  for the vector series behind eval_grid and holomorphic_part.
* The Lobachevsky sine series, summed far enough for a stated
  tolerance: the reference for the closed form through Clausen's Cl_2.
* Small helpers only the tests need: a PD text writer, the mirror of a
  Laurent polynomial, and checks on the root and on kappa.
"""

import cmath
import math

import mpmath
import numpy as np

from skeinquant.bracket import braid_closure_bracket, chebyshev_coeffs
from skeinquant.errors import InexactDivision
from skeinquant.geom import _term_exponent, _window
from skeinquant.laurent import LaurentPoly, quantum_integer_poly


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


def morton_trefoil(r: int, n_max: int) -> list:
    """Morton's formula for the (2, 3) torus knot at t**-1, one color at a time.

    J(n) = sum_h (A^-(c + 10h + 2) - A^-(c - 2h - 2)) / (A^-2n - A^2n) over
    h = 1-n, 3-n, .., n-1, c = 6(h^2 + 1 - n^2), A = exp(i pi/NN), each
    numerator summed exactly rounded from one table of exp(i pi k/NN).
    """
    NN, M = 2 * r + 1, 4 * r + 2
    table = np.exp(1j * (math.pi / NN) * np.arange(M))
    values = []
    for n in range(1, n_max + 1):
        h = np.arange(1 - n, n, 2)
        c = 6 * (h * h + 1 - n * n)
        terms = np.concatenate((table[-(c + 10 * h + 2) % M], -table[-(c - 2 * h - 2) % M]))
        s = complex(math.fsum(terms.real), math.fsum(terms.imag))
        values.append(s / complex(table[-2 * n % M] - table[2 * n % M]))
    return values


def _qint(k: int, q: complex) -> complex:
    return (q ** k - q ** (-k)) / (q - q ** (-1))


def float_rmatrix(N: int, r: int):
    """Braiding matrix, its inverse, the trace weight, the twist and [N], in floats.

    Built for the N-dimensional representation with the Cartan half-power
    taken as A**-1, which makes the closure invariant an evaluation at
    t = A**4.  The twist comes from the partial trace, so the closure is
    Markov-invariant by construction.
    """
    A = cmath.exp(1j * math.pi / (2 * r + 1))
    sq = A ** -1
    q = sq * sq

    qfact = [1 + 0j]
    for m in range(1, N + 1):
        qfact.append(qfact[-1] * _qint(m, q))

    R = np.zeros((N * N, N * N), dtype=np.complex128)
    for i in range(N):
        for j in range(N):
            for m in range(0, min(i, N - 1 - j) + 1):
                # E^m on the first slot lowers i; F^m on the second raises j.
                coef = sq ** ((N - 1 - 2 * (i - m)) * (N - 1 - 2 * (j + m)))
                coef *= q ** (m * (m - 1) / 2.0)
                coef *= (q - q ** (-1)) ** m / qfact[m]
                prod = 1 + 0j
                for t in range(m):
                    prod *= _qint(N - (i - t), q)   # E ladder from slot one
                for t in range(1, m + 1):
                    prod *= _qint(j + t, q)         # F ladder from slot two
                coef *= prod
                # flip factors: sigma acts as swap composed with R
                R[(j + m) * N + (i - m), i * N + j] += coef
    Rinv = np.linalg.inv(R)
    weight = np.array([q ** (N - 1 - 2 * j) for j in range(N)], dtype=np.complex128)
    qdim = _qint(N, q)
    twist = np.einsum("i,j,ijij->", weight, weight, R.reshape(N, N, N, N)) / qdim
    return R, Rinv, weight, complex(twist), complex(qdim)


def dense_rmatrix_jones(K, n: int, ctx) -> complex:
    """J(K, n) at t = ctx.A_value**4 from the dense braid action of the n-dim rep."""
    if n < 1:
        raise ValueError("color index n must be >= 1")
    if n == 1:
        return 1 + 0j
    N = n
    s = K.braid.strands
    dim = N ** s

    R, Rinv, weight, twist, qdim = float_rmatrix(N, ctx.r)
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


def cabled_jones(K, n: int) -> LaurentPoly:
    """Exact J(K, n) in t = A**4 from the cabled bracket of K's braid closure."""
    braid = K.braid
    color = n - 1
    bracket = LaurentPoly.zero()
    for width, coeff in chebyshev_coeffs(color).monomials():
        bracket = bracket + braid_closure_bracket(braid, [width] * braid.strands) * coeff

    # framing correction ((-1)^c A^(c^2+2c))^writhe, then exact division
    # by (-1)^c [c+1]; both must cancel exactly or the conventions broke.
    expo = (color * color + 2 * color) * braid.writhe
    sign = -1 if (color % 2 == 1 and braid.writhe % 2 == 1) else 1
    corrected = bracket * LaurentPoly.monomial(expo, sign)
    denom = quantum_integer_poly(color + 1)
    if color % 2 == 1:
        denom = -denom
    quotient = corrected.divexact(denom)
    try:
        return quotient.in_variable_power(4)
    except InexactDivision as exc:
        raise InexactDivision(
            "normalized value is not a polynomial in A**4; convention bug") from exc


def termwise_series(s, P, Q, frame: bool) -> np.ndarray:
    """Truncated theta series of the section s, summed term by term."""
    ctx = s.ctx
    P = np.asarray(P, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    lo, hi = _window(ctx, float(Q.min()), float(Q.max()))
    out = np.zeros(np.broadcast(P, Q).shape, dtype=np.complex128)
    for m in range(lo, hi + 1):
        c = s.rho[m % ctx.N]
        if c != 0:
            out += c * np.exp(_term_exponent(ctx, m, P, Q, frame))
    return out


def lobachevsky_series(theta: float, tol: float = 1e-12) -> float:
    """(1/2) sum sin(2 n theta)/n**2, summed far enough for the stated tolerance.

    Pairs of consecutive terms telescope like n**-3, so the partial sum to
    M has error below ~1/(M*M*|sin theta|); M is chosen accordingly.
    """
    s = abs(np.sin(theta))
    if s < 1e-9:
        return 0.0
    M = int(np.sqrt(2.0 / (tol * s))) + 10
    n = np.arange(1, M + 1, dtype=np.float64)
    return float(0.5 * np.sum(np.sin(2 * theta * n) / n ** 2))


def pd_text(diagram) -> str:
    """The diagram in the text format LinkDiagram.from_pd_text reads."""
    lines = [f"F {' '.join(str(f) for f in diagram.framing_extra)}"]
    lines += ["X " + " ".join(str(a) for a in x) for x in diagram.crossings]
    return "\n".join(lines) + "\n"


def mirrored(p: LaurentPoly) -> LaurentPoly:
    """p with its variable replaced by its inverse."""
    return LaurentPoly({-e: c for e, c in p.terms.items()})


def is_primitive_root(ctx) -> bool:
    """A**(4r+2) = 1, and no smaller positive power of A is 1."""
    a, order = ctx.A_value, 4 * ctx.r + 2
    return abs(a ** order - 1) <= 1e-10 and all(abs(a ** k - 1) > 1e-10 for k in range(1, order))


def kappa_modulus_dev(kc) -> float:
    """How far |kappa| of the Kirby constants is from 1."""
    return abs(abs(kc.kappa) - 1.0)
