"""Colored Jones polynomials by three mutually validating backends.

One sector loop carries the quantum-group action of the n-dimensional
representation on a braid, one total-weight sector at a time, closed by a
weighted trace; it runs over several rings.  One trace builds the
generators from the closed-form (Kirby-Melvin) R-matrix entries and gives
T = J(A^4) [n] A^-((n^2-1) writhe) in the ring of its power table.

* rmatrix: T in complex128 at A = exp(i pi/(2r+1)), and
  J = T A^((n^2-1) writhe) / [n];
* exact: T as an integer Laurent polynomial, from the trace over F_p at
  a batch of points, interpolated in A^4 and rebuilt by CRT, then
  divided exactly.  The loop in (min, +) gives its degree window, and in
  (+, x) on L1 norms a bound on its coefficients.  Normalized so the
  unknot gives 1, in the variable t = A**4;
* catalog: closed forms for the built-in knots, chosen by braid word and
  certified to JONES_REL_TOL per color: Morton's formula for the trefoil
  as two exact running sums over a fixed-point table, O(r) per level,
  Habiro's cyclotomic sum for the figure-eight as one integer dot
  product per color over one fixed-point table of partial sine products.

Indexing: J(K, 1) = 1 is the trivial color, and J(K, n) comes from the
(n-1)-st cabling color.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate
from operator import mul
from typing import Optional

from ._lazy import lazy_import
from .diagrams import BraidWord
from .errors import (InexactDivision, PrecisionLoss, StateSpaceTooLarge,
                     UnknownCatalogEntry)
from .laurent import LaurentPoly, quantum_integer_poly
from .roots import RootContext, quantum_integer

mpmath = lazy_import("mpmath")
np = lazy_import("numpy")

RMATRIX_BYTE_BUDGET = 1 << 28  # bytes for the largest weight sector, over all batch points

CATALOG_BRAIDS = {
    "unknot": ((), 1),
    "trefoil": ((1, 1, 1), 2),
    "figure-eight": ((1, -2, 1, -2), 3),
}
# the catalog is keyed by braid word; a presentation's name is only a label
_CATALOG_NAMES = {braid: name for name, braid in CATALOG_BRAIDS.items()}


@dataclass(frozen=True)
class KnotPresentation:
    """A knot given as a braid closure."""

    name: str
    braid: BraidWord

    def __post_init__(self):
        comps = self.braid.closure_components()
        if len(comps) != 1:
            raise ValueError(
                f"braid closure has {len(comps)} components; a knot needs exactly one")

    @property
    def writhe(self) -> int:
        return self.braid.writhe

    @classmethod
    def from_catalog(cls, name: str) -> "KnotPresentation":
        try:
            word, strands = CATALOG_BRAIDS[name]
        except KeyError:
            raise UnknownCatalogEntry(
                f"{name!r} not in catalog {sorted(CATALOG_BRAIDS)}") from None
        return cls(name, BraidWord(word, strands))

    @classmethod
    def from_braid(cls, word, strands: int, name: str = "custom") -> "KnotPresentation":
        return cls(name, BraidWord(tuple(word), strands))


@dataclass(frozen=True)
class JonesValue:
    """A single colored-Jones evaluation and which engine produced it."""

    n: int
    value: complex
    backend: str


# -- one sector loop over several rings ---------------------------------

def _check_budget(N: int, s: int, itemsize: int, per_point: int = 0, shared: int = 0) -> int:
    """How many evaluation points fit RMATRIX_BYTE_BUDGET; StateSpaceTooLarge if none does.

    Per point: 4 d^2 entries of the largest sector d (the product, one
    generator block, its gather indices, the new product) and ``per_point``
    table entries; ``shared`` entries are counted once.  d comes from an
    s-fold convolution, before anything of size N^s is allocated.
    """
    d = int(reduce(np.convolve, [np.ones(N)] * s).max())
    point = 4 * float(d) ** 2 + per_point
    if itemsize * (point + shared) > RMATRIX_BYTE_BUDGET:
        raise StateSpaceTooLarge(
            f"the largest weight sector of the {N}^{s} states has {d} states and needs "
            f"{itemsize * (point + shared) / 2**20:.0f} MiB, over the "
            f"{RMATRIX_BYTE_BUDGET >> 20} MiB sector budget")
    return int((RMATRIX_BYTE_BUDGET / itemsize - shared) // point)


def _sector_loop(word, s: int, N: int, gens, eye, matmul, weigh) -> list:
    """One value per total-weight sector w <= s(N-1)/2 of {0..N-1}^s, in increasing w.

    R keeps the total weight of the two slots it acts on, so the braid
    operator is block diagonal over w, and its trace over sector w equals
    the trace over the mirror sector s(N-1) - w (docs/conventions.md): only
    the lower half is visited.  ``gens`` is (R^-1, R), each a pair
    (values, where): ``values[..., where[i' N + j', i N + j]]`` is the entry
    from slot values (i, j) to (i', j'), leading axes of ``values`` are a
    batch of evaluation points, and ``values[..., -1]`` is the ring's zero.
    A generator's sector block takes that entry where the other slots agree
    and the zero elsewhere.  A sector's product starts from the word's
    first block, and is ``eye(d)`` for the empty word; ``matmul`` is the
    ring's product, and ``weigh(w, diag)`` reduces the diagonal of the
    word's product over the sector's multi-indices.
    """
    sizes = reduce(np.convolve, [np.ones(N)] * s)   # multi-indices per total weight
    digits = np.indices((N,) * s).reshape(s, -1)   # slot 0 most significant, as in np.kron
    order = np.argsort(digits.sum(axis=0), kind="stable")
    sectors = np.split(order, np.cumsum(sizes[:-1]).astype(np.int64))[:s * (N - 1) // 2 + 1]
    out = []
    for w, flat in enumerate(sectors):
        k, mat = digits[:, flat], None
        for g in word:
            i = abs(g) - 1
            pair = k[i] * N + k[i + 1]
            rest = flat - pair * N ** (s - 2 - i)   # must agree off i, i+1
            values, where = gens[g > 0]
            block = values[..., np.where(rest[:, None] == rest, where[pair[:, None], pair], -1)]
            mat = block if mat is None else matmul(block, mat)
        out.append(weigh(w, np.diagonal(eye(len(flat)) if mat is None else mat,
                                        axis1=-2, axis2=-1)))
    return out


@lru_cache(maxsize=64)
def _rmatrix_terms(N: int) -> tuple:
    """(R^-1, R) for the N-dim rep in closed form over Z[A, A^-1], no inverse taken.

    Per sign, (where, cols): ``where`` as in _sector_loop, one (N^2, N^2)
    table over slot pairs, and column e of the int array ``cols`` =
    (expo, m, u, v, half) for entry e = +-A^expo {1}..{m} [u, m] [v, m],
    where {k} = A^-2k - A^2k, [u, m] is the symmetric q-binomial, the sign
    is (-1)^m in R^-1, and the exponents span expo -+ half exactly
    (docs/conventions.md).
    """
    lam = [N - 1 - 2 * x for x in range(N)]   # the weight of a slot value
    out = []
    for positive in (False, True):
        rows, where = [], np.full((N * N, N * N), -1)
        for a, b in np.ndindex(N, N):           # E^m acts on slot value a, F^m on b
            for m in range(min(a, N - 1 - b) + 1):
                if positive:   # R: (a, b) -> (b + m, a - m)
                    pos = ((b + m) * N + a - m, a * N + b)
                    expo = -lam[a - m] * lam[b + m] - m * (m - 1)
                else:          # R^-1: (b, a) -> (a - m, b + m)
                    pos, expo = ((a - m) * N + b + m, b * N + a), lam[a] * lam[b] + m * (m - 1)
                where[pos] = len(rows)
                rows.append((expo, m, N - 1 - a + m, b + m, m * (m + 1) + 2 * m * (N - 1 - a + b)))
        out.append((where, np.array(rows).T))
    return tuple(out)


def _trace(word, s: int, N: int, pw, E: int, red):
    """T, the closure's weighted trace, at a batch of points x in the ring of ``pw``.

    ``pw[E + e]`` holds x^e for |e| <= E, one column per point, and ``red``
    reduces a value of the ring in place: v % p over F_p, the identity over
    complex128.  The generators are _rmatrix_terms evaluated at x, their
    q-binomials by Pascal's rule, and sector w <= s(N-1)/2 is weighted by
    x^e + x^-e, e = 4w - 2s(N-1), for itself and its mirror (the middle
    sector, e = 0, once by x^0).
    """
    P, dtype = pw.shape[1], pw.dtype
    braces = np.ones((N, P), dtype=dtype)               # {1} .. {m}
    binom = np.zeros((N, N, P), dtype=dtype)            # [u, m], Pascal's rule
    binom[:, 0] = 1
    for m in range(1, N):
        braces[m] = red(braces[m - 1] * (pw[E - 2 * m] - pw[E + 2 * m]))
        for u in range(m, N):
            binom[u, m] = red(pw[E + 2 * m] * binom[u - 1, m]
                              + pw[E - 2 * (u - m)] * binom[u - 1, m - 1])
    gens = []
    for positive, (where, (expo, m, u, v, _)) in enumerate(_rmatrix_terms(N)):
        val = red(red(red(pw[E + expo] * braces[m]) * binom[u, m]) * binom[v, m])
        val = val if positive else red(np.where(m[:, None] % 2, -val, val))
        gens.append((np.concatenate((val.T, np.zeros((P, 1), dtype)), axis=1), where))

    def weigh(w, diag):
        e = 4 * w - 2 * s * (N - 1)
        return red(diag.sum(axis=-1) * (red(pw[E + e] + pw[E - e]) if e else pw[E]))

    return red(sum(_sector_loop(word, s, N, gens, lambda d: np.eye(d, dtype=dtype),
                                lambda X, Y: red(X @ Y), weigh)))


# -- numeric R-matrix backend ------------------------------------------

def colored_jones_rmatrix(K: KnotPresentation, n: int, ctx: RootContext) -> complex:
    """J(K, n) at t = ctx.A_value**4 via the braid action of the n-dim rep.

    The trace T in complex128 at x = A, every power of A taken from an
    exponent reduced mod 2(2r+1) in integers; J = T A^((n^2-1) writhe) / [n].
    """
    if n < 1:
        raise ValueError("color index n must be >= 1")
    if n == 1:
        return 1 + 0j
    N, s, NN = n, K.braid.strands, 2 * ctx.r + 1
    _check_budget(N, s, 16)
    E = 2 * N * (N + s)   # covers every exponent of an entry and a weight
    pw = np.exp(1j * math.pi / NN * (np.arange(-E, E + 1) % (2 * NN)))[:, None]
    trace = _trace(K.braid.word, s, N, pw, E, lambda v: v)[0]
    twist = cmath.exp(1j * math.pi / NN * ((N * N - 1) * K.braid.writhe % (2 * NN)))
    return complex(trace * twist / quantum_integer(n, ctx))


# -- exact backend: the sector loop over F_p, interpolation and CRT -------

# primes p = 3 mod 4 below 2^25 (docs/conventions.md): int64 products stay
# exact in every sector the budget admits, and x -> x^4 is one-to-one on 1 < x < p/2
_PRIMES = (33554383, 33554371, 33554347, 33554291, 33554267, 33554239, 33554167,
           33554159, 33554123, 33554083, 33554051, 33554011, 33553999, 33553991,
           33553967, 33553879, 33553799, 33553787, 33553771, 33553759, 33553747,
           33553739, 33553727, 33553679)


def _degree_window(word, s: int, N: int) -> tuple:
    """(lo, hi) bounding the A-exponents of T, by the sector loop in (min, +) and (max, +).

    The (max, +) end runs over the mirror sectors, with slot values flipped.
    """
    def min_plus(X, Y):
        out = np.full((len(X), Y.shape[1]), np.inf)
        for j in range(len(Y)):
            np.minimum(out, X[:, j, None] + Y[j], out=out)
        return out

    ends = []
    for side in (1, -1):   # (max, +) as (min, +) on negated exponents
        # a flipped pair i N + j -> N^2 - 1 - (i N + j) puts sector s(N-1) - w at w
        gens = [(np.append(side * c[0] - c[4], np.inf), where[::side, ::side])
                for where, c in _rmatrix_terms(N)]
        ends.append(min(_sector_loop(
            word, s, N, gens, lambda d: np.where(np.eye(d), 0, np.inf), min_plus,
            lambda w, diag: 4 * w - 2 * s * (N - 1) + diag.min())))
    return int(ends[0]), -int(ends[1])


def _coefficient_bound(word, s: int, N: int) -> float:
    """A bound on T's coefficients: its L1 norm, by the sector loop in (+, x)."""
    gens = [(np.array([2.0 ** m * math.comb(u, m) * math.comb(v, m) for _, m, u, v, _ in c.T]
                      + [0.0]), where) for where, c in _rmatrix_terms(N)]
    # nonnegative float sums and products: far below 2^-20 relative rounding
    return (1 + 2.0 ** -20) * float(sum(_sector_loop(
        word, s, N, gens, np.eye, np.matmul,
        lambda w, diag: (1 + (2 * w < s * (N - 1))) * diag.sum())))   # the mirror's, too


def _inverse(v, p: int):
    """1/v mod p elementwise, as v^(p-2)."""
    out = np.ones_like(v)
    for bit in bin(p - 2)[2:]:
        out = out * out % p
        if bit == "1":
            out = out * v % p
    return out


def _trace_mod(word, s: int, N: int, lo: int, E: int, p: int, x) -> tuple:
    """(T(x) x^-lo, x^4) mod p at the points x, by the sector loop over F_p.

    Entries and weights come from one table of x^e for |e| <= E.
    """
    pw = np.ones((2 * E + 1, len(x)), dtype=np.int64)           # pw[E + e] = x^e
    x_inv = _inverse(x, p)
    for e in range(1, E + 1):
        pw[E + e], pw[E - e] = pw[E + e - 1] * x % p, pw[E - e + 1] * x_inv % p
    y = _trace(word, s, N, pw, E, lambda v: np.remainder(v, p, out=v)) * pw[E - lo] % p
    return y, pw[E + 4]


def _coefficients_mod(word, s: int, N: int, lo: int, deg: int, E: int, p: int,
                      chunk: int) -> list:
    """The coefficients mod p of P, where T(A) = A^lo P(A^4) and deg P <= deg.

    T comes from _trace_mod at x = 2 .. deg + 3, at most ``chunk`` points
    at a time; P is interpolated in Newton form through t = x^4 at the
    first deg + 1 points, and must agree at the last.
    """
    x = np.arange(2, deg + 4, dtype=np.int64)
    y, t = (np.concatenate(v) for v in zip(*(_trace_mod(word, s, N, lo, E, p, x[i:i + chunk])
                                             for i in range(0, len(x), chunk))))
    inv = _inverse((t[:, None] - t) % p, p)
    c = y[:-1].copy()                                           # divided differences
    i = np.arange(deg + 1)
    for j in range(1, deg + 1):
        c[j:] = (c[j:] - c[j - 1:-1]) % p * inv[i[j:], i[:-j]] % p
    coef, check = np.zeros(deg + 1, dtype=np.int64), 0          # Horner on the Newton form
    for j in range(deg, -1, -1):
        coef = (np.roll(coef, 1) - t[j] * coef) % p
        coef[0] = (coef[0] + c[j]) % p
        check = (check * int(t[-1] - t[j]) + int(c[j])) % p
    if check != y[-1]:
        raise InexactDivision(f"T mod {p} is no polynomial of degree {deg} in A^4 on its "
                              "degree window; the window or a convention is wrong")
    return [int(v) for v in coef]


def _crt(residues: list, primes: list) -> list:
    """The integers of least absolute value with these residues modulo the primes."""
    values, modulus = residues[0], primes[0]
    for res, p in zip(residues[1:], primes[1:]):
        inv = pow(modulus, -1, p)
        values = [v + modulus * ((r - v) * inv % p) for v, r in zip(values, res)]
        modulus *= p
    return [v - modulus if 2 * v > modulus else v for v in values]


@lru_cache(maxsize=256)
def _colored_jones_exact_cached(word: tuple, strands: int, n: int) -> LaurentPoly:
    """J(n) from T = J(A^4) [n] A^-((n^2-1) writhe), the closure's weighted trace.

    T is rebuilt by CRT modulo primes whose product exceeds twice its
    coefficient bound, then divided exactly (docs/conventions.md).
    """
    N, s = n, strands
    writhe = sum(1 if g > 0 else -1 for g in word)
    _check_budget(N, s, 8)   # one point, before the window's loops allocate N^s
    lo, hi = _degree_window(word, s, N)
    cls = (2 * (N - 1) - (N * N - 1) * writhe) % 4   # every exponent of T, mod 4
    lo, hi = lo + (cls - lo) % 4, hi - (hi - cls) % 4
    deg = (hi - lo) // 4
    E = 2 * N * (N + s) + abs(lo)   # covers every exponent of an entry, a weight and A^-lo
    entries = _rmatrix_terms(N)[1][1].shape[1]
    # per point: R, R^-1 and their build, and the power table; once: the Newton inverses
    chunk = _check_budget(N, s, 8, 4 * entries + 2 * E, (deg + 2) ** 2)
    bound, primes = _coefficient_bound(word, s, N), []
    while math.prod(primes) <= 2 * bound:
        if len(primes) == len(_PRIMES):
            raise PrecisionLoss(f"J({n}) needs more primes than the {len(_PRIMES)} in the "
                                f"table for its coefficient bound {bound:.3g}")
        primes.append(_PRIMES[len(primes)])
    coeffs = _crt([_coefficients_mod(word, s, N, lo, deg, E, p, chunk) for p in primes], primes)
    T = LaurentPoly({lo + 4 * i: c for i, c in enumerate(coeffs)})
    quotient = (T * LaurentPoly.monomial((N * N - 1) * writhe)).divexact(quantum_integer_poly(N))
    try:
        return quotient.in_variable_power(4)
    except InexactDivision as exc:
        raise InexactDivision(
            "normalized value is not a polynomial in A**4; convention bug") from exc


def colored_jones_exact(K: KnotPresentation, n: int) -> LaurentPoly:
    """Exact J(K, n) as a Laurent polynomial in t = A**4."""
    if n < 1:
        raise ValueError("color index n must be >= 1")
    return _colored_jones_exact_cached(K.braid.word, K.braid.strands, n)


# -- catalog backend ---------------------------------------------------

JONES_REL_TOL = 1e-10  # every catalog value meets it, by a computed bound, or raises
_U = 2.0 ** -53
# exp(i pi k/NN), k < 2NN: angle within 6 pi u, cos and sin 4 ulp, and u per part on a 2^-52 grid
_UNIT_ERR = 32 * _U


def _trefoil_values(r: int, n_max: int) -> list:
    """Morton's formula for the (2, 3) torus knot at t**-1, as two exact running sums.

    J(n) = S'(n)/den'(n): S'(n) = sum_h g(h) over h = 1-n, 3-n, .., n-1,
    g(h) = A^-(6h^2 + 10h + 8) - A^-(6h^2 - 2h + 4), and den'(n) =
    A^(-2n - 6n^2) - A^(2n - 6n^2), Morton's sum and denominator times
    A^-6n^2, A = exp(i pi/NN), with the exponents reduced modulo 2NN in
    integers.  S'(n) = S'(n-2) + g(n-1) + g(1-n): one running sum per parity
    of n, over the table entries that the sums and den' read, rounded to
    integers at 2^-52, so S' is exactly rounded; docs/conventions.md derives
    the certificate
    2E (n/|S'| + 1/|den'|) + 8u <= JONES_REL_TOL, E = _UNIT_ERR.
    """
    NN, M = 2 * r + 1, 4 * r + 2
    # g(h) = A^e(h+1) - A^e(h), e(h) = -(6h^2 - 2h + 4), and den'(n) = A^p - A^q: their
    # exponents modulo 2NN are quadratic in h and n, so few of the 2NN table entries are read
    e = [-(6 * h * h - 2 * h + 4) % M for h in range(1 - n_max, n_max + 1)]
    den_idx = [((-2 * n - 6 * n * n) % M, (2 * n - 6 * n * n) % M) for n in range(1, n_max + 1)]
    w = 1j * (math.pi / NN)
    table = {k: cmath.exp(w * k) for k in {*e}.union(*den_idx)}
    sums = []
    for part in ([table[k].real for k in e], [table[k].imag for k in e]):
        fixed = [round(x * 2.0 ** 52) for x in part]    # Python ints: the sums are exact
        g = [y - x for x, y in zip(fixed, fixed[1:])]   # g(h) at h + n_max - 1
        # S'(n) - S'(n-2) = g(m) + g(-m) at m = n-1, with g(0) once
        steps = g[n_max - 1:n_max] + [a + b for a, b in zip(g[n_max:], g[n_max - 2::-1])]
        run = [0] * n_max
        run[::2], run[1::2] = accumulate(steps[::2]), accumulate(steps[1::2])
        sums.append(run)
    values = []
    for n, (p, q), re, im in zip(range(1, n_max + 1), den_idx, *sums):
        s = complex(re * 2.0 ** -52, im * 2.0 ** -52)   # int to float is correctly rounded
        den = table[p] - table[q]
        sd = abs(s * den)
        if not 2 * _UNIT_ERR * (n * abs(den) + abs(s)) + 8 * _U * sd < JONES_REL_TOL * sd:
            raise PrecisionLoss(f"trefoil J({n}) at r={r} misses {JONES_REL_TOL:g}")
        values.append(s / den)
    return values


def _sine_table(NN: int, G: int) -> list:
    """S[m] = round(s(m) 2^G), s(m) = 2 sin(2 pi m/NN), for m = 0..NN-1, each within 0.78 units.

    The powers of w = exp(2 pi i/NN) for m <= NN/2, in Gaussian-integer
    fixed point at G + bitlen(NN) + 3 bits, mirrored by s(NN-m) = -s(m): the
    rounded w and each truncated product add under 2.2 units of the finer
    grid, which |w^m| = 1 does not amplify (docs/conventions.md).
    """
    W = G + NN.bit_length() + 3
    with mpmath.workprec(W + 10):
        w = mpmath.expjpi(mpmath.mpf(2) / NN)
        a, b = (int(mpmath.nint(mpmath.ldexp(v, W))) for v in (w.real, w.imag))
    x, y, half = 1 << W, 0, []
    for _ in range(NN // 2 + 1):
        half.append((y + (1 << (W - G - 2))) >> (W - G - 1))
        x, y = (x * a - y * b) >> W, (x * b + y * a) >> W
    return half + [-v for v in half[:0:-1]]


def _q_bits(NN: int) -> int:
    """L with |Q(m)| < 2^L, Q(m) = s(1) .. s(m): one float64 cumulative sum of log2 |s|, plus 1."""
    log_q = accumulate(math.log2(abs(2 * math.sin(2 * math.pi * m / NN))) for m in range(1, NN))
    return math.ceil(max(map(abs, log_q))) + 1


def _figure_eight_values(r: int, n_max: int) -> list:
    """Habiro's sum J(n) = sum_{k<n} prod_{j<=k} (c(n) - c(j)), c(m) = 2cos(4 pi m/NN), from one table.

    With s(m) = 2 sin(2 pi m/NN) and Q(m) = s(1) .. s(m), c(n) - c(j) =
    s(n+j) s(j-n) and Q(2r) = (-1)^r NN turn every partial product into a
    product of two entries of Q: for 1 <= n <= r,
    J(n) = (-1)^(n+r-1) / (NN s(n)) sum_{k<n} Q(n+k) Q(NN-n+k).
    |Q| < 2^L from one float64 cumulative sum of log2 |s|; Q comes from one
    product chain with P-bit mantissas over the table of s at G bits and is
    kept as integers at unit 2^-U, so the sum is one integer dot product
    per color, divided once by NN s(n).  The other colors repeat these:
    J(n) = J(min(n mod NN, NN - n mod NN)), and J(n) = sum_{k<NN} Q(k)^2
    when NN divides n.  Each color is certified by the rounding bound
    8 terms 2^(L+U) < JONES_REL_TOL |sum| in units of 2^-2U
    (docs/conventions.md) and returned as an exact mpf.
    """
    NN, bits = 2 * r + 1, (2 * r + 1).bit_length()
    L = _q_bits(NN)
    U = L + bits + 64            # 64 bits: 34 for JONES_REL_TOL and 30 for small |J(n)|
    P = U + L + bits + 3         # each Q(m) within 0.26 units of 2^-U before its truncation
    G = P + 2 * bits             # each s(m) within 2^(-P - bitlen(NN)) relative
    S = _sine_table(NN, G)
    mant, shift, Q = 1 << P, P - U, [1 << U]   # Q(m) = mant 2^(-U - shift)
    for s in S[1:]:
        mant *= s
        t = mant.bit_length() - P
        mant >>= t
        shift += G - t
        Q.append(mant >> shift)  # shift > 0: |Q(m)| < 2^L
    num, den = JONES_REL_TOL.as_integer_ratio()

    def certified(n, terms, total):
        # |error| < 2.7 terms 2^(L+U) in units of 2^-2U; ints never overflow
        if not abs(total) * num > (terms << (L + U + 3)) * den:
            raise PrecisionLoss(f"figure-eight J({n}) at r={r} misses {JONES_REL_TOL:g}")
        return total

    base = [None]
    for n in range(1, min(n_max, r) + 1):
        total = certified(n, n, sum(map(mul, Q[n:2 * n], Q[NN - n:])))
        q = (total << G) // (NN * S[n])
        base.append(mpmath.mpf((q if (n + r) % 2 else -q, -2 * U), prec=0))   # kept exactly
    if n_max >= NN:
        base[0] = mpmath.mpf((certified(NN, NN, sum(map(mul, Q, Q))), -2 * U), prec=0)
    return [base[min(n % NN, -n % NN)] for n in range(1, n_max + 1)]


_CATALOG_SUMS = {
    "unknot": lambda r, n_max: [1 + 0j] * n_max,
    "trefoil": _trefoil_values,
    "figure-eight": _figure_eight_values,
}


def catalog_jones_values(name: str, r: int, n_max: int) -> list:
    """J(name, n) for n = 1..n_max at t = exp(2 pi i/(r+1/2)), in one pass.

    Each value is within JONES_REL_TOL relative, or PrecisionLoss is raised.
    Figure-eight values are real mpmath numbers that hold the fixed-point
    sum exactly: up to about 2**(r/2), they can leave the double range.  The
    others are Python complex numbers.
    """
    if name not in _CATALOG_SUMS:
        raise UnknownCatalogEntry(f"{name!r} not in catalog {sorted(CATALOG_BRAIDS)}")
    return _CATALOG_SUMS[name](r, n_max)


def colored_jones_catalog(name: str, n: int, ctx: RootContext) -> complex:
    """J(name, n) at t = exp(2 pi i/(r+1/2)) from the closed-form catalog."""
    if n < 1:
        raise ValueError("color index n must be >= 1")
    return complex(catalog_jones_values(name, ctx.r, n)[n - 1])


# -- shared entry points -----------------------------------------------

def catalog_name(K: KnotPresentation) -> Optional[str]:
    """The catalog entry of K's braid word, or None; K.name is only a label."""
    return _CATALOG_NAMES.get((K.braid.word, K.braid.strands))


def _resolve(K: KnotPresentation, backend: str):
    """(backend, catalog name): auto takes the catalog for a catalog word, else the R-matrix."""
    name = catalog_name(K)
    if backend == "auto":
        backend = "catalog" if name else "rmatrix"
    if backend == "catalog" and name is None:
        raise UnknownCatalogEntry(f"{K.braid.word} on {K.braid.strands} strands is no catalog word")
    return backend, name


def colored_jones(K: KnotPresentation, n: int, ctx: RootContext,
                  backend: str = "auto") -> JonesValue:
    """Evaluate J(K, n) at the context root with the chosen backend."""
    backend, name = _resolve(K, backend)
    if backend == "catalog":
        return JonesValue(n, colored_jones_catalog(name, n, ctx), "catalog")
    if backend == "rmatrix":
        return JonesValue(n, colored_jones_rmatrix(K, n, ctx), "rmatrix")
    if backend == "exact":
        return JonesValue(n, colored_jones_exact(K, n).eval_at(ctx.t_value), "exact")
    raise ValueError(f"unknown backend {backend!r}")


def colored_jones_values(K: KnotPresentation, r: int, backend: str = "auto") -> list:
    """J(K, 1..r) at level r: one catalog pass for catalog words, else per color."""
    resolved, name = _resolve(K, backend)
    if resolved == "catalog":
        return catalog_jones_values(name, r, r)
    ctx = RootContext(r)
    return [colored_jones(K, n, ctx, backend=backend).value for n in range(1, r + 1)]


def so3_bracket_coefficient(K: KnotPresentation, n: int, ctx: RootContext,
                            backend: str = "auto") -> complex:
    """Zero-framed bracket coefficient of the n-th color at the root.

    Equals (-1)**n [n+1] J(K, n+1) evaluated at t = A**4, so its modulus
    is |[n+1] J(K, n+1)|.
    """
    if not 0 <= n <= ctx.r - 1:
        raise ValueError(f"color index {n} outside 0..{ctx.r - 1}")
    jval = colored_jones(K, n + 1, ctx, backend=backend).value
    return (-1) ** n * quantum_integer(n + 1, ctx) * jval
