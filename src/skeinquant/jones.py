"""Colored Jones polynomials by three mutually validating backends.

* exact: cabled bracket over the integer Laurent ring, normalized so the
  unknot gives 1 and converted to the variable t = A**4;
* rmatrix: numeric quantum-group action of the n-dimensional
  representation on the braid, one total-weight sector at a time,
  closed by a weighted trace;
* catalog: closed forms for the built-in knots, chosen by braid word and
  certified to JONES_REL_TOL per color: Morton's formula for the trefoil
  in floats, Habiro's cyclotomic sum for the figure-eight in mpmath.

Indexing: J(K, 1) = 1 is the trivial color, and J(K, n) comes from the
(n-1)-st cabling color.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Optional

import mpmath
import numpy as np

from .bracket import braid_closure_bracket, chebyshev_coeffs
from .diagrams import BraidWord
from .errors import (InexactDivision, PrecisionLoss, StateSpaceTooLarge,
                     UnknownCatalogEntry)
from .laurent import LaurentPoly, quantum_integer_poly
from .roots import RootContext, quantum_integer

RMATRIX_BYTE_BUDGET = 1 << 28  # bytes for the largest weight sector of the R-matrix engine

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


# -- exact backend -----------------------------------------------------

@lru_cache(maxsize=256)
def _colored_jones_exact_cached(word: tuple, strands: int, n: int) -> LaurentPoly:
    braid = BraidWord(word, strands)
    writhe = braid.writhe
    color = n - 1
    bracket = LaurentPoly.zero()
    for width, coeff in chebyshev_coeffs(color).monomials():
        bracket = bracket + braid_closure_bracket(braid, [width] * strands) * coeff

    # framing correction ((-1)^c A^(c^2+2c))^writhe, then exact division
    # by (-1)^c [c+1]; both must cancel exactly or the conventions broke.
    expo = (color * color + 2 * color) * writhe
    sign = -1 if (color % 2 == 1 and writhe % 2 == 1) else 1
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


def colored_jones_exact(K: KnotPresentation, n: int) -> LaurentPoly:
    """Exact J(K, n) as a Laurent polynomial in t = A**4."""
    if n < 1:
        raise ValueError("color index n must be >= 1")
    return _colored_jones_exact_cached(K.braid.word, K.braid.strands, n)


# -- numeric R-matrix backend ------------------------------------------

def _qint(k: int, q: complex) -> complex:
    return (q ** k - q ** (-k)) / (q - q ** (-1))


@lru_cache(maxsize=64)
def _rmatrix_data(N: int, r: int):
    """Braiding matrix, its inverse, the trace weight, and the twist.

    Built for the N-dimensional representation with the Cartan half-power
    taken as A**-1, which makes the closure invariant an evaluation at
    t = A**4 (calibrated against the exact backend).  The twist comes from
    the partial trace, so the closure is Markov-invariant by construction.
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
                row = (j + m) * N + (i - m)
                col = i * N + j
                R[row, col] += coef
    Rinv = np.linalg.inv(R)
    weight = np.array([q ** (N - 1 - 2 * j) for j in range(N)], dtype=np.complex128)
    qdim = _qint(N, q)
    twist = np.einsum("i,j,ijij->", weight, weight, R.reshape(N, N, N, N)) / qdim
    return R, Rinv, weight, complex(twist), complex(qdim)


def colored_jones_rmatrix(K: KnotPresentation, n: int, ctx: RootContext) -> complex:
    """J(K, n) at t = ctx.A_value**4 via the braid action of the n-dim rep.

    R moves weight between two slots but keeps their sum, so the braid
    operator is block diagonal over the total weight w of a multi-index
    in {0..n-1}^strands.  Each generator is restricted to one sector at a
    time, and the closure adds the sectors' weighted diagonals.
    """
    if n < 1:
        raise ValueError("color index n must be >= 1")
    if n == 1:
        return 1 + 0j
    N, s = n, K.braid.strands
    sizes = reduce(np.convolve, [np.ones(N)] * s)   # multi-indices per total weight
    # the product, one generator block and its masked gather, 16 bytes per entry
    need = 4 * 16 * float(sizes.max()) ** 2
    if need > RMATRIX_BYTE_BUDGET:
        raise StateSpaceTooLarge(
            f"the largest weight sector of {N}^{s} states needs {need / 2**20:.0f} MiB, over "
            f"the {RMATRIX_BYTE_BUDGET >> 20} MiB R-matrix budget; use --backend exact")

    R, Rinv, weight, twist, qdim = _rmatrix_data(N, ctx.r)
    digits = np.indices((N,) * s).reshape(s, -1)   # slot 0 most significant, as in np.kron
    order = np.argsort(digits.sum(axis=0), kind="stable")
    trace = 0j
    for flat in np.split(order, np.cumsum(sizes[:-1]).astype(np.int64)):
        k = digits[:, flat]
        mat = np.eye(len(flat), dtype=np.complex128)
        for g in K.braid.word:
            i = abs(g) - 1
            a, b = k[i], k[i + 1]
            rest = flat - a * N ** (s - 1 - i) - b * N ** (s - 2 - i)   # must agree off i, i+1
            block = (R if g > 0 else Rinv).reshape((N,) * 4)[a[:, None], b[:, None], a, b]
            mat = np.where(rest[:, None] == rest, block, 0) @ mat
        trace += np.prod(weight[k], axis=0) @ np.diagonal(mat)
    return complex(trace / (twist ** K.braid.writhe) / qdim)


# -- catalog backend ---------------------------------------------------

JONES_REL_TOL = 1e-10  # every catalog value meets it, by a computed bound, or raises
_U = 2.0 ** -53
_UNIT_ERR = 32 * _U  # exp(i pi k/NN), k < 2NN: angle within 6 pi u, cos and sin 4 ulp


def _trefoil_values(r: int, n_max: int) -> list:
    """Morton's formula for the (2, 3) torus knot at t**-1, in double precision.

    J(n) = sum_h (A^-(c + 10h + 2) - A^-(c - 2h - 2)) / (A^-2n - A^2n) over
    h = 1-n, 3-n, .., n-1, c = 6(h^2 + 1 - n^2), A = exp(i pi/NN), with the
    exponents reduced modulo 2NN in integers.  The numerator S is exactly
    rounded; docs/conventions.md derives the certificate
    2E (n/|S| + 1/|den|) + 8u <= JONES_REL_TOL, E = _UNIT_ERR.
    """
    NN, M = 2 * r + 1, 4 * r + 2
    table = np.exp(1j * (math.pi / NN) * np.arange(M))
    values = []
    for n in range(1, n_max + 1):
        h = np.arange(1 - n, n, 2)
        c = 6 * (h * h + 1 - n * n)
        terms = np.concatenate((table[-(c + 10 * h + 2) % M], -table[-(c - 2 * h - 2) % M]))
        s = complex(math.fsum(terms.real), math.fsum(terms.imag))
        den = complex(table[-2 * n % M] - table[2 * n % M])
        bound = 2 * _UNIT_ERR * (n * abs(den) + abs(s)) + 8 * _U * abs(s * den)
        if not bound < JONES_REL_TOL * abs(s * den):
            raise PrecisionLoss(f"trefoil J({n}) at r={r} misses {JONES_REL_TOL:g}")
        values.append(s / den)
    return values


def _figure_eight_values(r: int, n_max: int) -> list:
    """Habiro's sum J(n) = sum_{k<n} prod_{j<=k} s(n+j) s(j-n), s(m) = 2 sin(2 pi m/NN).

    peak(n), the largest log2 of a partial product plus one bit of slack,
    comes from one float64 cumulative sum; each color is certified by the
    rounding bound 5 n^2 2^(peak(n) - p) at p bits (docs/conventions.md).
    """
    NN = 2 * r + 1
    with np.errstate(divide="ignore"):
        log_s = np.log2(np.abs(2 * np.sin(2 * np.pi * np.arange(NN) / NN)))
    ns, js = np.arange(1, n_max + 1)[:, None], np.arange(1, n_max)[None, :]
    logs = np.where(js < ns, log_s[(ns + js) % NN] + log_s[(js - ns) % NN], 0.0)
    peak = np.max(np.cumsum(logs, axis=1), axis=1, initial=0.0) + 1
    bits = math.ceil(peak.max() + math.log2(5 * n_max * n_max / JONES_REL_TOL)) + 16
    # s(m) near m = NN/2 is ill-conditioned in its argument: spend log2(2NN) more bits
    with mpmath.workprec(bits + (2 * NN).bit_length() + 2):
        s = [2 * mpmath.sin(2 * mpmath.pi * m / NN) for m in range(NN)]
    values = []
    with mpmath.workprec(bits):
        for n in range(1, n_max + 1):
            total = prod = mpmath.mpf(1)
            for j in range(1, n):
                prod = prod * s[(n + j) % NN] * s[(j - n) % NN]
                total += prod
            if not 5 * n * n * 2.0 ** (peak[n - 1] - bits) < JONES_REL_TOL * abs(total):
                raise PrecisionLoss(f"figure-eight J({n}) at r={r} misses {JONES_REL_TOL:g}")
            values.append(total)
    return values


_CATALOG_SUMS = {
    "unknot": lambda r, n_max: [1 + 0j] * n_max,
    "trefoil": _trefoil_values,
    "figure-eight": _figure_eight_values,
}


def catalog_jones_values(name: str, r: int, n_max: int) -> list:
    """J(name, n) for n = 1..n_max at t = exp(2 pi i/(r+1/2)), in one pass.

    Each value is within JONES_REL_TOL relative, or PrecisionLoss is raised.
    Figure-eight values are real mpmath numbers: up to about 2**(r/2), they
    can leave the double range.  The others are Python complex numbers.
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
