"""Colored Jones polynomials by three mutually validating backends.

One sector loop carries the quantum-group action of the n-dimensional
representation on a braid, one total-weight sector at a time, closed by a
weighted trace; it runs over several rings.  One trace builds the
generators from the closed-form (Kirby-Melvin) R-matrix entries and gives
T = J(A^4) [n] A^-((n^2-1) writhe) in the ring of its power table.

* rmatrix: T in complex128 at A = exp(i pi/(2r+1)), and
  J = T A^((n^2-1) writhe) / [n];
* exact: T as an integer Laurent polynomial, from the trace over F_p at
  roots of unity, interpolated in A^4 by an inverse DFT and rebuilt by
  CRT, then divided exactly.  The loop in (min, +) gives its degree
  window, and in (+, x) on L1 norms a bound on its coefficients.
  Normalized so the unknot gives 1, in the variable t = A**4;
* catalog: closed forms for the built-in knots, chosen by braid word and
  certified to JONES_REL_TOL per color, both over one integer table of the
  (2r+1)-th roots of unity: Morton's formula for the trefoil as two exact
  running sums, O(r) per level, conjugated for its mirror (J(K*)(t) =
  J(K)(1/t) = conj J(K)(t) at |t| = 1), Habiro's cyclotomic sum for the
  figure-eight as one integer dot product per color over its partial sine
  products; and their exact polynomials in t by Masbaum's cyclotomic sum
  over LaurentPoly.  A catalog knot's state norm comes from its entry's
  norm pass, certified as a whole from the partial sums in place of each
  color, as w(n) |J(n)| = |S'(n)|/sqrt(NN) for Morton's sum (exact in ints)
  and |P - N|/NN^(3/2) for Habiro's (once in float64, P and N its terms of
  each sign).  Each built-in knot is one CATALOG entry: its braid, sums,
  norm pass and volume.

Every engine, and the catalog's choice, reads the normal form of a knot's
braid word (_normal_form): its g, -g pairs cancelled and its Markov
destabilizations made, which keep J.  One rule (_resolve) picks the
backend: auto takes the catalog for a catalog word, and otherwise the
R-matrix for a value or the exact engine for a polynomial; exact always
runs the sector engine, the catalog's oracle.  A value runs at its color's
class mod 2r+1 (colored_jones).

Indexing: J(K, 1) = 1 is the trivial color, and J(K, n) comes from the
(n-1)-st cabling color.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from itertools import accumulate, pairwise, repeat
from operator import add, mul, truediv
from typing import Callable, NamedTuple, Optional

from . import errors
from ._lazy import lazy_import
from .diagrams import BraidWord
from .errors import InexactDivision, PrecisionLoss, UnknownCatalogEntry
from .laurent import LaurentPoly, quantum_integer_poly
from .roots import RootContext, quantum_integer, unit_root

np = lazy_import("numpy")

class KnotPresentation(NamedTuple("KnotPresentation", [("name", str), ("braid", BraidWord)])):
    """A knot given as a braid closure."""

    __slots__ = ()

    def __new__(cls, name, braid):
        comps = braid.closure_components()
        if len(comps) != 1:
            raise ValueError(
                f"braid closure has {len(comps)} components; a knot needs exactly one")
        return super().__new__(cls, name, braid)

    @classmethod
    def from_catalog(cls, name: str) -> "KnotPresentation":
        return cls(name, catalog_entry(name).braid)

    @classmethod
    def from_braid(cls, word, strands: int, name: str = "custom") -> "KnotPresentation":
        return cls(name, BraidWord(tuple(word), strands))


class JonesValue(NamedTuple):
    """A single colored-Jones evaluation and which engine produced it."""

    n: int
    value: complex
    backend: str


# -- one sector loop over several rings ---------------------------------

def _sector_size(s: int, N: int, w: int) -> int:
    """How many of the N^s states, digits in 0..N-1, have weight w: inclusion-exclusion
    over the j digits that pass N - 1."""
    return sum((-1) ** j * math.comb(s, j) * math.comb(w - j * N + s - 1, s - 1)
               for j in range(min(s, w // N) + 1))


def _check_budget(N: int, s: int, itemsize: int, E: Optional[int] = None, nodes: int = 0,
                  primes: int = 0) -> int:
    """How many evaluation points fit errors.BYTE_BUDGET; StateSpaceTooLarge if none does.

    Per point: 2s d^2 ring entries of the largest sector d (the product, the
    new product and the blocks of up to 2(s - 1) signed letters; a power u^k
    then holds U, X and a new product, and at its row-dot X, Y, the d sums
    and, in (min, +), a d^2 temporary and its ufunc buffer: 4 d^2 + d, within
    2s d^2 and a letter's entries, s >= 2) and, given the
    power table's reach E, _trace's tables (docs/conventions.md), or, if more,
    2 int64 per node for an inverse DFT row, in blocks of as many.  Once, in
    int64: s d_w^2 positions (s - 1 slot pairs' and a letter's) for every
    visited sector w of an int64 call, whose plan lives for the call, or for
    the largest sector of a complex128 call, which builds one at a time;
    (s + 2) N^s for the sector index sets, and 2 N^4 + 20 e for the pair
    tables and their columns while built, e the number of entries of R.  Per
    node: 8 + primes int64 (4 powers of w, the node, its value, coefficient
    and a temporary, and every prime's residue) and 256 bytes for the integers,
    lists and dicts of the CRT and the exact division.  And 8 KiB for the
    interpreter's own objects.
    The sizes are symmetric and unimodal in w, so d is the middle one, and the
    sectors up to the middle hold half of all their squares (the sectors of 2s
    slots at weight s(N-1)) plus, for an even middle, its own square again:
    O(s) integer sums, before any of these exists.
    """
    top = s * (N - 1)
    d = _sector_size(s, N, top // 2)
    held = (_sector_size(2 * s, N, top) + (top % 2 == 0) * d * d) // 2 if itemsize == 8 else d * d
    e = N * (N + 1) * (2 * N + 1) // 6   # one entry per (a, b, m)
    tables = 0 if E is None else 2 * (2 * E + 1) + N * (N + 1) + 5 * e
    point = max(itemsize * (2 * s * float(d) ** 2 + tables), 16 * nodes)
    fixed = (8 * (s * float(held) + (s + 2) * float(N) ** s + 2 * N ** 4 + 20 * e)
             + nodes * (8 * (8 + primes) + 256) + 8192)
    errors.check_bytes(f"the largest weight sector of the {N}^{s} states has {d} states and",
                       point + fixed)
    return int((errors.BYTE_BUDGET - fixed) // point)


def _slot_index(flat, k, i: int, s: int, N: int):
    """Where slot pair i's block on sector ``flat`` (digits ``k``) reads a flat pair table.

    Where the other slots differ: N^2 - 1, from slot values (N-1, N-1) to (0, 0), a change
    of weight and so the zero of every table.
    """
    pair = k[i] * N + k[i + 1]
    rest = flat - pair * N ** (s - 2 - i)   # must agree off i, i+1
    return np.where(rest[:, None] == rest, pair[:, None] * (N * N) + pair, N * N - 1)


def _sector_plan(word, s: int, N: int):
    """(e, d_w, {i: positions}) per sector w <= s(N-1)/2 of {0..N-1}^s, in increasing w.

    e = 4w - 2s(N-1) <= 0 is the exponent of the sector's trace weight A^e.
    One entry for every slot pair i the word uses: the positions at which its
    block on the sector reads a flat pair table (_slot_index).  A generator:
    each sector is built when the loop reaches it, so a caller that keeps the
    list for several loops holds every visited sector's positions at once.
    """
    digits = np.indices((N,) * s).reshape(s, -1)   # flat index sum_i k_i N^(s-1-i)
    weights = digits.sum(axis=0)
    order, sizes = np.argsort(weights, kind="stable"), np.bincount(weights)
    del weights   # not held while the sectors are built: the budget counts (s + 2) N^s
    slots = {abs(g) - 1 for g in word}
    for e, flat in zip(range(-2 * s * (N - 1), 1, 4), np.split(order, np.cumsum(sizes[:-1]))):
        k = digits[:, flat]
        yield e, len(flat), {i: _slot_index(flat, k, i, s, N) for i in slots}


def _sector_loop(word, plan, gens, one, matmul, rowdot, weigh) -> list:
    """One value per sector of ``plan`` (_sector_plan), in its order.

    R keeps the total weight of the two slots it acts on, so the braid
    operator is block diagonal over w, and its trace over sector w equals
    the trace over the mirror sector s(N-1) - w (docs/conventions.md): the
    plan holds only the lower half.  A ring is given by ``gens``, ``one``,
    ``matmul``, ``rowdot`` and ``weigh``.  ``gens`` is (R^-1, R), each a
    pair (values, where): ``values[..., where[(i' N + j') N^2 + i N + j]]``
    is the entry from slot values (i, j) to (i', j'), leading axes of
    ``values`` are a batch of evaluation points, and ``values[..., -1]`` is
    the ring's zero.  A letter's sector block takes that entry where the
    other slots agree and the zero elsewhere, read at its slot pair's
    positions from the plan, and is gathered once per sector for each
    signed letter.  The word is u^k for its smallest period u: a sector's
    product U of u's blocks starts from u's first block, ``matmul`` is the
    ring's product, and for k >= 2 the diagonal of U^k is ``rowdot(Y, X)``
    = diag(Y X), X = U^(k//2) by squaring and Y = X or X U, with U^k never
    formed.  The empty word's diagonal is d copies of ``one``.  ``weigh(e,
    diag)`` reduces the diagonal of the word's product over the sector's
    multi-indices, given the exponent e of its weight.
    """
    u = next((p for p in range(1, len(word)) if not len(word) % p and word[p:] == word[:-p]),
             len(word) or 1)
    k = len(word) // u
    out = []
    for e, d, index in plan:
        blocks, mat = {}, None
        for g in word[:u]:
            if g not in blocks:
                values, where = gens[g > 0]
                blocks[g] = values.take(where.take(index[abs(g) - 1]), axis=-1)
            mat = blocks[g] if mat is None else matmul(blocks[g], mat)
        del index, blocks   # not held while U's powers or the next sector's positions are built
        if k > 1:
            X = mat
            for bit in bin(k // 2)[3:]:   # left to right: U, X and the new product
                X = matmul(X, X)
                if bit == "1":
                    X = matmul(X, mat)
            Y, mat = matmul(X, mat) if k % 2 else X, None   # the row-dot holds X and Y
            diag = rowdot(Y, X)
            del X, Y
        else:
            diag = np.full(d, one) if mat is None else np.diagonal(mat, axis1=-2, axis2=-1)
        out.append(weigh(e, diag))
        del mat, diag   # a diagonal view holds the sector's product
    return out


def _rmatrix_terms(N: int) -> tuple:
    """(R^-1, R) for the N-dim rep in closed form over Z[A, A^-1], no inverse taken.

    Per sign, (where, cols): ``where`` as in _sector_loop, one flat table
    over pairs of slot pairs, and column e of the int array ``cols`` =
    (expo, m, u, v, half) for entry e = +-A^expo {1}..{m} [u, m] [v, m],
    where {k} = A^-2k - A^2k, [u, m] is the symmetric q-binomial, the sign
    is (-1)^m in R^-1, and the exponents span expo -+ half exactly
    (docs/conventions.md).
    """
    x = np.arange(N)
    lam = N - 1 - 2 * x   # the weight of a slot value
    a, b, m = np.nonzero(x <= np.minimum.outer(x, N - 1 - x)[..., None])   # E^m on a, F^m on b
    cols = (m, N - 1 - a + m, b + m, m * (m + 1) + 2 * m * (N - 1 - a + b))
    # R^-1 takes (b, a) to (a - m, b + m), and R takes (a, b) to (b + m, a - m)
    inverse = (((a - m) * N + b + m) * N * N + b * N + a, lam[a] * lam[b] + m * (m - 1))
    forward = (((b + m) * N + a - m) * N * N + a * N + b, -lam[a - m] * lam[b + m] - m * (m - 1))
    out = []
    for pos, expo in (inverse, forward):
        where = np.full(N ** 4, -1)
        where[pos] = np.arange(len(m))
        out.append((where, np.array((expo,) + cols)))
    return tuple(out)


def _trace(word, plan, N: int, terms, pw, E: int, red):
    """T, the closure's weighted trace, at a batch of points x in the ring of ``pw``.

    ``pw[E + e]`` holds x^e for |e| <= E, one column per point, and ``red``
    reduces a value of the ring in place: v % p over F_p, the identity over
    complex128.  The generators are ``terms`` = _rmatrix_terms(N) evaluated
    at x, their q-binomials by Pascal's rule one row u at a time, and each
    sector of ``plan`` is weighted by x^e + x^-e for itself and its mirror
    (the middle sector, e = 0, once by x^0).
    """
    P, dtype = pw.shape[1], pw.dtype
    braces = np.ones((N, P), dtype=dtype)               # {1} .. {m}
    binom = np.zeros((N, N, P), dtype=dtype)            # [u, m], Pascal's rule
    binom[:, 0] = 1
    for m in range(1, N):
        braces[m] = red(braces[m - 1] * (pw[E - 2 * m] - pw[E + 2 * m]))
    for u in range(1, N):   # [u, m] = x^2m [u-1, m] + x^-2(u-m) [u-1, m-1], m = 1 .. u
        binom[u, 1:u + 1] = red(pw[E + 2:E + 2 * u + 1:2] * binom[u - 1, 1:u + 1]
                                + pw[E - 2 * (u - 1):E + 1:2] * binom[u - 1, :u])
    gens = []
    for positive, (where, (expo, m, u, v, _)) in enumerate(terms):
        val = red(red(red(pw[E + expo] * braces[m]) * binom[u, m]) * binom[v, m])
        val = val if positive else red(np.where(m[:, None] % 2, -val, val))
        gens.append((np.concatenate((val.T, np.zeros((P, 1), dtype)), axis=1), where))

    def weigh(e, diag):
        return red(diag.sum(axis=-1) * (red(pw[E + e] + pw[E - e]) if e else pw[E]))

    return red(sum(_sector_loop(word, plan, gens, 1, lambda X, Y: red(X @ Y),
                                lambda Y, X: red(np.einsum("...ij,...ji->...i", Y, X)), weigh)))


# -- numeric R-matrix backend ------------------------------------------

def colored_jones_rmatrix(K: KnotPresentation, n: int, ctx: RootContext) -> complex:
    """J(K, n) at t = ctx.A_value**4 via the braid action of the n-dim rep.

    The trace T of the normal form of K's word in complex128 at x = A, every
    power of A taken from an exponent reduced mod 2(2r+1) in integers;
    J = T A^((n^2-1) writhe) / [n], the writhe of that normal form.
    """
    if n < 1:
        raise ValueError("color index n must be >= 1")
    if n == 1:
        return 1 + 0j
    N, NN = n, 2 * ctx.r + 1
    word, s = braid = _normal_form(K.braid)
    if n % NN == 0:   # refused before any table is built
        raise PrecisionLoss(f"the R-matrix gives J({n}) at r={ctx.r} as 0/0: [{n}] = 0")
    E = 2 * N * (N + s)   # covers every exponent of an entry and a weight
    _check_budget(N, s, 16, E)
    pw = np.exp(1j * math.pi / NN * (np.arange(-E, E + 1) % (2 * NN)))[:, None]
    # the plan's generator builds one sector at a time
    trace = _trace(word, _sector_plan(word, s, N), N, _rmatrix_terms(N), pw, E, lambda v: v)[0]
    twist = cmath.exp(1j * math.pi / NN * ((N * N - 1) * braid.writhe % (2 * NN)))
    return complex(trace * twist / quantum_integer(n, ctx))


# -- exact backend: the sector loop over F_p at roots of unity, inverse DFT and CRT --

def _degree_window(word, plan, s: int, terms, points: int) -> tuple:
    """(lo, hi) bounding the A-exponents of T, by the sector loop in (min, +).

    lo from the word's blocks of lowest exponents; hi = -lo of the mirror
    word, every letter negated, as T(mirror)(A) = T(1/A) (docs/conventions.md).
    The (min, +) product broadcasts over the contraction index, 2s rows of d^2
    sums at a time: the 2s d^2 entries of one float64 point beyond the one the
    loop holds, or a single row, in place of a letter's entries, where the
    budget admits only ``points`` = 1 (docs/conventions.md).
    """
    rows = 2 * s if points > 1 else 1

    def min_plus(X, Y):
        out = np.empty((len(X), Y.shape[1]))
        for a in range(0, len(X), rows):
            np.min(X[a:a + rows, :, None] + Y, axis=1, out=out[a:a + rows])
        return out

    gens = [(np.append(c[0] - c[4], np.inf), where) for where, c in terms]
    lo, mirror_lo = (min(_sector_loop(letters, plan, gens, 0.0, min_plus,
                                      lambda Y, X: (Y + X.T).min(-1),
                                      lambda e, diag: e + diag.min()))
                     for letters in (word, [-g for g in word]))
    return int(lo), -int(mirror_lo)


def _coefficient_bound(word, plan, N: int, terms) -> float:
    """A bound on T's coefficients: its L1 norm, by the sector loop in (+, x)."""
    comb = np.array([[float(math.comb(u, m)) for m in range(N)] for u in range(N)])
    gens = [(np.append(np.ldexp(comb[u, m], m) * comb[v, m], 0.0), where)   # 2^m C(u,m) C(v,m)
            for where, (_, m, u, v, _) in terms]
    # nonnegative float sums and products: far below 2^-20 relative rounding.  A sector
    # with e < 0 counts for itself and its mirror
    return (1 + 2.0 ** -20) * float(sum(_sector_loop(
        word, plan, gens, 1.0, np.matmul, lambda Y, X: np.einsum("...ij,...ji->...i", Y, X),
        lambda e, diag: (1 + (e < 0)) * diag.sum())))


def _primes(M: int):
    """The primes p = 1 mod M below 2^25, where int64 stays exact (docs/conventions.md),
    largest first: trial division by the odd numbers up to sqrt(p), 256 at a time."""
    for p in range((2 ** 25 - 2) // M * M + 1, 1, -M):
        top = math.isqrt(p) + 1
        if all(np.remainder(p, np.arange(f, min(f + 512, top), 2, dtype=np.int32)).min()
               for f in range(3, top, 512)):
            yield p


def _unit_powers(p: int, L: int):
    """w^k mod p for k < 4L, w = g^((p-1)/4L) for the first g = 2, 3, .. whose w^4 has order
    L: the nodes A = w^j, j < L, put t = A^4 at the L distinct L-th roots of unity."""
    for g in range(2, p):
        w = pow(g, (p - 1) // (4 * L), p)
        powers = np.fromiter(accumulate(repeat(w, 4 * L - 1), lambda a, b: a * b % p, initial=1),
                             np.int64, 4 * L)
        if np.all(powers[4::4] != 1):
            return powers


def _trace_mod(word, plan, N: int, terms, lo: int, E: int, p: int, powers, j):
    """T(x) x^-lo mod p at the nodes x = w^j, by the sector loop over F_p.

    ``powers`` holds w^k for k < len(powers) = the order of w; x^e = w^(ej), |e| <= E,
    for the entries and weights, and x^-lo each come from one gather.
    """
    pw = powers.take(np.outer(np.arange(-E, E + 1), j) % len(powers))
    return (_trace(word, plan, N, terms, pw, E, lambda v: np.remainder(v, p, out=v))
            * powers.take(-lo * j % len(powers)) % p)


def _coefficients_mod(word, plan, N: int, terms, lo: int, L: int, E: int, p: int, chunk: int):
    """The coefficients mod p of P, where T(A) = A^lo P(A^4) and deg P <= L - 2, as int64.

    T comes from _trace_mod at the L nodes A = w^j (_unit_powers), at most
    ``chunk`` at a time, so t_j = A^4 runs over the L-th roots of unity and P
    is the inverse DFT c_k = L^-1 sum_j y_j t_j^-k, at most ``chunk`` rows k
    at a time.  Its coefficient of degree L - 1 must vanish.
    """
    powers, j = _unit_powers(p, L), np.arange(L)
    y, c = np.empty(L, np.int64), np.empty(L, np.int64)
    for i in range(0, L, chunk):
        y[i:i + chunk] = _trace_mod(word, plan, N, terms, lo, E, p, powers, j[i:i + chunk])
    for i in range(0, L, chunk):   # t_j^-k = w^(-4jk)
        rows = powers.take(np.outer(j[i:i + chunk], -4 * j) % (4 * L)) * y
        c[i:i + chunk] = np.remainder(rows, p, out=rows).sum(axis=1) % p
    if c[-1]:
        raise InexactDivision(f"T mod {p} is no polynomial of degree {L - 2} in A^4 on its "
                              "degree window; the window or a convention is wrong")
    return c[:-1] * pow(L, -1, p) % p


def _crt(residues: list, primes: list) -> list:
    """The integers of least absolute value with these residues modulo the primes."""
    values, modulus = residues[0].tolist(), primes[0]
    for res, p in zip(residues[1:], primes[1:]):
        inv = pow(modulus, -1, p)
        values = [v + modulus * ((r - v) * inv % p) for v, r in zip(values, res.tolist())]
        modulus *= p
    return [v - modulus if 2 * v > modulus else v for v in values]


@lru_cache(maxsize=256)
def _colored_jones_exact_cached(word: tuple, strands: int, n: int) -> LaurentPoly:
    """J(n) from T = J(A^4) [n] A^-((n^2-1) writhe), the closure's weighted trace.

    T is rebuilt by CRT modulo primes whose product exceeds twice its
    coefficient bound, then divided exactly (docs/conventions.md).  The
    R-matrix tables and the sector plan are built once here, shared by the
    window, the bound and every batch of every prime, and freed on return.
    """
    N, s = n, strands
    writhe = sum(1 if g > 0 else -1 for g in word)
    points = _check_budget(N, s, 8)   # before the plan allocates N^s
    terms, plan = _rmatrix_terms(N), list(_sector_plan(word, s, N))
    lo, hi = _degree_window(word, plan, s, terms, points)
    cls = (2 * (N - 1) - (N * N - 1) * writhe) % 4   # every exponent of T, mod 4
    lo, hi = lo + (cls - lo) % 4, hi - (hi - cls) % 4
    L = (hi - lo) // 4 + 2   # the nodes: deg P + 1 and one more for the check
    bound, primes, supply = _coefficient_bound(word, plan, N, terms), [], _primes(4 * L)
    while math.prod(primes) <= 2 * bound:
        p = next(supply, None)
        if p is None:
            raise PrecisionLoss(f"J({n}) needs more primes p = 1 mod {4 * L} below 2^25 than "
                                f"the search finds, for its coefficient bound {bound:.3g}")
        primes.append(p)
    E = 2 * N * (N + s)   # covers every exponent of an entry and a weight
    chunk = _check_budget(N, s, 8, E, L, len(primes))
    coeffs = _crt([_coefficients_mod(word, plan, N, terms, lo, L, E, p, chunk)
                   for p in primes], primes)
    T = LaurentPoly({lo + 4 * i: c for i, c in enumerate(coeffs)})
    quotient = (T * LaurentPoly.monomial((N * N - 1) * writhe)).divexact(quantum_integer_poly(N))
    try:
        return quotient.in_variable_power(4)
    except InexactDivision as exc:
        raise InexactDivision(
            "normalized value is not a polynomial in A**4; convention bug") from exc


def colored_jones_exact(K: KnotPresentation, n: int) -> LaurentPoly:
    """Exact J(K, n) as a Laurent polynomial in t = A**4, from the normal form of K's word."""
    if n < 1:
        raise ValueError("color index n must be >= 1")
    return _colored_jones_exact_cached(*_normal_form(K.braid), n)


# -- catalog backend ---------------------------------------------------

JONES_REL_TOL = 1e-10  # every catalog value meets it, by a computed bound, or raises
_U = 2.0 ** -53
# log 2 = _LN2_HI + _LN2_LO within 1.2e-26 (fdlibm's ln2_hi, ln2_lo); _LN2_HI has 32 bits,
# so k _LN2_HI is exact for |k| < 2^21
_LN2_HI, _LN2_LO = float.fromhex("0x1.62e42fee00000p-1"), float.fromhex("0x1.a39ef35793c76p-33")


def _trefoil_sums(r: int, n_max: int) -> tuple:
    """(X, Y, re, im): Morton's root table and the running sums S'(1..n_max) over it.

    The table is _root_table(NN, F), F = 64 + bitlen(NN), X[0] = 2^F.  S'(n)
    = sum_h g(h) over h = 1-n, 3-n, .., n-1, g(h) = w^e(h+1) - w^e(h), e(h)
    = -(3h^2 - h + 2), w = A^2, read at e mod NN.  S'(n) = S'(n-2) + g(n-1)
    + g(1-n): one running sum per parity of n and part, in Python ints, so
    each part of S'(n) is the exact sum of 2n table entries.  One count,
    before any of them exists, covers the table, every list built here and
    the caller's list, per color a value or a square and a ratio
    (docs/conventions.md).
    """
    NN = 2 * r + 1
    F = 64 + NN.bit_length()
    bits = F + 2 + (2 * n_max).bit_length()   # a sum of 2n entries
    errors.check_bytes(
        f"the Morton sum of {n_max} colors at r={r} holds its root table at {F} bits and",
        _root_table_bytes(NN, F) + _int_bytes(2 * n_max, NN.bit_length(), 2 * n_max)   # e
        # one part at a time: g, its two slices and the steps
        + _int_bytes(2 * n_max, F + 2, 4 * n_max) + _int_bytes(n_max, F + 3, n_max)
        + 2 * _int_bytes(n_max, bits, 2 * n_max)   # re and im, and a half as accumulated
        # the larger caller's list: the norm's squares, its float ratios and Y[1:] twice
        + _int_bytes(n_max, 2 * bits, 4 * n_max) + 24 * n_max)
    X, Y = _root_table(NN, F)
    e = [-(3 * h * h - h + 2) % NN for h in range(1 - n_max, n_max + 1)]

    def running(part):
        g = [part[b] - part[a] for a, b in pairwise(e)]   # g(h) at h + n_max - 1
        # S'(n) - S'(n-2) = g(m) + g(-m) at m = n-1, with g(0) once
        steps = g[n_max - 1:n_max] + list(map(add, g[n_max:], g[n_max - 2::-1]))
        del g   # not held while the steps accumulate
        sums = [0] * n_max
        sums[::2], sums[1::2] = accumulate(steps[::2]), accumulate(steps[1::2])
        return sums

    return X, Y, running(X), running(Y)


def _trefoil_values(r: int, n_max: int, zero: int = 0, name: str = "trefoil") -> list:
    """Morton's formula for the (2, 3) torus knot at t**-1, as two exact running sums.

    J(n) = S'(n)/den'(n): S'(n) = sum_h g(h) over h = 1-n, 3-n, .., n-1,
    g(h) = A^-(6h^2 + 10h + 8) - A^-(6h^2 - 2h + 4), and den'(n) =
    A^(-2n - 6n^2) - A^(2n - 6n^2), Morton's sum and denominator times
    A^-6n^2, A = exp(i pi/NN).  Every exponent is even, so A^2k = w^k is
    read from the table of _trefoil_sums at k mod NN, and S' is its sums:
    S' and den' are exactly rounded; in units of 2^-F, docs/conventions.md
    derives the certificate 2E (n/|S'| + 1/|den'|) + 8u <= JONES_REL_TOL, E = 2.
    den'(NN) = 0, and by l'Hopital in A, J(zero) = J(NN) = s/2NN, s = sum_k
    (-1)^(k+1) c(k) w^-c(k) over k = 1-NN .. NN, c(k) = 3k^2 - k + 2: each
    part within 0.78 sum c units, certified as 0.78 sqrt(2) sum c + 8u |s|
    <= JONES_REL_TOL |s|.
    """
    NN = 2 * r + 1
    X, Y, *sums = _trefoil_sums(r, n_max)
    values = []
    for n, re, im in zip(range(1, n_max + 1), *sums):
        p, q = (-n - 3 * n * n) % NN, (n - 3 * n * n) % NN
        s, den = complex(re, im), complex(X[p] - X[q], Y[p] - Y[q])   # ints round correctly
        sd = abs(s * den)
        if not 4 * (n * abs(den) + abs(s)) + 8 * _U * sd < JONES_REL_TOL * sd:
            raise PrecisionLoss(f"{name} J({n}) at r={r} misses {JONES_REL_TOL:g}")
        values.append(s / den)
    if zero:
        re = im = weight = 0
        for k in range(1 - NN, NN + 1):
            c = 3 * k * k - k + 2
            m, term = -c % NN, c if k % 2 else -c
            re, im, weight = re + term * X[m], im + term * Y[m], weight + c
        s = complex(re, im)
        if not 0.78 * math.sqrt(2) * weight + 8 * _U * abs(s) < JONES_REL_TOL * abs(s):
            raise PrecisionLoss(f"{name} J({zero}) at r={r} misses {JONES_REL_TOL:g}")
        values.append(s / (2 * NN * X[0]))
    return values


def _trefoil_norm(r: int) -> Optional[tuple]:
    """(norm_sq, log_norm_sq, argmax_n) of the trefoil's knot state at level r, or None.

    Morton's |den'(n)| = |s(n)|, s(n) = 2 sin(2 pi n/NN), so w(n) |J(n)| =
    |S'(n)|/sqrt(NN) and the squared norm is sum_n |S'(n)|^2 / NN.  S' comes
    from _trefoil_sums over its table at F bits, and the sum T of its squares
    is exact in ints.  Each part of S'(n) is within
    1.56 n units, so T is within 1.56 (2 sqrt(2 T sum n^2) + 3.12 sum n^2)
    of its exact value (docs/conventions.md), which must stay below
    JONES_REL_TOL T, compared in ints; else None.  norm_sq is the one
    correctly rounded quotient T / (NN 2^2F), and argmax_n the first largest
    |S'(n)|^2 / Y[n]^2, |J(n)|^2 up to a constant.  The mirror's S' are the
    conjugates: the same norm.
    """
    X, Y, re, im = _trefoil_sums(r, r)
    squares = list(map(add, map(mul, re, re), map(mul, im, im)))
    total, n2 = sum(squares), r * (r + 1) * (2 * r + 1) // 6   # n2 = sum n^2
    num, den = JONES_REL_TOL.as_integer_ratio()
    # 625 times the bound: 1.56 = 39/25
    if not 39 * (50 * (math.isqrt(2 * n2 * total) + 1) + 78 * n2) * den < 625 * num * total:
        return None
    ratios = list(map(truediv, squares, map(mul, Y[1:r + 1], Y[1:r + 1])))
    norm_sq = total / ((2 * r + 1) * X[0] ** 2)
    return norm_sq, math.log(norm_sq), ratios.index(max(ratios)) + 1


def _int_bytes(ints: int, bits: int, slots: int) -> int:
    """Bytes of ``ints`` ints of up to ``bits`` bits and ``slots`` list slots on CPython:
    24 + 4 ceil(bits/30) per int (30-bit digits) and 8 per slot."""
    return ints * (24 + 4 * -(-bits // 30)) + 8 * slots


def _root_table_bytes(NN: int, F: int) -> int:
    """What _root_table(NN, F) holds at once, which its reader counts: two halves of NN//2 + 1
    ints of F + 1 bits, Y's negated half, and 5 NN slots for the halves, growth and full lists."""
    return _int_bytes(3 * (NN // 2 + 1), F + 1, 5 * NN)


def _root_table(NN: int, F: int) -> tuple:
    """(X, Y), X[m] + i Y[m] = round(2^F w^m) for m < NN, each part within 0.78 units.

    The powers of w = exp(2 pi i/NN) for m <= NN/2 in Gaussian-integer fixed
    point at F + bitlen(NN) + 2 bits, mirrored by w^(NN-m) = conj(w^m): the
    rounded w and each truncated product add under 2.2 units of the finer
    grid, which |w^m| = 1 does not amplify (docs/conventions.md).  It only
    builds: its reader counts _root_table_bytes(NN, F) with its own lists.
    """
    W = F + NN.bit_length() + 2
    a, b = unit_root(NN, W)
    x, y, half, X, Y = 1 << W, 0, 1 << (W - F - 1), [], []
    for _ in range(NN // 2 + 1):
        X.append((x + half) >> (W - F))
        Y.append((y + half) >> (W - F))
        x, y = (x * a - y * b) >> W, (x * b + y * a) >> W
    return X + X[:0:-1], Y + [-v for v in Y[:0:-1]]


def _q_bits(NN: int) -> int:
    """L with |Q(m)| < 2^L, Q(m) = s(1) .. s(m): one float64 cumulative sum of log2 |s|, plus 1."""
    log_q = accumulate(math.log2(abs(2 * math.sin(2 * math.pi * m / NN))) for m in range(1, NN))
    return math.ceil(max(map(abs, log_q))) + 1


class Dyadic(NamedTuple):
    """The exact real man 2^exp, exp <= 0."""

    man: int
    exp: int

    def __complex__(self) -> complex:
        """The nearest double, man / 2^-exp correctly rounded; +-inf past the double range."""
        try:
            return complex(self.man / 2 ** -self.exp)
        except OverflowError:
            return complex(-math.inf if self.man < 0 else math.inf)


def _figure_eight_values(r: int, n_max: int, zero: int) -> list:
    """Habiro's sum J(n) = sum_{k<n} prod_{j<=k} (c(n) - c(j)), c(m) = 2cos(4 pi m/NN), from one table.

    With s(m) = 2 sin(2 pi m/NN) and Q(m) = s(1) .. s(m), c(n) - c(j) =
    s(n+j) s(j-n) and Q(2r) = (-1)^r NN turn every partial product into a
    product of two entries of Q: for 1 <= n <= r,
    J(n) = (-1)^(n+r-1) / (NN s(n)) sum_{k<n} Q(n+k) Q(NN-n+k).
    |Q| < 2^L from one float64 cumulative sum of log2 |s|; Q comes from one
    product chain with P-bit mantissas over the table of s at G bits and is
    kept as integers at unit 2^-U, so the sum is one integer dot product
    per color, divided once by NN s(n).  J(zero) = sum_{k<NN} Q(k)^2 for a
    multiple ``zero`` of NN.  Each color is certified by the rounding bound
    8 terms 2^(L+U) < JONES_REL_TOL |sum| in units of 2^-2U
    (docs/conventions.md) and returned exactly, as a Dyadic at unit 2^-2U.
    """
    NN, bits = 2 * r + 1, (2 * r + 1).bit_length()
    L = _q_bits(NN)
    U = L + bits + 64            # 64 bits: 34 for JONES_REL_TOL and 30 for small |J(n)|
    P = U + L + bits + 3         # each Q(m) within 0.26 units of 2^-U before its truncation
    G = P + 2 * bits             # each s(m) within 2^(-P - bitlen(NN)) relative
    # the table (its unread X too) and then the NN ints of Q, below 2^(L+U)
    errors.check_bytes(f"the figure-eight sum at r={r} holds a {G + 1}-bit root table and "
                       f"{NN} products of {L + U} bits and",
                       _root_table_bytes(NN, G + 1) + _int_bytes(NN, L + U, NN))
    S = _root_table(NN, G + 1)[1]   # S[m] = round(s(m) 2^G)
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

    values = []
    for n in range(1, n_max + 1):
        total = certified(n, n, sum(map(mul, Q[n:2 * n], Q[NN - n:])))
        q = (total << G) // (NN * S[n])
        values.append(Dyadic(q if (n + r) % 2 else -q, -2 * U))
    if zero:
        values.append(Dyadic(certified(zero, NN, sum(map(mul, Q, Q))), -2 * U))
    return values


def _figure_eight_terms(r: int) -> Optional[tuple]:
    """(A, e, argmax_n), A(n) = NN^(3/2) w(n) |J(n)| within e(n), n = 1..r: Habiro's sum in float64.

    The sum of _figure_eight_values over |Q(m)|, one float cumulative product
    of |s(m)| from _root_table(NN, bitlen(NN) + 56).  Q(m) has the sign
    (-1)^max(0, m-r), so term k of color n has the sign (-1)^k for
    n + k <= r and (-1)^(n+r) past it: the strided slices of one color's
    terms sum to P and N, and |J(n)| = |P - N|/(NN |s(n)|), so with w(n) =
    eta |[n]| = |s(n)|/sqrt(NN), A(n) = |P - N| and e(n) = 1.001 (4.1 (r+n)
    + n + 2) u (P + N), u = 2^-53 (docs/conventions.md).  argmax_n is the
    first largest |J(n)|.  None where some |Q(m)| leaves [2^-500, 2^500],
    from r = 2118: inside it no term, sum or A(n) leaves the double range.
    One count covers the larger phase, the table while s is built or s, q, moduli and
    bounds (a float 24 bytes, its slot 8 and 1 of growth), 2r slice slots and 1.5 KiB of frames.
    """
    NN = 2 * r + 1
    F = NN.bit_length() + 56
    errors.check_bytes(f"the figure-eight norm pass at r={r} holds a {F}-bit root table or "
                       f"{2 * (NN + r)} floats and",
                       max(_root_table_bytes(NN, F), 33 * (2 * NN + 2 * r) + 16 * r + 1536))
    s = [abs(y) / (1 << (F - 1)) for y in _root_table(NN, F)[1]]   # correctly rounded
    q = list(accumulate(s[1:], mul, initial=1.0))
    if not 2.0 ** -500 < min(q) <= max(q) < 2.0 ** 500:
        return None
    moduli, bounds, argmax = [], [], 1
    for n in range(1, r + 1):
        m, h = NN - n, min(n, r + 1 - n)   # term k = q[n+k] q[m+k]; (-1)^k for k < h
        even = sum(map(mul, q[n:n + h:2], q[m:m + h:2]))
        odd = sum(map(mul, q[n + 1:n + h:2], q[m + 1:m + h:2]))
        tail = sum(map(mul, q[n + h:2 * n], q[m + h:]))
        moduli.append(abs((even + tail) - odd if (n + r) % 2 == 0 else even - (odd + tail)))
        bounds.append(1.001 * (4.1 * (r + n) + n + 2) * _U * (even + odd + tail))
        if moduli[-1] * s[argmax] > moduli[argmax - 1] * s[n]:   # A(n)/s(n) against the best
            argmax = n
    return moduli, bounds, argmax


def _figure_eight_norm(r: int) -> Optional[tuple]:
    """(norm_sq, log_norm_sq, argmax_n) of the figure-eight's knot state at level r, or None.

    The squared norm is sum A(n)^2 / NN^3 over _figure_eight_terms, certified
    as a whole: sum e (2A + e) < JONES_REL_TOL sum A^2, both sides scaled by
    one power of two (docs/conventions.md).  None where the terms are None
    or the certificate fails.
    """
    found = _figure_eight_terms(r)
    if found is None:
        return None
    moduli, bounds, argmax = found
    expo = math.frexp(max(moduli))[1]   # scaled by 2^-expo, the largest A is in [1/2, 1)
    a, e = (list(map(mul, v, repeat(2.0 ** -expo))) for v in (moduli, bounds))
    total = math.fsum(map(mul, a, a))
    if not (1 + 1e-9) * (2 * sum(map(mul, e, a)) + sum(map(mul, e, e))) < JONES_REL_TOL * total:
        return None
    # 2 expo log 2 with its first part exact, so the sum rounds once at the size of the result
    log_norm_sq = 2 * expo * _LN2_HI + (2 * expo * _LN2_LO + math.log(total / (2 * r + 1) ** 3))
    try:
        return math.exp(log_norm_sq), log_norm_sq, argmax
    except OverflowError:   # past the double range norm_sq reads inf
        return math.inf, log_norm_sq, argmax


class CatalogEntry(NamedTuple):
    """A built-in knot: all that the catalog knows of it.

    ``values(r, n_max, zero)`` gives J(1..n_max) at level r, n_max <= r, and
    then J(zero) for a nonzero multiple ``zero`` of 2r+1, which every entry
    serves; the trefoil's values and norm read one table and its running
    sums (_trefoil_sums), counted once; ``weight(k)`` is
    Masbaum's w_k as (exponent of t, sign), None where the sum stops at k = 0;
    ``norm(r)`` is the knot state's (norm_sq, log_norm_sq, argmax_n) at level
    r from the entry's own partial sums, certified to JONES_REL_TOL, or None
    (the unknot's is its closed form, exactly 1: docs/conventions.md);
    ``volume`` is the simplicial volume of the complement, 0 for the unknot
    and the torus knots.
    """

    braid: BraidWord
    values: Callable
    weight: Optional[Callable]
    norm: Callable
    volume: float


CATALOG = {
    "unknot": CatalogEntry(BraidWord((), 1),
                           lambda r, n_max, zero: [1 + 0j] * (n_max + bool(zero)), None,
                           lambda r: (1.0, 0.0, 1), 0.0),
    "trefoil": CatalogEntry(BraidWord((1, 1, 1), 2), _trefoil_values,
                            lambda k: (k * (k + 3) // 2, (-1) ** k), _trefoil_norm, 0.0),
    "trefoil-mirror": CatalogEntry(
        BraidWord((-1, -1, -1), 2), lambda r, n_max, zero: [
            z.conjugate() for z in _trefoil_values(r, n_max, zero, "trefoil-mirror")],
        lambda k: (-(k * (k + 3) // 2), (-1) ** k), _trefoil_norm, 0.0),
    # two regular ideal tetrahedra: 4 Lobachevsky(pi/6) = 2.02988321281930725004..., as a double
    "figure-eight": CatalogEntry(BraidWord((1, -2, 1, -2), 3), _figure_eight_values,
                                 lambda k: (0, 1), _figure_eight_norm, 2.0298832128193074),
}
# by braid word: each rotation, flip σ_i ↔ σ_(s−i) and reversal; a mirror is its own entry
_CATALOG_NAMES = {(w[k:] + w[:k], s): name for name, ((word, s), *_) in CATALOG.items()
                  for f in (word, tuple((s if g > 0 else -s) - g for g in word))
                  for w in (f, f[::-1]) for k in range(len(w) or 1)}


def catalog_entry(name: str) -> CatalogEntry:
    """CATALOG[name]; UnknownCatalogEntry if there is none."""
    if name not in CATALOG:
        raise UnknownCatalogEntry(f"{name!r} not in catalog {sorted(CATALOG)}")
    return CATALOG[name]


def _catalog_polynomial(name: str, n: int) -> LaurentPoly:
    """Exact J(name, n) in t by Masbaum's cyclotomic sum, the product of each k from that of k-1.

    J(n) = sum_{k<n} w_k prod_{j<=k} (t^n + t^-n - t^j - t^-j): w_k = 1 for the
    figure-eight and (-1)^k t^(k(k+3)/2) for the trefoil, and the mirror's w_k
    at 1/t, which gives its polynomial under t -> 1/t, as every factor is even
    under it.  The unknot's sum is its k = 0 term, 1.  The four polynomials it
    holds at once are counted before any exists (docs/conventions.md).
    """
    weight, terms = CATALOG[name].weight, 2 * n * (n - 1) + 1
    errors.check_bytes(f"the {name} sum at n={n} holds 4 polynomials of {terms} terms and",
                       4 * terms * (202 + 4 * -(-2 * n // 30)) + 8192)
    prod = total = LaurentPoly.one()
    for k in range(1, n if weight else 1):
        prod = prod * LaurentPoly({n: 1, -n: 1, k: -1, -k: -1})
        total = total + prod * LaurentPoly.monomial(*weight(k))
    return total


def catalog_jones_values(name: str, r: int, n_max: int) -> list:
    """J(name, n) for n = 1..n_max at t = exp(2 pi i/(r+1/2)), in one pass.

    J(n) = J(min(n mod NN, -n mod NN)), NN = 2r+1: a sum runs to min(n_max, r), then
    to the largest multiple of NN to n_max, the class every entry serves.  Each value
    is within JONES_REL_TOL relative, or PrecisionLoss is raised; the sums' bytes are
    counted before they run, and StateSpaceTooLarge raised past errors.BYTE_BUDGET.
    Figure-eight values are exact Dyadic reals, up to about 2**(r/2), past the double
    range; the others are complex.
    """
    RootContext(r)   # rejects a level below 3
    if n_max < 0:
        raise ValueError("color bound n_max must be >= 0")
    NN = 2 * r + 1
    values = catalog_entry(name).values(r, min(n_max, r), n_max - n_max % NN)
    return values if n_max <= r else [values[min(n % NN, -n % NN) - 1]
                                      for n in range(1, n_max + 1)]


def colored_jones_catalog(name: str, n: int, ctx: RootContext) -> complex:
    """J(name, n) at t = exp(2 pi i/(r+1/2)) by the catalog, at n's class (colored_jones)."""
    return colored_jones(KnotPresentation.from_catalog(name), n, ctx, "catalog").value


# -- shared entry points -----------------------------------------------

def _normal_form(braid: BraidWord) -> BraidWord:
    """braid.reduced() and Markov destabilizations in turn, until neither applies.

    A generator +-(s-1) that occurs once goes with the last strand, and a
    generator +-1 that occurs once goes with the first, the others shifting down
    (the flip).  Each keeps the knot and moves the writhe by one, which J's
    framing factor absorbs (docs/conventions.md).
    """
    while True:
        braid = braid.reduced()
        word, s = braid
        gens = [abs(g) for g in word]
        if gens.count(s - 1) == 1:
            braid = BraidWord([g for g in word if abs(g) != s - 1], s - 1)
        elif gens.count(1) == 1:
            braid = BraidWord([g - 1 if g > 0 else g + 1 for g in word if abs(g) != 1], s - 1)
        else:
            return braid


def catalog_name(K: KnotPresentation) -> Optional[str]:
    """The catalog entry of K's braid word in its normal form, or None; K.name is a label."""
    return _CATALOG_NAMES.get(_normal_form(K.braid))


def _resolve(K: KnotPresentation, backend: str, other: str = "rmatrix"):
    """(backend, catalog name): auto takes the catalog for a catalog word, else ``other``."""
    name = catalog_name(K)
    if backend == "auto":
        backend = "catalog" if name else other
    if backend == "catalog" and name is None:
        raise UnknownCatalogEntry(f"{K.braid.word} on {K.braid.strands} strands is no catalog word")
    return backend, name


def colored_jones(K: KnotPresentation, n: int, ctx: RootContext,
                  backend: str = "auto") -> JonesValue:
    """Evaluate J(K, n) at the context root with the chosen backend, run at n's class
    k = min(n mod 2r+1, -n mod 2r+1); where k = 0 the engines run at 2r+1 and the
    catalog's sums at n (docs/conventions.md)."""
    backend, name = _resolve(K, backend)
    if n < 1:
        raise ValueError("color index n must be >= 1")
    NN = 2 * ctx.r + 1
    k = min(n % NN, -n % NN)
    if backend == "catalog":
        return JonesValue(n, complex(catalog_jones_values(name, ctx.r, k)[-1] if k else
                                     catalog_entry(name).values(ctx.r, 0, n)[0]), "catalog")
    if backend == "rmatrix":
        return JonesValue(n, colored_jones_rmatrix(K, k or NN, ctx), "rmatrix")
    if backend == "exact":
        return JonesValue(n, colored_jones_exact(K, k or NN).eval_at(ctx.t_value), "exact")
    raise ValueError(f"unknown backend {backend!r}")


def colored_jones_polynomial(K: KnotPresentation, n: int, backend: str = "auto") -> tuple:
    """(exact J(K, n) in t, the backend that gave it), by the rule of _resolve.

    auto and catalog take the catalog's Masbaum sum for a catalog word, auto the
    sector engine for any other word, and exact always the sector engine.
    """
    if n < 1:
        raise ValueError("color index n must be >= 1")
    backend, name = _resolve(K, backend, "exact")
    if backend == "catalog":
        return _catalog_polynomial(name, n), "catalog"
    if backend == "exact":
        return colored_jones_exact(K, n), "exact"
    raise ValueError(f"backend {backend!r} gives no polynomial: take auto, catalog or exact")


def colored_jones_values(K: KnotPresentation, r: int, backend: str = "auto") -> list:
    """J(K, 1..r) at level r: one catalog pass for catalog words, else per color."""
    ctx = RootContext(r)   # rejects a level below 3 before any sum runs
    resolved, name = _resolve(K, backend)
    if resolved == "catalog":
        return catalog_jones_values(name, r, r)
    return [colored_jones(K, n, ctx, backend=backend).value for n in range(1, r + 1)]

