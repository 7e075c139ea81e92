"""Test-only oracles that no production path uses.

* The cyclotomic sums for the catalog knots, run in mpmath at a fixed
  precision far above what the cancellation in their partial products
  costs (about 0.46 r bits): the reference the certified catalog values
  are checked against.
* Habiro's figure-eight sum by forward products: each color's partial
  products one factor at a time, in integer fixed point at a derived bit
  count, the fast reference for the catalog's Q-table engine at levels
  where the mpmath sums are too slow for the tests.
* Morton's trefoil sum term by term: for each color, every term of his
  formula from one float table, summed with math.fsum, the reference
  for the catalog's two running sums.
* The catalog's float steps in numpy: the trefoil's running sums over a
  table from np.exp with parts from np.rint(np.ldexp(., 52)), the
  figure-eight's bit count L from np.cumsum, and the norm's log-sum-exp
  over arrays.  The plain-Python forms must give the same floats.
* The dense R-matrix trace: every generator as a full Kronecker product
  on (C^n)^strands, the reference for the weight-sector engine.  Its R
  is a float build of its own, from the E and F ladders, with R^-1 by
  matrix inversion and the twist by a partial trace, so it shares no
  entry with the closed form the engine evaluates.  It holds
  (n^strands)^2 entries, so keep it to small n and few strands.
* The all-sector loop: the weight-sector trace over every sector of
  (C^n)^strands, each product from the identity and each letter's block
  by a 4-D gather, and the degree window and coefficient bound built on
  it, the reference for the engine's loop over the lower half of the
  sectors with their mirrors.
* The cabled closure: J(K, n) from the Chebyshev-colored cable brackets
  over the integer Laurent ring, the reference for the exact engine.
  Its contraction runs over a cable of (n-1) x strands strands, so keep n
  and the strand count small.
* The Kauffman state sum: every one of the 2^c smoothings of a planar
  diagram, its loops counted by union-find, the reference for the
  contraction engine on at most 12 crossings.
* The Temperley-Lieb transfer on a braid closure: each generator applied
  to every boundary matching of the braid's 2n ends, then the closure's
  loops counted, the reference for the contraction engine on braids.
* The theta series summed term by term: one exponentiated term at a
  time over the window, with zero coefficients skipped, the reference
  for the vector series behind eval_grid and holomorphic_part.
* The geometric curve operator one column at a time: each Phi_l
  translated as a section by +-gamma/(2r+1) and expanded by
  phi_coefficients, the reference for the stacked build.
* The Lobachevsky sine series, summed far enough for a stated
  tolerance: the reference for the closed form through Clausen's Cl_2.
* Small helpers only the tests need: a PD text writer, the mirror of a
  Laurent polynomial, and checks on the root and on kappa.
"""

import cmath
import math
from functools import reduce
from itertools import accumulate

import mpmath
import numpy as np

from skeinquant.bracket import braid_closure_bracket, chebyshev_coeffs
from skeinquant.errors import InexactDivision, PrecisionLoss
from skeinquant.geom import (ThetaSection, _term_exponent, _window, basis_phi,
                             lattice_character, phi_coefficients, translate_ints)
from skeinquant.jones import JONES_REL_TOL, _rmatrix_terms
from skeinquant.knotstate import L2Norm, _log_abs
from skeinquant.laurent import LaurentPoly, loop_value, quantum_integer_poly
from skeinquant.tqft import kirby_constants


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


def _two_cos_table(NN: int, F: int) -> list:
    """C[m] = round(2 cos(4 pi m/NN) 2^F) for m = 0..NN-1, each within one unit.

    The powers of w = exp(4 pi i/NN) for m <= NN/2, in Gaussian-integer
    fixed point at G = F + bitlen(NN) + 3 bits, mirrored by C[NN-m] = C[m]:
    the rounded w and each truncated product add under 2.2 units of 2^-G,
    so |w^m| = 1 keeps the error under 2.2 m 2^-G < 2^-F/7.
    """
    G = F + NN.bit_length() + 3
    with mpmath.workprec(G + 10):
        w = mpmath.expjpi(mpmath.mpf(4) / NN)
        a, b = (int(mpmath.nint(mpmath.ldexp(v, G))) for v in (w.real, w.imag))
    x, y, half = 1 << G, 0, []
    for _ in range(NN // 2 + 1):
        half.append((x + (1 << (G - F - 2))) >> (G - F - 1))
        x, y = (x * a - y * b) >> G, (x * b + y * a) >> G
    return half + half[:0:-1]


def habiro_forward(r: int, n_max: int) -> list:
    """Habiro's sum J(n) = sum_{k<n} prod_{j<=k} (c(n) - c(j)), c(m) = 2cos(4 pi m/NN), in integers.

    c(n) - c(j) = s(n+j) s(j-n), s(m) = 2 sin(2 pi m/NN).  peak(n), the
    largest log2 of a partial product plus one bit of slack, comes from one
    float64 cumulative sum, and sets the bit count p.  Each factor is the
    exact difference of two entries of one table of c at F = p +
    2 bitlen(2NN) + 2 fraction bits, each partial product a p-bit integer
    mantissa with an exponent, and the sum is taken in fixed point at unit
    2^(ceil(peak(n)) - p).  Each color is certified by the rounding bound
    5 n^2 2^(peak(n) - p) and returned as an exact mpf.  It holds an
    n_max x n_max float matrix of log2 |factor|, so keep n_max to a few
    thousand.
    """
    NN = 2 * r + 1
    with np.errstate(divide="ignore"):
        log_s = np.log2(np.abs(2 * np.sin(2 * np.pi * np.arange(NN) / NN)))
    ns, js = np.arange(1, n_max + 1)[:, None], np.arange(1, n_max)[None, :]
    logs = np.where(js < ns, log_s[(ns + js) % NN] + log_s[(js - ns) % NN], 0.0)
    peak = np.max(np.cumsum(logs, axis=1), axis=1, initial=0.0) + 1
    bits = math.ceil(peak.max() + math.log2(5 * n_max * n_max / JONES_REL_TOL)) + 16
    # |c(n) - c(j)| >= 4 sin^2(pi/NN) > 16/NN^2: each factor within 2^-bits relative
    F = bits + 2 * (2 * NN).bit_length() + 2
    C = _two_cos_table(NN, F)
    values = []
    for n in range(1, n_max + 1):
        unit = math.ceil(peak[n - 1]) - bits
        cn, mant, shift, total = C[n % NN], 1, unit, 1 << -unit   # term = mant 2^(unit - shift)
        # the products vanish from the first j = -n or n mod NN on
        for cj in C[1:min(n, -n % NN or NN, n % NN or NN)]:
            mant *= cn - cj
            t = mant.bit_length() - bits
            mant >>= t
            shift += F - t
            total += mant >> shift   # shift >= 0: every term is below 2^(peak(n) - 1)
        if not abs(total) > 5 * n * n * 2.0 ** float(peak[n - 1] - unit - bits) / JONES_REL_TOL:
            raise PrecisionLoss(f"figure-eight J({n}) at r={r} misses {JONES_REL_TOL:g}")
        values.append(mpmath.mpf((total, unit), prec=0))   # prec=0: the mantissa is kept exactly
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


def numpy_trefoil(r: int, n_max: int) -> list:
    """Trefoil J(1..n_max) by the running sums S'(n) = S'(n-2) + g(n-1) + g(1-n), numpy table."""
    NN, M = 2 * r + 1, 4 * r + 2
    table = np.exp(1j * (math.pi / NN) * np.arange(M))
    fixed = np.rint(np.ldexp(np.stack((table.real, table.imag)), 52)).astype(np.int64)
    m = np.arange(n_max)

    def g(h):
        return fixed[:, -(6 * h * h + 10 * h + 8) % M] - fixed[:, -(6 * h * h - 2 * h + 4) % M]

    sums = []
    for col in (g(m) + np.where(m > 0, g(-m), 0)).tolist():
        run = [0] * n_max
        run[::2], run[1::2] = accumulate(col[::2]), accumulate(col[1::2])
        sums.append(run)
    return [complex(re / 2 ** 52, im / 2 ** 52)
            / complex(table[(-2 * n - 6 * n * n) % M] - table[(2 * n - 6 * n * n) % M])
            for n, re, im in zip(range(1, n_max + 1), *sums)]


def numpy_q_bits(NN: int) -> int:
    """The figure-eight's L, |Q(m)| < 2^L, from np.cumsum of log2 |2 sin(2 pi m/NN)|."""
    log_q = np.cumsum(np.log2(np.abs(2 * np.sin(2 * np.pi * np.arange(1, NN) / NN))))
    return math.ceil(np.max(np.abs(log_q))) + 1


def numpy_norm(r: int, values: list) -> L2Norm:
    """The knot-state norm by log-sum-exp over numpy arrays; past the double range it reads inf."""
    kc = kirby_constants(r)
    log_j = np.array([_log_abs(v) for v in values])
    log_terms = 2 * (np.log(kc.eta * np.abs(kc.omega_coeffs)) + log_j)
    top = float(np.max(log_terms))
    log_norm_sq = top + math.log(math.fsum(np.exp(log_terms - top)))
    with np.errstate(over="ignore"):
        norm_sq, norm = np.exp([log_norm_sq, log_norm_sq / 2])
    return L2Norm(float(norm_sq), float(norm), log_norm_sq, int(np.argmax(log_j)) + 1)


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


def all_sector_loop(word, s: int, N: int, gens, eye, matmul, weigh) -> list:
    """One value per total-weight sector w = 0 .. s(N-1) of {0..N-1}^s.

    The arguments are those of jones._sector_loop.  Every sector is
    visited, its product starts from ``eye(d)``, and a letter's block is
    gathered from the pair table seen as ``where[i', j', i, j]``.
    """
    sizes = reduce(np.convolve, [np.ones(N)] * s)
    digits = np.indices((N,) * s).reshape(s, -1)
    order = np.argsort(digits.sum(axis=0), kind="stable")
    out = []
    for w, flat in enumerate(np.split(order, np.cumsum(sizes[:-1]).astype(np.int64))):
        k = digits[:, flat]
        mat = eye(len(flat))
        for g in word:
            i = abs(g) - 1
            a, b = k[i], k[i + 1]
            rest = flat - a * N ** (s - 1 - i) - b * N ** (s - 2 - i)
            values, where = gens[g > 0]
            where = where.reshape((N,) * 4)
            entry = np.where(rest[:, None] == rest, where[a[:, None], b[:, None], a, b], -1)
            mat = matmul(values[..., entry], mat)
        out.append(weigh(w, np.diagonal(mat, axis1=-2, axis2=-1)))
    return out


def all_sector_window(word, s: int, N: int) -> tuple:
    """(lo, hi) for T's A-exponents, every sector weighted by its own A^(4w - 2s(N-1))."""
    ends = []
    for side in (1, -1):   # (max, +) as (min, +) on negated exponents
        gens = [(np.append(side * c[0] - c[4], np.inf), where) for where, c in _rmatrix_terms(N)]
        ends.append(min(all_sector_loop(
            word, s, N, gens, lambda d: np.where(np.eye(d), 0, np.inf),
            lambda X, Y: np.min(X[:, :, None] + Y, axis=1),
            lambda w, diag: side * (4 * w - 2 * s * (N - 1)) + diag.min())))
    return int(ends[0]), -int(ends[1])


def all_sector_bound(word, s: int, N: int) -> float:
    """The L1 bound on T's coefficients, summed over every sector."""
    gens = [(np.array([2.0 ** m * math.comb(u, m) * math.comb(v, m) for _, m, u, v, _ in c.T]
                      + [0.0]), where) for where, c in _rmatrix_terms(N)]
    return (1 + 2.0 ** -20) * float(sum(all_sector_loop(word, s, N, gens, np.eye, np.matmul,
                                                        lambda w, diag: diag.sum())))


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


STATE_SUM_MAX_CROSSINGS = 12


def state_sum_bracket(diagram) -> LaurentPoly:
    """Exact bracket by enumerating all 2^c smoothings."""
    c = diagram.num_crossings
    if c > STATE_SUM_MAX_CROSSINGS:
        raise ValueError(f"{c} crossings: the state sum is kept to {STATE_SUM_MAX_CROSSINGS}")
    arcs = diagram.arcs()
    index = {a: i for i, a in enumerate(arcs)}
    n = len(arcs)
    joins_a = [(index[a], index[d], index[b], index[cc]) for a, b, cc, d in diagram.crossings]
    joins_b = [(index[a], index[b], index[cc], index[d]) for a, b, cc, d in diagram.crossings]

    counts: dict = {}
    for state in range(1 << c):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        exp = 0
        for k in range(c):
            if (state >> k) & 1:
                p, q, s, t = joins_b[k]
                exp -= 1
            else:
                p, q, s, t = joins_a[k]
                exp += 1
            parent[find(p)] = find(q)
            parent[find(s)] = find(t)
        loops = sum(1 for i in range(n) if find(i) == i)
        counts[(exp, loops)] = counts.get((exp, loops), 0) + 1

    total = LaurentPoly.zero()
    for (exp, loops), mult in sorted(counts.items()):
        total = total + loop_value() ** (loops + diagram.free_loops) * LaurentPoly.monomial(exp, mult)
    return total


def _apply_e_on_top(m: tuple, i: int, n: int):
    """Right-multiply a matching by the cup-cap generator at top positions i, i+1.

    Returns (new_matching, closed_loop_formed).
    """
    ti, tj = n + i, n + i + 1
    x, y = m[ti], m[tj]
    if x == tj:
        return m, True
    new = list(m)
    new[x] = y
    new[y] = x
    new[ti] = tj
    new[tj] = ti
    return tuple(new), False


def _closure_loops(m: tuple, n: int) -> int:
    """Loops of the closure of a matching on n bottom and n top ends."""
    seen = [False] * (2 * n)
    loops = 0
    for start in range(2 * n):
        if seen[start]:
            continue
        loops += 1
        x = start
        while not seen[x]:
            seen[x] = True
            y = m[x]  # matching edge
            seen[y] = True
            x = y + n if y < n else y - n  # closure edge
    return loops


def transfer_bracket(braid) -> LaurentPoly:
    """Exact bracket of a braid closure by the Temperley-Lieb transfer."""
    n = braid.strands
    delta = loop_value()
    a_pos, a_neg = LaurentPoly.monomial(1), LaurentPoly.monomial(-1)
    element = {tuple(list(range(n, 2 * n)) + list(range(n))): LaurentPoly.one()}
    for g in braid.word:
        i = abs(g) - 1
        # a positive crossing resolves as A**-1 * identity + A * cupcap
        id_coef, e_coef = (a_neg, a_pos) if g > 0 else (a_pos, a_neg)
        nxt: dict = {}
        for m, poly in element.items():
            nxt[m] = nxt.get(m, LaurentPoly.zero()) + poly * id_coef
            m2, looped = _apply_e_on_top(m, i, n)
            contrib = poly * e_coef * (delta if looped else 1)
            nxt[m2] = nxt.get(m2, LaurentPoly.zero()) + contrib
        element = {m: p for m, p in nxt.items() if not p.is_zero()}
    total = LaurentPoly.zero()
    for m, poly in sorted(element.items()):
        total = total + poly * delta ** _closure_loops(m, n)
    return total


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


def curve_operator_by_sections(gamma, ctx) -> np.ndarray:
    """Curve operator of the primitive class gamma, built column by column."""
    a, b = gamma
    chi = lattice_character(a, b)
    cols = []
    for s in basis_phi(ctx):
        t_plus = translate_ints(s, a, b)
        t_minus = translate_ints(s, -a, -b)
        combined = ThetaSection(ctx, -chi * (t_plus.rho + t_minus.rho), s.halfform_scale)
        beta, dev = phi_coefficients(combined)
        if dev > 1e-9:
            raise ArithmeticError(f"column left the alternating subspace (dev {dev:.2e})")
        cols.append(beta)
    return np.stack(cols, axis=1)


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
