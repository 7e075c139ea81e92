"""Theta sections over the torus at half-integer level, Heisenberg
translations, orthonormal bases, quadrature inner products, curve
operators, and the isomorphism with the torus skein space.

Realisation.  With level constant N = 2r+1, modular parameter tau = a+bi
(b > 0) and dual coordinates (p, q), a section is written g(z) t(p,q)
with z = p + tau q and frame t(p,q) = exp(i N pi q (p + tau q)).  The
holomorphic factor is the theta series

    g(z) = sum_m alpha_{m mod N} exp(i pi tau m^2 / N + 2 pi i m z),

so alpha_0 .. alpha_{2r} determine the section and the space has
dimension 2r+1.  In these Gaussian-free coordinates tau enters one
exponent only: term m of the section has modulus
|alpha| exp(-pi b (m + N q)^2 / N) <= |alpha|, so nothing overflows at any
b N.  Fractional translations and the reflection act on the alpha vector
as permutations with root-of-unity phases, independent of tau.

Half-integer level makes the lattice lift projective: translating around
mu + lambda acts by -1 on the invariant space, so the lift of a curve
class (a, b) is normalised by the character chi(a, b) = (-1)**(ab)
before building curve operators.  The alternating basis has
Phi_{r+1} = -Phi_r, the boundary folding rule e_r = -e_{r-1} of the skein
side.
"""

from __future__ import annotations

import math
from math import gcd
from typing import NamedTuple, Sequence

from . import errors
from ._lazy import lazy_import
from .errors import (DimensionMismatch, NotLatticeFraction, NotPrimitive, PrecisionLoss,
                     StateSpaceTooLarge)
from .tqft import TorusVector, curve_operator_skein, rep_S, rep_T

np = lazy_import("numpy")


SERIES_TOL = 1e-14   # theta terms below this share of their coefficient are dropped


class QuantizationContext(NamedTuple("QuantizationContext", [("r", int), ("tau", complex)])):
    """Level r and modular parameter tau of one quantized torus."""

    __slots__ = ()

    def __new__(cls, r, tau):
        if r < 3:
            raise ValueError("level r must be >= 3")
        tau = complex(tau)
        if not np.isfinite(tau):
            raise ValueError(f"tau must be finite, not {tau}")
        if tau.imag <= 0:
            raise ValueError("tau must lie in the upper half plane")
        return super().__new__(cls, r, tau)

    @property
    def N(self) -> int:
        """Dimension of the invariant section space, 2r+1."""
        return 2 * self.r + 1

    @property
    def b(self) -> float:
        return self.tau.imag


def halfform_norm_sq(ctx: QuantizationContext) -> float:
    """Squared norm of the reference half-form frame: sqrt(b / 2 pi)."""
    return math.sqrt(ctx.b / (2 * math.pi))


def psi_norm_constant(ctx: QuantizationContext) -> float:
    """Prefactor making the vacuum theta section a unit vector.

    Fixed as ((2r+1)/(4 pi))**(1/4); the reciprocal root printed elsewhere
    makes the basis norms come out wrong, and orthonormality is the
    contract we verify by quadrature.
    """
    return (ctx.N / (4 * math.pi)) ** 0.25


class ThetaSection:
    """Invariant section determined by alpha_0 .. alpha_{2r}."""

    __slots__ = ("ctx", "alpha")

    def __init__(self, ctx: QuantizationContext, alpha):
        alpha = np.asarray(alpha, dtype=np.complex128)
        if alpha.shape != (ctx.N,):
            raise DimensionMismatch(f"alpha must have length {ctx.N}")
        self.ctx = ctx
        self.alpha = alpha


# -- pointwise evaluation ------------------------------------------------

_GRID_BLOCK = 1 << 18   # complex values held at once by a series or S-frame block


def _spread(N: int, b: float) -> float:
    """Half-width around -N q of the terms |alpha| exp(-pi b (m + N q)^2/N) above SERIES_TOL."""
    return math.sqrt(N * math.log(1.0 / SERIES_TOL) / (math.pi * b))


def _window(ctx: QuantizationContext, q_min: float, q_max: float):
    """Index range of the terms above SERIES_TOL, at most N (q_max - q_min) + 2 spread + 7 long."""
    w = math.ceil(_spread(ctx.N, ctx.b)) + 1
    return math.floor(-ctx.N * q_max) - w, math.ceil(-ctx.N * q_min) + w


def _check_bytes(ctx: QuantizationContext, what: str, nbytes: float) -> None:
    """StateSpaceTooLarge naming r, tau and the MiB when nbytes passes errors.BYTE_BUDGET."""
    if nbytes > errors.BYTE_BUDGET:
        raise StateSpaceTooLarge(
            f"{what} at r = {ctx.r}, tau = {ctx.tau} needs about {nbytes / 2**20:.4g} MiB, "
            f"over the {errors.BYTE_BUDGET >> 20} MiB budget")


def _q_parts(ctx: QuantizationContext, q: np.ndarray):
    """Window indices m and the q-parts F[m, j] = exp(i pi tau (m + N q_j)^2/N), |F| <= 1.

    With the frame i pi N q z, term m's exponent i pi tau m^2/N + 2 pi i m z
    is this completed square plus the phase i pi p (2m + N q), exponentiated
    apart so that points sharing q share the square's rounding.  This is
    the only coefficient formula that reads tau.
    """
    lo, hi = _window(ctx, float(q.min()), float(q.max()))
    m = np.arange(lo, hi + 1)
    u = m[:, None] + ctx.N * q[None, :]
    u *= u
    F = u.astype(np.complex128)   # the peak: u and F, 1.5 times F's bytes
    F *= 1j * math.pi * ctx.tau / ctx.N
    return m, np.exp(F, out=F)


def _series(ctx: QuantizationContext, alpha: np.ndarray, P, Q) -> np.ndarray:
    """Section values of the coefficient rows alpha, shape (..., N), at the points (P, Q).

    Each block of points takes the q-parts of its window times the phases
    in p; it holds at most _GRID_BLOCK terms x points, or one point's
    window where that is wider, and six complex values per term and point
    of the block (the q-parts with their float squares, the phases with
    their argument, and the product); these, the output and 8 KiB of
    interpreter objects are counted first.
    Returns alpha.shape[:-1] + the points' shape; PrecisionLoss where not finite.
    """
    P, Q = np.broadcast_arrays(np.asarray(P, dtype=np.float64),
                               np.asarray(Q, dtype=np.float64))
    p, q = P.ravel(), Q.ravel()
    terms = ctx.N * float(q.max() - q.min()) + 2 * _spread(ctx.N, ctx.b) + 7
    step = max(1, int(_GRID_BLOCK // terms))
    _check_bytes(ctx, "series window",
                 16 * (alpha.size // ctx.N * (2 * terms + p.size) + 6 * terms * min(step, p.size))
                 + 8192)
    out = np.empty(alpha.shape[:-1] + (p.size,), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, p.size, step):
            pa, qa = p[a:a + step], q[a:a + step]
            m, F = _q_parts(ctx, qa)
            out[..., a:a + step] = alpha[..., m % ctx.N] @ (
                F * np.exp(1j * math.pi * pa * (2 * m[:, None] + ctx.N * qa)))
    if not np.all(np.isfinite(out)):
        raise PrecisionLoss(f"section value at r = {ctx.r}, tau = {ctx.tau} is not finite")
    return out.reshape(alpha.shape[:-1] + P.shape)


def eval_grid(s: ThetaSection, P, Q) -> np.ndarray:
    """Section values (holomorphic factor times frame) on arrays of points.

    Each term is at most its coefficient in modulus.
    """
    return _series(s.ctx, s.alpha, P, Q)


def section_eval(s: ThetaSection, p: float, q: float) -> complex:
    """Value at a single point."""
    return complex(eval_grid(s, np.array([p]), np.array([q]))[0])


def holomorphic_part(s: ThetaSection, p: float, q: float) -> complex:
    """g(z) alone: the section value times exp(-i pi N q z), of modulus exp(pi b N q^2).

    Raises PrecisionLoss where g leaves the float range.
    """
    ctx = s.ctx
    with np.errstate(over="ignore", invalid="ignore"):
        g = section_eval(s, p, q) * np.exp(-1j * math.pi * ctx.N * q * (p + ctx.tau * q))
    if not np.isfinite(g):
        raise PrecisionLoss(f"holomorphic factor, of size about exp(pi b N q^2), at r = {ctx.r}, "
                            f"tau = {ctx.tau} is not finite")
    return complex(g)


# -- Heisenberg translations ----------------------------------------------

def _lattice_numerators(ctx: QuantizationContext, x) -> tuple:
    out = []
    for c in x:
        if isinstance(c, int):
            out.append(c * ctx.N)
            continue
        from fractions import Fraction   # loaded already by a caller that made one
        if not isinstance(c, Fraction):
            raise NotLatticeFraction(
                f"coordinate {c!r} must be an int or a Fraction, not {type(c).__name__}")
        num = c * ctx.N
        if num.denominator != 1:
            raise NotLatticeFraction(
                f"coordinate {c} is not a multiple of 1/{ctx.N}")
        out.append(int(num))
    return tuple(out)


def translate(s: ThetaSection, x) -> ThetaSection:
    """Pullback by the Heisenberg lift of translation by x = (c_mu, c_lambda).

    Coordinates are ints or Fractions, integer multiples of 1/(2r+1); a
    float raises NotLatticeFraction.  Acts exactly on the alpha vector;
    unitary for the quadrature inner product.
    """
    j, k = _lattice_numerators(s.ctx, x)
    return translate_ints(s, j, k)


def translate_ints(s: ThetaSection, j: int, k: int) -> ThetaSection:
    """Translate by (j mu + k lambda)/(2r+1); exact O(N) coefficient map."""
    return ThetaSection(s.ctx, _translated(s.ctx, s.alpha, j, k))


def _translated(ctx: QuantizationContext, alpha: np.ndarray, j, k) -> np.ndarray:
    """translate_ints on coefficient rows alpha of shape (..., N).

    alpha'_m = alpha_{(m-k) mod N} exp(i pi j (2m - k) / N): the tau parts
    of the shift and of its phase complete the square of the term exponent.
    The integer phase is reduced mod 2N before it is scaled.  Integer arrays
    j and k of one shape S give every translation at once, shape S + alpha.shape.
    """
    N = ctx.N
    m = np.arange(N)
    j, k = (np.asarray(x % (2 * N))[..., None] for x in (j, k))
    phase = j * (2 * m - k) % (2 * N)
    out = alpha[..., (m - k) % N] * np.exp(1j * math.pi * phase / N)
    return np.moveaxis(out, range(alpha.ndim - 1), range(-alpha.ndim, -1))


def lattice_character(a: int, b: int) -> int:
    """Sign by which the full translation a mu + b lambda acts: (-1)**(ab)."""
    return -1 if (a * b) % 2 else 1


# -- bases ----------------------------------------------------------------

def basis_psi(ctx: QuantizationContext) -> list:
    """Orthonormal translation-eigenbasis, one section per index class.

    Psi_l has alpha = c e_l, c = psi_norm_constant; it is the l-fold
    longitude-fraction translate of the vacuum.
    """
    return [ThetaSection(ctx, row) for row in psi_norm_constant(ctx) * np.eye(ctx.N)]


def basis_phi(ctx: QuantizationContext) -> list:
    """Orthonormal basis of the alternating subspace, indices 1..r.

    Phi_l = (Psi_l - Psi_{N-l}) / sqrt(2).
    """
    return [ThetaSection(ctx, row) for row in _phi_rows(ctx)]


def _phi_rows(ctx: QuantizationContext) -> np.ndarray:
    """Coefficient rows of Phi_1 .. Phi_r, shape (r, N)."""
    r, N = ctx.r, ctx.N
    d = psi_norm_constant(ctx) / math.sqrt(2)
    l = np.arange(1, r + 1)
    alpha = np.zeros((r, N), dtype=np.complex128)
    alpha[l - 1, l] = d
    alpha[l - 1, N - l] = -d
    return alpha


def parity_reflect(s: ThetaSection) -> ThetaSection:
    """Pullback by x -> -x; on coefficients alpha_m -> alpha_{-m}."""
    return ThetaSection(s.ctx, _reflected(s.ctx, s.alpha))


def _reflected(ctx: QuantizationContext, alpha: np.ndarray) -> np.ndarray:
    """parity_reflect on coefficient rows alpha of shape (..., N)."""
    return alpha[..., -np.arange(ctx.N) % ctx.N]


def psi_coefficients(s: ThetaSection) -> np.ndarray:
    """Exact expansion over the translation eigenbasis (index classes)."""
    return s.alpha / psi_norm_constant(s.ctx)


def phi_coefficients(s: ThetaSection):
    """Coefficients over the alternating basis plus the alternation residual.

    Returns (beta[0..r-1] on indices 1..r, deviation): the deviation is the
    largest non-alternating component and vanishes for alternating sections.
    """
    beta, dev = _alternating_part(s.ctx, psi_coefficients(s))
    return beta, float(dev)


def _alternating_part(ctx: QuantizationContext, alpha: np.ndarray):
    """phi_coefficients on Psi-coefficient rows alpha of shape (..., N).

    Returns beta of shape (..., r) and the deviation of each row.
    """
    l = np.arange(1, ctx.r + 1)
    scale = np.maximum(1.0, np.max(np.abs(alpha), axis=-1))
    off = np.concatenate((alpha[..., :1], alpha[..., ctx.N - l] + alpha[..., l]), axis=-1)
    return math.sqrt(2) * alpha[..., l], np.max(np.abs(off), axis=-1) / scale


# -- quadrature inner products ---------------------------------------------

def _gram_kernel(ctx: QuantizationContext, n_grid: int) -> np.ndarray:
    """N x N pairing kernel G with <s1, s2> = alpha1^H G alpha2 (no half-form).

    The n x n trapezoid sum of conj(s1) s2, done exactly in one dimension:
    the p-dependence of conj(term m) * term m' is exp(2 pi i (m' - m) p),
    whose mean over n grid points is [m = m' mod n].  The window's rows i and
    i + s of q-parts F alias exactly when n divides s, so each such shift adds
    its row products at their classes.  G, 1.5 F (F and the float squares it
    is built from), one shift's vectors and 8 KiB are counted first.
    """
    N = ctx.N
    w = N + 2 * _spread(N, ctx.b) + 7
    _check_bytes(ctx, "Gram kernel", 16 * (N * N + 1.5 * w * n_grid + 4 * w) + 8192)
    m, F = _q_parts(ctx, np.arange(n_grid) / n_grid)
    c, w = m % N, len(m)
    G = np.zeros((N, N), dtype=np.complex128)
    for s in range(0, w, n_grid):
        d = np.vecdot(F[:w - s], F[s:])   # conjugates its first argument
        np.add.at(G, (c[:w - s], c[s:]), d)
        if s:
            np.add.at(G, (c[s:], c[:w - s]), d.conj())
    G *= 4 * math.pi / n_grid
    return G


def _grid(ctx: QuantizationContext) -> int:
    """Trapezoid points per axis that hold a pairing of ctx's sections within SERIES_TOL.

    By Poisson summation a grid of n points misses the q-sum of a diagonal
    Gaussian exp(-2 pi b (m + N q)^2 / N) by about 2 exp(-pi n^2 / (2 b N)),
    relative, and each aliased pair m = m' mod n, m != m', adds about
    2 exp(-pi b n^2 / (2 N)).  Both exponents reach ln(8/SERIES_TOL) at
    n = sqrt(2 N ln(8/SERIES_TOL) / pi) max(sqrt(b), 1/sqrt(b)).  The S
    frame's sections are sections of the same torus, so the S check needs
    no finer grid.
    """
    root = math.sqrt(ctx.b)
    return math.ceil(math.sqrt(2 * ctx.N * math.log(8 / SERIES_TOL) / math.pi)
                     * max(root, 1 / root))


def _finite(ctx: QuantizationContext, n: int, blocks: list) -> list:
    """blocks, or PrecisionLoss naming r, tau and n where one is not finite.

    The q-parts are bounded by 1, so a block leaves the float range only
    through its coefficients or scales.
    """
    if not all(np.all(np.isfinite(val)) for val in blocks):
        raise PrecisionLoss(f"quadrature at r = {ctx.r}, tau = {ctx.tau}, n = {n} is not finite")
    return blocks


def _pairings(ctx: QuantizationContext, blocks) -> list:
    """scale * R^H G C for every (R, C, scale) in blocks, on the grid _grid(ctx).

    R and C hold coefficient rows.  The C rows of every block form one
    stacked matrix, so the kernel is built once and multiplied once.
    """
    n = _grid(ctx)
    C = np.concatenate([cols for _, cols, _ in blocks]).T
    ends = np.cumsum([len(cols) for _, cols, _ in blocks])
    with np.errstate(over="ignore", invalid="ignore"):
        GC = _gram_kernel(ctx, n) @ C
        out = [scale * (rows.conj() @ GC[:, e - len(cols):e])
               for (rows, cols, scale), e in zip(blocks, ends)]
    return _finite(ctx, n, out)


def _pairing(rows: Sequence[ThetaSection], cols: Sequence[ThetaSection]) -> np.ndarray:
    """Matrix of <rows[i], cols[j]> through the Gram kernel."""
    ctx = rows[0].ctx
    if any(s.ctx != ctx for s in cols):
        raise DimensionMismatch("sections live over different contexts")
    R = np.stack([s.alpha for s in rows])
    C = np.stack([s.alpha for s in cols])
    return _pairings(ctx, [(R, C, halfform_norm_sq(ctx))])[0]


def inner_product(s1: ThetaSection, s2: ThetaSection) -> complex:
    """Hermitian pairing integral(conj(s1) s2) * 4 pi over the unit square.

    A trapezoid sum on the grid _grid(ctx), whose error is below
    SERIES_TOL relative to the integral, times the half-form factor
    sqrt(b/2 pi).
    """
    return complex(_pairing([s1], [s2])[0, 0])


def gram_matrix(sections: Sequence[ThetaSection]) -> np.ndarray:
    """Matrix of pairwise inner products, on one grid as one block."""
    return _pairing(sections, sections)


# -- curve operators and the skein isomorphism ------------------------------

def curve_operator_geom(gamma, ctx: QuantizationContext) -> np.ndarray:
    """Matrix of the curve operator of class (a, b) on the alternating basis.

    Uses the character-normalised lift W = chi(a,b) T*_{gamma/N}, whose
    (2r+1)-st power is the identity, and returns -(W + W^{-1}).  For the
    meridian this is diagonal with entries -2 cos(2 pi l/(2r+1)); for the
    longitude it is the real tridiagonal matrix with the +1 fold in the
    corner.
    """
    return _curve_operators(ctx, [gamma])[0]


def _curve_operators(ctx: QuantizationContext, gammas) -> np.ndarray:
    """curve_operator_geom of every class in gammas, shape (len(gammas), r, r), from
    one stacked translate of the Phi rows by +-gamma/N and one alternating read."""
    classes = [(int(a), int(b)) for a, b in gammas]
    for a, b in classes:
        if gcd(a, b) != 1:
            raise NotPrimitive(f"({a}, {b}) is not a primitive class")
    chi = np.array([lattice_character(a, b) for a, b in classes])[:, None, None]
    a, b = np.array([(a % (2 * ctx.N), b % (2 * ctx.N)) for a, b in classes]).T
    T = _translated(ctx, _phi_rows(ctx), np.stack([a, -a]), np.stack([b, -b]))
    beta, dev = _alternating_part(ctx, -chi * (T[0] + T[1]) / psi_norm_constant(ctx))
    if np.max(dev) > 1e-9:
        raise PrecisionLoss(
            f"curve operator left the alternating subspace (dev {np.max(dev):.2e})")
    return np.swapaxes(beta, -1, -2)


def iso_from_skein(v, ctx: QuantizationContext) -> ThetaSection:
    """Linear extension of e_l -> Phi_{l+1} applied to a coefficient vector."""
    if isinstance(v, TorusVector):
        coeffs = v.as_array()
    else:
        coeffs = np.asarray(v, dtype=np.complex128)
    if coeffs.shape != (ctx.r,):
        raise DimensionMismatch(f"need {ctx.r} coefficients")
    return ThetaSection(ctx, coeffs @ _phi_rows(ctx))


def iso_to_skein(s: ThetaSection) -> TorusVector:
    """Inverse of iso_from_skein on the alternating subspace."""
    beta, dev = phi_coefficients(s)
    if dev > 1e-8:
        raise PrecisionLoss(f"section is not alternating (dev {dev:.2e})")
    return TorusVector(s.ctx.r, tuple(beta))


def intertwining_deviation(gamma, ctx: QuantizationContext) -> float:
    """Operator-norm gap between the skein curve operator and the
    geometric one transported through e_l -> Phi_{l+1}."""
    return float(np.linalg.norm(curve_operator_skein(gamma, ctx.r)
                                - curve_operator_geom(gamma, ctx), 2))


# -- modular frame changes ---------------------------------------------------

class ModularReport(NamedTuple):
    """Outcome of re-expanding a transformed frame basis in the original one."""

    gen: str
    measured: np.ndarray
    predicted: np.ndarray
    global_phase: complex
    max_dev: float          # after dividing out the fitted global phase


def _fit_phase(measured: np.ndarray, predicted: np.ndarray) -> complex:
    t = np.vdot(predicted, measured)
    if t == 0:
        return 1.0 + 0j
    return t / abs(t)


def _s_frame_pairing(ctx: QuantizationContext, n_grid: int) -> np.ndarray:
    """Trapezoid sum 4 pi/n^2 sum conj(phi_m(p, q)) tilde_phi_l(q, -p).

    phi is the alternating basis of ctx and tilde_phi that of the S frame,
    with modular parameter -1/tau; both have the coefficient rows _phi_rows.

    Each section value is its terms' q-parts (q' = -p on the S side)
    times unit phases in the other coordinate.  The frame phases of the
    two sides meet as exp(-2 pi i N p q), which does not split, so the
    sum stays on the grid, a block of p rows at a time with at most
    _GRID_BLOCK values (or one p row) per array.  F, F_t, E_t and its float
    table, R and R_t, and what a block keeps alive (E, a rows-times-phases
    product, four arrays of U's size and numpy's buffers for the
    broadcast products) are counted before -1/tau is formed:
    Im(-1/tau) = b/|tau|^2 widens the S window |tau|-fold.
    """
    N, r = ctx.N, ctx.r
    w, w_t = (N + 2 * _spread(N, ctx.b) * t + 7 for t in (1, abs(ctx.tau)))
    rows = min(n_grid, max(1, int(_GRID_BLOCK // (r * max(n_grid, w, w_t)))))
    held = (w + 2.5 * w_t) * n_grid + r * (N + w + w_t)
    block = rows * (w + n_grid + r * (max(w, w_t, 2 * n_grid) + 3 * n_grid))
    buffers = 2 * min(np.getbufsize(), rows * r * max(w, w_t))
    _check_bytes(ctx, "S-frame pairing", 16 * (held + block + buffers) + 8192)
    ctx_t = QuantizationContext(r, -1.0 / ctx.tau)
    xs = np.arange(n_grid) / n_grid
    m, F = _q_parts(ctx, xs)
    m_t, F_t = _q_parts(ctx_t, -xs)
    phi = _phi_rows(ctx)
    R, R_t = np.ascontiguousarray(phi[:, m % N]), phi[:, m_t % N]   # R E reshapes in place
    E_t = np.outer(m_t, xs).astype(np.complex128)
    E_t *= 2j * math.pi
    np.exp(E_t, out=E_t)
    M = np.zeros((r, r), dtype=np.complex128)
    for a in range(0, n_grid, rows):
        p = xs[a:a + rows]
        E = np.exp(2j * math.pi * np.outer(p, m))
        U = ((R * E[:, None, :]).reshape(-1, m.size) @ F).reshape(p.size, r, n_grid)
        U_t = ((R_t * F_t.T[a:a + rows, None, :]).reshape(-1, m_t.size) @ E_t
               ).reshape(p.size, r, n_grid)
        cross = np.exp(-2j * math.pi * N * np.outer(p, xs))
        M += np.tensordot(U.conj() * cross[:, None, :], U_t, axes=([0, 2], [0, 2]))
    return M * (4 * math.pi / n_grid ** 2)


def _twist_frame_rows(ctx: QuantizationContext) -> np.ndarray:
    """Coefficient rows of the T-transformed alternating basis, shape (r, N).

    The chain Psi~_0 = Psi_0, Psi~_k = -T*_{(1,1)/N} Psi~_{k-1} applies the
    normalised lift of the (1,1) translation (chi(1,1) = -1), and
    Phi~_l = (Psi~_l - Psi~_{N-l}) / sqrt(2).  The lift takes Psi_{k-1} to
    exp(i pi (2k-1)/N) Psi_k, so Psi~_k = (-1)^k exp(i pi k^2/N) Psi_k.
    """
    N, k = ctx.N, np.arange(ctx.N)
    return _phi_rows(ctx) * (1 - 2 * (k % 2)) * np.exp(1j * math.pi * (k * k % (2 * N)) / N)


def _frame_report(gen: str, cur: np.ndarray, ctx: QuantizationContext) -> ModularReport:
    """Fit the measured matrix of generator gen against rep_T or rep_S."""
    predicted = rep_T(ctx.r) if gen == "T" else rep_S(ctx.r)
    phase = _fit_phase(cur, predicted)
    max_dev = float(np.max(np.abs(cur - phase * predicted)))
    return ModularReport(gen, cur, predicted, complex(phase), max_dev)


def modular_phase_check(gen: str, ctx: QuantizationContext) -> ModularReport:
    """Expand the basis of a generator-transformed frame in the original basis.

    gen="S": the new frame is (lambda, -mu) with modular parameter -1/tau;
    its vacuum theta series stays inside the invariant space, so the full
    change-of-basis matrix (half-form scale tau**-1/2 included) is measured
    by quadrature and compared against the discrete sine kernel rep_S.

    gen="T": the twist fixes the meridian, and the transformed frame
    (mu, mu+lambda) has the opposite lattice character, so no frame theta
    series exists inside the space; the transported basis is instead the
    chain of the normalised lift of the (1,1) translation, in closed form.  Those
    sections live in this context, so they pair through the Gram kernel;
    the measured matrix is diagonal and is compared against rep_T.
    """
    if gen == "T":
        cur = _pairings(ctx, [(_phi_rows(ctx), _twist_frame_rows(ctx),
                               halfform_norm_sq(ctx))])[0]
    elif gen == "S":
        # half-form frame change tau**-1/2, principal branch
        weight = ctx.tau ** -0.5 * halfform_norm_sq(ctx)
        n = _grid(ctx)
        with np.errstate(over="ignore", invalid="ignore"):
            cur = _finite(ctx, n, [weight * _s_frame_pairing(ctx, n)])[0]
    else:
        raise ValueError("gen must be 'T' or 'S'")
    return _frame_report(gen, cur, ctx)
