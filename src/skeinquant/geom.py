"""Theta sections over the torus at half-integer level, Heisenberg
translations, orthonormal bases, quadrature inner products, curve
operators, and the isomorphism with the torus skein space.

Realisation.  With level constant N = 2r+1, modular parameter tau = a+bi
(b > 0) and dual coordinates (p, q), a section is written g(z) t(p,q)
with z = p + tau q and frame t(p,q) = exp(i N pi q (p + tau q)).  The
holomorphic factor is a Fourier series g(z) = sum rho_m exp(2 pi i m z)
whose coefficients obey

    rho_{m + N n} = exp(i pi tau n (N n + 2 m)) rho_m,

so rho_0 .. rho_{2r} determine the section and the space has dimension
2r+1.  Fractional translations act exactly on the rho vector.

Half-integer level makes the lattice lift projective: translating around
mu + lambda acts by -1 on the invariant space, so the lift of a curve
class (a, b) is normalised by the character chi(a, b) = (-1)**(ab)
before building curve operators.  This is the single source of the
boundary folding rule used on the skein side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from ._lazy import lazy_import
from .errors import (DimensionMismatch, NonconvergentSeries, NotLatticeFraction,
                     NotPrimitive, PrecisionLoss, QuadratureNotConverged)
from .tqft import TorusVector, curve_operator_skein, rep_S, rep_T

np = lazy_import("numpy")


@dataclass(frozen=True)
class QuadratureConfig:
    """Trapezoid rule on the periodic unit square, refined by doubling."""

    n_start: int = 16
    refine_until: float = 1e-8
    n_cap: int = 4096


@dataclass(frozen=True)
class QuantizationContext:
    """Level, modular parameter, and numerical policy for one torus."""

    r: int
    tau: complex
    series_tol: float = 1e-14
    quad: QuadratureConfig = field(default_factory=QuadratureConfig)

    def __post_init__(self):
        if self.r < 3:
            raise ValueError("level r must be >= 3")
        tau = complex(self.tau)
        if not np.isfinite(tau):
            raise ValueError(f"tau must be finite, not {tau}")
        if tau.imag <= 0:
            raise ValueError("tau must lie in the upper half plane")
        object.__setattr__(self, "tau", tau)

    @property
    def N(self) -> int:
        """Dimension of the invariant section space, 2r+1."""
        return 2 * self.r + 1

    @property
    def b(self) -> float:
        return self.tau.imag

    def _key(self):
        return (self.r, self.tau, self.series_tol)


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
    """Invariant section determined by rho_0 .. rho_{2r} and a half-form scale."""

    __slots__ = ("ctx", "rho", "halfform_scale")

    def __init__(self, ctx: QuantizationContext, rho, halfform_scale: complex = 1.0):
        rho = np.asarray(rho, dtype=np.complex128)
        if rho.shape != (ctx.N,):
            raise DimensionMismatch(f"rho must have length {ctx.N}")
        self.ctx = ctx
        self.rho = rho
        self.halfform_scale = complex(halfform_scale)


def _extension_factor(ctx: QuantizationContext, m, m0):
    # rho_m / rho_{m0} = exp(i pi tau (m^2 - m0^2)/N) for m = m0 mod N; broadcasts
    return np.exp(1j * math.pi * ctx.tau * (m * m - m0 * m0) / ctx.N)


# -- pointwise evaluation ------------------------------------------------

_GRID_BLOCK = 1 << 18   # complex values held at once by a series or S-frame block


def _window(ctx: QuantizationContext, q_min: float, q_max: float):
    """Extended-index range covering all terms above series_tol.

    The half-width is at least N = 2r+1; its excess over N measures the
    conditioning of the context and is capped at 50 + 10 ceil(1/sqrt(N b)).
    Needing more terms than that signals a badly conditioned context.
    """
    N, b, tol = ctx.N, ctx.b, ctx.series_tol
    spread = math.sqrt(N * (math.log(1.0 / tol) + math.pi * b * N) / (math.pi * b))
    w = int(math.ceil(spread)) + 1
    cap = 50 + 10 * math.ceil(1.0 / math.sqrt(N * b))
    if w - N > cap:
        raise NonconvergentSeries(
            f"series window {w} exceeds N = {N} by more than {cap}; increase series_tol or b")
    lo = int(math.floor(-N * q_max)) - w
    hi = int(math.ceil(-N * q_min)) + w
    return lo, hi


def _term_exponent(ctx: QuantizationContext, m, P, Q, frame: bool = True):
    """Exponent of the extended series term m (coefficient rho_{m mod N}) at (P, Q).

    The coefficient extension i pi tau (m^2 - m0^2)/N, the Fourier phase
    2 pi i m z and, with ``frame``, the frame i pi N q z are added before
    anything is exponentiated: taken apart the Gaussian factors overflow.
    Broadcasts over arrays of m, P and Q.
    """
    N, tau = ctx.N, ctx.tau
    m0 = m % N
    phase = 2j * math.pi * m
    if frame:
        phase = phase + 1j * math.pi * N * Q
    return phase * (P + tau * Q) + 1j * math.pi * tau * (m * m - m0 * m0) / N


def _series(ctx: QuantizationContext, rho: np.ndarray, P, Q, frame: bool) -> np.ndarray:
    """Truncated theta series of the coefficient rows rho, shape (..., N).

    Terms whose class is zero in every row are dropped.  One exponent array
    of terms x points per block of points; a block holds at most
    _GRID_BLOCK values.  Returns rho.shape[:-1] + the points' shape.
    """
    P, Q = np.broadcast_arrays(np.asarray(P, dtype=np.float64),
                               np.asarray(Q, dtype=np.float64))
    lo, hi = _window(ctx, float(Q.min()), float(Q.max()))
    m = np.arange(lo, hi + 1)
    c = rho[..., m % ctx.N]
    keep = np.any(c != 0, axis=tuple(range(c.ndim - 1)))
    m, c = m[keep], c[..., keep]
    p, q = P.ravel(), Q.ravel()
    out = np.empty(c.shape[:-1] + (p.size,), dtype=np.complex128)
    step = max(1, _GRID_BLOCK // max(1, m.size))
    for a in range(0, p.size, step):
        out[..., a:a + step] = c @ np.exp(_term_exponent(
            ctx, m[:, None], p[None, a:a + step], q[None, a:a + step], frame))
    return out.reshape(c.shape[:-1] + P.shape)


def eval_grid(s: ThetaSection, P, Q) -> np.ndarray:
    """Section values (holomorphic factor times frame) on arrays of points.

    The half-form scale multiplies the result; exponents are combined
    before exponentiation so no intermediate factor overflows.
    """
    return _series(s.ctx, s.rho, P, Q, frame=True) * s.halfform_scale


def section_eval(s: ThetaSection, p: float, q: float) -> complex:
    """Value at a single point."""
    return complex(eval_grid(s, np.array([p]), np.array([q]))[0])


def holomorphic_part(s: ThetaSection, p: float, q: float) -> complex:
    """g(z) alone, without the frame factor (used by the holomorphy check).

    g grows like exp(pi b N q^2); far from the unit square it leaves the
    float range, where the section values with their frame do not.
    """
    return complex(_series(s.ctx, s.rho, p, q, frame=False))


# -- Heisenberg translations ----------------------------------------------

def _lattice_numerators(ctx: QuantizationContext, x) -> tuple:
    out = []
    for c in x:
        if not isinstance(c, (int, Fraction)):
            raise NotLatticeFraction(
                f"coordinate {c!r} must be an int or a Fraction, not {type(c).__name__}")
        num = Fraction(c) * ctx.N
        if num.denominator != 1:
            raise NotLatticeFraction(
                f"coordinate {c} is not a multiple of 1/{ctx.N}")
        out.append(int(num))
    return tuple(out)


def translate(s: ThetaSection, x) -> ThetaSection:
    """Pullback by the Heisenberg lift of translation by x = (c_mu, c_lambda).

    Coordinates are ints or Fractions, integer multiples of 1/(2r+1); a
    float raises NotLatticeFraction.  Acts exactly on the rho vector;
    unitary for the quadrature inner product.
    """
    j, k = _lattice_numerators(s.ctx, x)
    return translate_ints(s, j, k)


def translate_ints(s: ThetaSection, j: int, k: int) -> ThetaSection:
    """Translate by (j mu + k lambda)/(2r+1); exact O(N) coefficient map."""
    return ThetaSection(s.ctx, _translated(s.ctx, s.rho, j, k), s.halfform_scale)


def _translated(ctx: QuantizationContext, rho: np.ndarray, j: int, k: int) -> np.ndarray:
    """translate_ints on coefficient rows rho of shape (..., N).

    rho'_m = rho_{m-k} exp(i pi (k j + tau k^2 + 2 (j + k tau)(m-k)) / N),
    with rho_{m-k} extended from its class m0 = (m-k) mod N.  The exponents
    combine to i pi (j (2m - k) + tau (m^2 - m0^2)) / N, whose integer
    phase is reduced mod 2N before it is scaled.
    """
    N = ctx.N
    m = np.arange(N)
    m0 = (m - k) % N
    phase = (j % (2 * N)) * (2 * m - k % (2 * N)) % (2 * N)
    with np.errstate(over="ignore", invalid="ignore"):
        out = rho[..., m0] * np.exp(1j * math.pi * (phase + ctx.tau * (m * m - m0 * m0)) / N)
    if not np.all(np.isfinite(out)):
        raise _overflow(f"translation at r = {ctx.r}, tau = {ctx.tau}, (j, k) = ({j}, {k})")
    return out


def _overflow(what: str) -> PrecisionLoss:
    """PrecisionLoss for a theta computation that left the float range."""
    return PrecisionLoss(f"{what} is not finite: theta q-parts of size exp(pi b N) overflow "
                         f"once b N passes about 113 (b = Im tau, or Im(-1/tau) in the S frame)")


def lattice_character(a: int, b: int) -> int:
    """Sign by which the full translation a mu + b lambda acts: (-1)**(ab)."""
    return -1 if (a * b) % 2 else 1


# -- bases ----------------------------------------------------------------

def _psi_diagonal(ctx: QuantizationContext) -> np.ndarray:
    """Coefficient c exp(i pi tau l^2 / N) of Psi_l on its class l, l = 0..N-1."""
    l = np.arange(ctx.N)
    return psi_norm_constant(ctx) * np.exp(1j * math.pi * ctx.tau * (l * l) / ctx.N)


def basis_psi(ctx: QuantizationContext) -> list:
    """Orthonormal translation-eigenbasis, one section per index class.

    Psi_l has coefficients c exp(i pi tau m^2 / N) on the class m = l mod N;
    it is the l-fold longitude-fraction translate of the vacuum.
    """
    return [ThetaSection(ctx, rho) for rho in np.diag(_psi_diagonal(ctx))]


def basis_phi(ctx: QuantizationContext) -> list:
    """Orthonormal basis of the alternating subspace, indices 1..r.

    Phi_l = (Psi_l - Psi_{N-l}) / sqrt(2).
    """
    return [ThetaSection(ctx, row) for row in _phi_rows(ctx)]


def _phi_rows(ctx: QuantizationContext) -> np.ndarray:
    """Coefficient rows of Phi_1 .. Phi_r, shape (r, N)."""
    r, N = ctx.r, ctx.N
    d = _psi_diagonal(ctx) / math.sqrt(2)
    l = np.arange(1, r + 1)
    rho = np.zeros((r, N), dtype=np.complex128)
    rho[l - 1, l] = d[l]
    rho[l - 1, N - l] = -d[N - l]
    return rho


def parity_reflect(s: ThetaSection) -> ThetaSection:
    """Pullback by x -> -x; on coefficients rho_m -> rho_{-m}."""
    return ThetaSection(s.ctx, _reflected(s.ctx, s.rho), s.halfform_scale)


def _reflected(ctx: QuantizationContext, rho: np.ndarray) -> np.ndarray:
    """parity_reflect on coefficient rows rho of shape (..., N)."""
    m = np.arange(ctx.N)
    m0 = -m % ctx.N
    return rho[..., m0] * _extension_factor(ctx, m, m0)


def psi_coefficients(s: ThetaSection) -> np.ndarray:
    """Exact expansion over the translation eigenbasis (index classes)."""
    return s.rho / _psi_diagonal(s.ctx) * s.halfform_scale


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

def _q_parts(ctx: QuantizationContext, q: np.ndarray):
    """Window indices m and the q-parts F[m, j] of those terms at the points q_j.

    A term's exponent at (p, q) is its exponent at (0, q) plus the pure
    phase i (2 pi m + pi N q) p; only this q-part carries the Gaussian.
    """
    lo, hi = _window(ctx, float(q.min()), float(q.max()))
    m = np.arange(lo, hi + 1)
    return m, np.exp(_term_exponent(ctx, m[:, None], 0.0, q[None, :]))


def _gram_kernel(ctx: QuantizationContext, n_grid: int) -> np.ndarray:
    """N x N pairing kernel G with <s1, s2> = rho1^H G rho2 (no half-form).

    The n x n trapezoid sum of conj(s1) s2, done exactly in one dimension:
    the p-dependence of conj(term m) * term m' is exp(2 pi i (m' - m) p),
    whose mean over n grid points is [m' = m mod n].  What is left is a sum
    over q of the terms' q-parts F, folded onto index classes by A.
    """
    m, F = _q_parts(ctx, np.arange(n_grid) / n_grid)
    aliased = (m[:, None] - m[None, :]) % n_grid == 0
    K = np.where(aliased, F.conj() @ F.T, 0)
    A = (m[:, None] % ctx.N == np.arange(ctx.N)).astype(np.float64)
    return (4 * math.pi / n_grid) * (A.T @ K @ A)


def _refine(at, ctx: QuantizationContext) -> list:
    """The blocks of the list at(n), on grids doubled from n_start.

    Each block is accepted on the first grid where it agrees with its value
    on the grid before, and the doubling stops once every block is accepted,
    so a block refines to the grid it would reach alone.  The q-parts reach
    exp(pi b N), so a grid's products overflow once b N passes about 113.
    The first non-finite block still open raises PrecisionLoss; doubling on
    NaN could never converge.
    """
    quad = ctx.quad
    n, prev, done = quad.n_start, None, {}
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            cur = at(n)
        for i, val in enumerate(cur):
            if i in done:
                continue
            if not np.all(np.isfinite(val)):
                raise _overflow(f"quadrature at r = {ctx.r}, tau = {ctx.tau}, n = {n}")
            if prev is not None and np.max(np.abs(val - prev[i])) <= \
                    quad.refine_until * max(1.0, float(np.max(np.abs(val)))):
                done[i] = val
        if len(done) == len(cur):
            return [done[i] for i in range(len(cur))]
        prev = cur
        n *= 2
        if n > quad.n_cap:
            raise QuadratureNotConverged(f"no convergence by n = {quad.n_cap}")


def _pairings(ctx: QuantizationContext, blocks) -> list:
    """Refined scale * R^H G C for every (R, C, scale) in blocks, in one pass.

    R and C hold coefficient rows with their half-form scales applied.  The
    C rows of every block form one stacked matrix, so each grid builds its
    kernel once and multiplies it once; each block keeps its own stopping
    rule (_refine).
    """
    C = np.concatenate([cols for _, cols, _ in blocks]).T
    ends = np.cumsum([len(cols) for _, cols, _ in blocks])

    def at(n):
        GC = _gram_kernel(ctx, n) @ C
        return [scale * (rows.conj() @ GC[:, e - len(cols):e])
                for (rows, cols, scale), e in zip(blocks, ends)]
    return _refine(at, ctx)


def _pairing(rows: Sequence[ThetaSection], cols: Sequence[ThetaSection],
             include_halfform: bool = True) -> np.ndarray:
    """Refined matrix of <rows[i], cols[j]> through the Gram kernel."""
    ctx = rows[0].ctx
    if any(s.ctx._key() != ctx._key() for s in cols):
        raise DimensionMismatch("sections live over different contexts")
    R = np.stack([s.rho * s.halfform_scale for s in rows])
    C = np.stack([s.rho * s.halfform_scale for s in cols])
    scale = halfform_norm_sq(ctx) if include_halfform else 1.0
    return _pairings(ctx, [(R, C, scale)])[0]


def inner_product(s1: ThetaSection, s2: ThetaSection,
                  include_halfform: bool = True) -> complex:
    """Hermitian pairing integral(conj(s1) s2) * 4 pi over the unit square.

    Refined by grid doubling until the relative change drops below the
    context's threshold; the half-form factor sqrt(b/2 pi) multiplies the
    result unless disabled.
    """
    return complex(_pairing([s1], [s2], include_halfform)[0, 0])


def gram_matrix(sections: Sequence[ThetaSection],
                include_halfform: bool = True) -> np.ndarray:
    """Matrix of pairwise inner products, refined as one block."""
    return _pairing(sections, sections, include_halfform)


# -- curve operators and the skein isomorphism ------------------------------

def curve_operator_geom(gamma, ctx: QuantizationContext) -> np.ndarray:
    """Matrix of the curve operator of class (a, b) on the alternating basis.

    Uses the character-normalised lift W = chi(a,b) T*_{gamma/N}, whose
    (2r+1)-st power is the identity, and returns -(W + W^{-1}).  For the
    meridian this is diagonal with entries -2 cos(2 pi l/(2r+1)); for the
    longitude it is the real tridiagonal matrix with the +1 fold in the
    corner.
    """
    a, b = int(gamma[0]), int(gamma[1])
    if gcd(a, b) != 1:
        raise NotPrimitive(f"({a}, {b}) is not a primitive class")
    chi = lattice_character(a, b)
    R = _phi_rows(ctx)
    W = -chi * (_translated(ctx, R, a, b) + _translated(ctx, R, -a, -b))
    beta, dev = _alternating_part(ctx, W / _psi_diagonal(ctx))
    if np.max(dev) > 1e-9:
        raise PrecisionLoss(
            f"curve operator left the alternating subspace (dev {np.max(dev):.2e})")
    return beta.T


def iso_from_skein(v, ctx: QuantizationContext) -> ThetaSection:
    """Linear extension of e_l -> Phi_{l+1} applied to a coefficient vector."""
    if isinstance(v, TorusVector):
        coeffs = v.as_array()
    else:
        coeffs = np.asarray(v, dtype=np.complex128)
    if coeffs.shape != (ctx.r,):
        raise DimensionMismatch(f"need {ctx.r} coefficients")
    rho = coeffs @ _phi_rows(ctx)
    return ThetaSection(ctx, rho)


def iso_to_skein(s: ThetaSection, ctx: Optional[QuantizationContext] = None) -> TorusVector:
    """Inverse of iso_from_skein on the alternating subspace."""
    ctx = ctx or s.ctx
    if ctx._key() != s.ctx._key():
        raise DimensionMismatch("section belongs to a different context")
    beta, dev = phi_coefficients(s)
    if dev > 1e-8:
        raise PrecisionLoss(f"section is not alternating (dev {dev:.2e})")
    return TorusVector(ctx.r, tuple(beta))


def intertwining_deviation(gamma, ctx: QuantizationContext,
                           skein_matrix: Optional[np.ndarray] = None) -> float:
    """Operator-norm gap between the skein curve operator and the
    geometric one transported through e_l -> Phi_{l+1}."""
    lhs = skein_matrix if skein_matrix is not None else curve_operator_skein(gamma, ctx.r)
    rhs = curve_operator_geom(gamma, ctx)
    return float(np.linalg.norm(lhs - rhs, 2))


# -- modular frame changes ---------------------------------------------------

@dataclass
class ModularReport:
    """Outcome of re-expanding a transformed frame basis in the original one."""

    gen: str
    measured: np.ndarray
    predicted: np.ndarray
    global_phase: complex
    max_dev: float          # after dividing out the fitted global phase
    raw_max_dev: float      # against the prediction as-is
    unsigned_phase_dev: float  # against phases with the alternating sign dropped


def _fit_phase(measured: np.ndarray, predicted: np.ndarray) -> complex:
    t = np.vdot(predicted, measured)
    if t == 0:
        return 1.0 + 0j
    return t / abs(t)


def _s_frame_pairing(phis, tilde_phi, n_grid: int) -> np.ndarray:
    """Trapezoid sum 4 pi/n^2 sum conj(phi_m(p, q)) tilde_phi_l(q, -p).

    Each section value is its terms' q-parts (q' = -p on the S side)
    times unit phases in the other coordinate.  The frame phases of the
    two sides meet as exp(-2 pi i N p q), which does not split, so the
    sum stays on the grid: one block of p rows at a time, holding at most
    _GRID_BLOCK values.
    """
    ctx, ctx_t = phis[0].ctx, tilde_phi[0].ctx
    N, r = ctx.N, len(phis)
    xs = np.arange(n_grid) / n_grid
    m, F = _q_parts(ctx, xs)
    m_t, F_t = _q_parts(ctx_t, -xs)
    R = np.stack([s.rho[m % N] * s.halfform_scale for s in phis])
    R_t = np.stack([s.rho[m_t % N] * s.halfform_scale for s in tilde_phi])
    E_t = np.exp(2j * math.pi * np.outer(m_t, xs))
    rows = max(1, _GRID_BLOCK // (r * max(n_grid, m.size, m_t.size)))
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
    Phi~_l = (Psi~_l - Psi~_{N-l}) / sqrt(2).
    """
    r, N = ctx.r, ctx.N
    chain = np.zeros((N, N), dtype=np.complex128)
    chain[0, 0] = _psi_diagonal(ctx)[0]
    for k in range(1, N):
        chain[k] = -_translated(ctx, chain[k - 1], 1, 1)
    l = np.arange(1, r + 1)
    return (chain[l] - chain[N - l]) / math.sqrt(2)


def _frame_report(gen: str, cur: np.ndarray, ctx: QuantizationContext) -> ModularReport:
    """Fit the measured matrix of generator gen against rep_T or rep_S."""
    r, N = ctx.r, ctx.N
    predicted = rep_T(r) if gen == "T" else rep_S(r)
    phase = _fit_phase(cur, predicted)
    max_dev = float(np.max(np.abs(cur - phase * predicted)))
    raw_dev = float(np.max(np.abs(cur - predicted)))
    if gen == "T":
        # the same phases with the alternating twist sign dropped
        n_ = np.arange(r)
        unsigned = np.diag(np.exp(1j * math.pi * (n_ * n_ + 2 * n_) / N))
    else:
        unsigned = predicted
    phase_u = _fit_phase(cur, unsigned)
    unsigned_dev = float(np.max(np.abs(cur - phase_u * unsigned)))
    return ModularReport(gen, cur, predicted, complex(phase), max_dev, raw_dev, unsigned_dev)


def modular_phase_check(gen: str, ctx: QuantizationContext) -> ModularReport:
    """Expand the basis of a generator-transformed frame in the original basis.

    gen="S": the new frame is (lambda, -mu) with modular parameter -1/tau;
    its vacuum theta series stays inside the invariant space, so the full
    change-of-basis matrix (half-form scale tau**-1/2 included) is measured
    by quadrature and compared against the discrete sine kernel rep_S.

    gen="T": the twist fixes the meridian, and the transformed frame
    (mu, mu+lambda) has the opposite lattice character, so no frame theta
    series exists inside the space; the transported basis is instead built
    by chaining the normalised lift of the (1,1) translation.  Those
    sections live in this context, so they pair through the Gram kernel;
    the measured matrix is diagonal and is compared against rep_T.
    """
    r = ctx.r
    if gen == "T":
        cur = _pairings(ctx, [(_phi_rows(ctx), _twist_frame_rows(ctx),
                               halfform_norm_sq(ctx))])[0]
    elif gen == "S":
        ctx_t = QuantizationContext(r, -1.0 / ctx.tau, ctx.series_tol, ctx.quad)
        phis, tilde_phi = basis_phi(ctx), basis_phi(ctx_t)
        # half-form frame change tau**-1/2, principal branch
        weight = ctx.tau ** -0.5 * halfform_norm_sq(ctx)
        cur = _refine(lambda n: [weight * _s_frame_pairing(phis, tilde_phi, n)], ctx)[0]
    else:
        raise ValueError("gen must be 'T' or 'S'")
    return _frame_report(gen, cur, ctx)
