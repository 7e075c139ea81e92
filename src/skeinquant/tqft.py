"""The level-r quantum space of the torus: curve operators, the projective
SL(2,Z) action, Kirby constants, and surgery invariants.

The space has the distinguished basis e_0 .. e_{r-1}.  Boundary behaviour
of the longitude operator uses the folding rule e_r = -e_{r-1}, e_{-1} = 0.
The geometric side forces the same rule by its alternating symmetry: with
Phi_l = (Psi_l - Psi_{2r+1-l}) / sqrt(2) (geom.basis_phi), Phi_{r+1} = -Phi_r.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Optional

from ._lazy import lazy_import
from .errors import NotPrimitive, PrecisionLoss
from .jones import JONES_REL_TOL, KnotPresentation, colored_jones_values
from .roots import RootContext, quantum_integer

np = lazy_import("numpy")

RT_REL_TOL = 1e-6  # every surgery value meets it, by the cancellation bound, or raises


@dataclass(frozen=True)
class TorusVector:
    """Element of the torus space in coordinates over e_0 .. e_{r-1}."""

    r: int
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))
        if len(self.coeffs) != self.r:
            raise ValueError(f"need {self.r} coefficients, got {len(self.coeffs)}")

    def norm(self) -> float:
        """Hermitian norm; the basis is orthonormal so this is Euclidean."""
        return math.sqrt(sum(abs(c) ** 2 for c in self.coeffs))

    def as_array(self) -> np.ndarray:
        return np.array(self.coeffs, dtype=np.complex128)


# -- mapping class words ------------------------------------------------

_GEN_MATS = {
    "T": ((1, 1), (0, 1)),
    "T^-1": ((1, -1), (0, 1)),
    "S": ((0, -1), (1, 0)),
    "S^-1": ((0, 1), (-1, 0)),
}


def _mat_mul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


@dataclass(frozen=True)
class MappingClassWord:
    """Word in the torus mapping class generators T, S and their inverses."""

    word: tuple

    def __post_init__(self):
        for tok in self.word:
            if tok not in _GEN_MATS:
                raise ValueError(f"unknown generator {tok!r}")

    @property
    def matrix(self):
        m = ((1, 0), (0, 1))
        for tok in self.word:
            m = _mat_mul(m, _GEN_MATS[tok])
        return m

    @classmethod
    def from_text(cls, text: str) -> "MappingClassWord":
        toks = []
        for raw in text.replace(",", " ").split():
            tok = raw.strip()
            if tok in ("T", "S"):
                toks.append(tok)
            elif tok in ("T^-1", "T-1", "T'"):
                toks.append("T^-1")
            elif tok in ("S^-1", "S-1", "S'"):
                toks.append("S^-1")
            else:
                raise ValueError(f"cannot parse generator {raw!r}")
        return cls(tuple(toks))


def word_from_matrix(m) -> MappingClassWord:
    """Some T/S word whose generator-matrix product equals the given matrix.

    Euclidean reduction on the first column; exact but not canonical.
    """
    (a, b), (c, d) = (tuple(m[0]), tuple(m[1]))
    if a * d - b * c != 1:
        raise ValueError("matrix must have determinant 1")
    ops = []  # left-multiplications applied in order: ("T", k) or ("S", k)

    def apply_T(k):
        nonlocal a, b
        a, b = a + k * c, b + k * d
        ops.append(("T", k))

    def apply_S(k):
        nonlocal a, b, c, d
        for _ in range(k % 4):
            a, b, c, d = -c, -d, a, b
        ops.append(("S", k))

    while c != 0:
        k = -(a // c)
        if k:
            apply_T(k)
        apply_S(1)
    if a == -1:
        apply_T(b)  # row two is (0, -1), so this clears the corner
        apply_S(2)
    elif b != 0:
        apply_T(-b)
    if (a, b, c, d) != (1, 0, 0, 1):
        raise AssertionError("reduction failed to reach the identity")

    # m equals the product of the op inverses in application order
    word = []
    for kind, power in ops:
        tok = kind if power < 0 else f"{kind}^-1"
        word.extend([tok] * abs(power))
    out = MappingClassWord(tuple(word))
    if out.matrix != (tuple(m[0]), tuple(m[1])):
        raise AssertionError("word reconstruction failed")
    return out


# -- the projective representation --------------------------------------

@lru_cache(maxsize=128)
def rep_T(r: int) -> np.ndarray:
    """Diagonal Dehn-twist matrix with entries (-1)**n exp(i pi (n^2+2n)/(2r+1)).

    The entry on e_n is the full twist eigenvalue of the n-th color, sign
    included: the same factor that corrects framing in the colored Jones
    normalization.  Dropping the sign breaks (ST)^3 = S^2 (it fails to be
    a scalar, not just by a phase) and breaks the intertwining with the
    geometric side for curve classes (a, b) with ab odd; see
    docs/conventions.md.
    """
    return np.diag(_twist_eigenvalues(r))


def _twist_eigenvalues(r: int) -> tuple:
    """The diagonal of rep_T, with n^2+2n reduced mod 2(2r+1) in integers."""
    N = 2 * RootContext(r).r + 1   # rejects a level below 3
    return tuple((-1) ** n * cmath.exp(1j * math.pi * ((n * n + 2 * n) % (2 * N)) / N)
                 for n in range(r))


@lru_cache(maxsize=128)
def rep_S(r: int) -> np.ndarray:
    """The S-matrix on representative indices 0..r-1.

    Entry (m, n) is (2i e^{-i pi/4}/sqrt(2r+1)) sin(2 pi (m+1)(n+1)/(2r+1)).
    Summing instead over all residues mod 2r+1 would double-count after the
    sign-folding identification, so representatives keep the matrix unitary.
    """
    N = 2 * RootContext(r).r + 1   # rejects a level below 3
    pref = 2j * cmath.exp(-1j * math.pi / 4) / math.sqrt(N)
    mat = np.empty((r, r), dtype=np.complex128)
    for m in range(r):
        for n in range(r):
            mat[m, n] = pref * math.sin(2 * math.pi * (m + 1) * (n + 1) / N)
    return mat


def sl2z_rep(word, r: int) -> np.ndarray:
    """Ordered product of rep_T / rep_S factors for a mapping class word."""
    if isinstance(word, str):
        word = MappingClassWord.from_text(word)
    t, s = rep_T(r), rep_S(r)
    mat = np.eye(r, dtype=np.complex128)
    factors = {
        "T": t,
        "T^-1": t.conj().T,
        "S": s,
        "S^-1": s.conj().T,
    }
    for tok in word.word:
        mat = mat @ factors[tok]
    return mat


# -- curve operators -----------------------------------------------------

def curve_operator_skein(gamma, r: int) -> np.ndarray:
    """Operator of the simple closed curve with homology class (a, b).

    The meridian acts diagonally by -2 cos(2(n+1)pi/(2r+1)); the longitude
    is tridiagonal with the fold at the top index; a general primitive
    class is reached by conjugating the meridian operator with a mapping
    class that carries the meridian onto it.
    """
    a, b = int(gamma[0]), int(gamma[1])
    if gcd(a, b) != 1:
        raise NotPrimitive(f"({a}, {b}) is not a primitive class")
    N = 2 * r + 1
    if (a, b) in ((1, 0), (-1, 0)):
        diag = [-2 * math.cos(2 * (n + 1) * math.pi / N) for n in range(r)]
        return np.diag(diag).astype(np.complex128)
    if (a, b) in ((0, 1), (0, -1)):
        mat = np.zeros((r, r), dtype=np.complex128)
        for n in range(r):
            if n - 1 >= 0:
                mat[n - 1, n] -= 1
            if n + 1 <= r - 1:
                mat[n + 1, n] -= 1
            elif n + 1 == r:
                mat[r - 1, n] += 1  # e_r = -e_{r-1}
        return mat
    u = _carry_meridian_to(a, b)
    g = sl2z_rep(word_from_matrix(u), r)
    mu = curve_operator_skein((1, 0), r)
    return g @ mu @ g.conj().T


def _carry_meridian_to(a: int, b: int):
    """Determinant-one integer matrix with first column (a, b)."""
    x, y = _ext_gcd(a, b)
    # a*x + b*y = 1, so columns (a, b), (-y, x) have determinant a x + b y
    return ((a, -y), (b, x))


def _ext_gcd(a: int, b: int):
    old_r, rr = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while rr:
        q = old_r // rr
        old_r, rr = rr, old_r - q * rr
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r == -1:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


# -- Kirby constants and surgery invariants ------------------------------

@dataclass(frozen=True)
class KirbyConstants:
    """Surgery weights at level r: eta, kappa, and the coloring coefficients."""

    r: int
    eta: float
    kappa: complex
    omega_coeffs: tuple


@lru_cache(maxsize=128)
def kirby_constants(r: int) -> KirbyConstants:
    ctx = RootContext(r)
    N = 2 * r + 1
    eta = 2 * math.sin(2 * math.pi / N) / math.sqrt(N)
    omega = tuple((-1) ** i * quantum_integer(i + 1, ctx) for i in range(r))
    theta_bar = [z.conjugate() for z in _twist_eigenvalues(r)]   # one positive kink on color i
    kappa = eta * sum(omega[i] * theta_bar[i] * omega[i] for i in range(r))
    return KirbyConstants(r, eta, complex(kappa), omega)


def rt_invariant(surgery_knot: Optional[KnotPresentation], framing: int, r: int,
                 backend: str = "auto") -> complex:
    """Invariant of the closed manifold given by one integer surgery.

    ``surgery_knot=None`` denotes the empty surgery (the three-sphere).
    The signature of the 1x1 linking matrix is the sign of the framing.
    The value is within RT_REL_TOL relative, or PrecisionLoss is raised:
    each of the r terms carries the JONES_REL_TOL of its J value plus
    about 4r double-precision roundings, so the sum of the terms' moduli
    times that error must stay below RT_REL_TOL times the sum's modulus.
    """
    kc = kirby_constants(r)
    if surgery_knot is None:
        return complex(kc.eta)
    theta_bar = [z.conjugate() for z in _twist_eigenvalues(r)]
    sigma = (framing > 0) - (framing < 0)
    total = 0j
    size = 0.0
    for i, jval in enumerate(colored_jones_values(surgery_knot, r, backend)):
        zero_framed = kc.omega_coeffs[i] * complex(jval)  # (-1)^i [i+1] J_{i+1}
        term = kc.omega_coeffs[i] * theta_bar[i] ** framing * zero_framed
        total += term
        size += abs(term)
    if size * (JONES_REL_TOL + 4 * r * 2.0 ** -53) >= RT_REL_TOL * abs(total):
        raise PrecisionLoss(
            f"surgery sum at r={r}, framing {framing}: terms of modulus {size:.3g} "
            f"cancel to {abs(total):.3g}, so the value misses {RT_REL_TOL:g}")
    return complex(kc.eta ** 2 * kc.kappa ** (-sigma) * total)
