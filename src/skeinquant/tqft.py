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
from math import gcd
from typing import NamedTuple, Optional

from ._lazy import lazy_import
from .errors import NotPrimitive, PrecisionLoss
from .jones import JONES_REL_TOL, KnotPresentation, colored_jones_values
from .roots import RootContext

np = lazy_import("numpy")

RT_REL_TOL = 1e-6  # every surgery value meets it, by the cancellation bound, or raises


class TorusVector(NamedTuple("TorusVector", [("r", int), ("coeffs", tuple)])):
    """Element of the torus space in coordinates over e_0 .. e_{r-1}."""

    __slots__ = ()

    def __new__(cls, r, coeffs):
        coeffs = tuple(complex(c) for c in coeffs)
        if len(coeffs) != r:
            raise ValueError(f"need {r} coefficients, got {len(coeffs)}")
        return super().__new__(cls, r, coeffs)

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


class MappingClassWord(NamedTuple("MappingClassWord", [("word", tuple)])):
    """Word in the torus mapping class generators T, S and their inverses."""

    __slots__ = ()

    def __new__(cls, word):
        for tok in word:
            if tok not in _GEN_MATS:
                raise ValueError(f"unknown generator {tok!r}")
        return super().__new__(cls, word)

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

    One Euclid pass on the first column: m = T^k S m' with k = a // c and
    m' = ((c, d), (kc - a, kd - b)), whose corner |kc - a| < |c|.  The pass
    ends at T^b, or at -T^-b = S^2 T^-b.  Exact but not canonical.
    """
    (a, b), (c, d) = target = (tuple(m[0]), tuple(m[1]))
    if a * d - b * c != 1:
        raise ValueError("matrix must have determinant 1")

    def twists(k):
        return ["T" if k > 0 else "T^-1"] * abs(k)

    word = []
    while c:
        k = a // c
        word += twists(k) + ["S"]
        (a, b), (c, d) = (c, d), (k * c - a, k * d - b)
    word += ["S", "S"] + twists(-b) if a == -1 else twists(b)
    out = MappingClassWord(tuple(word))
    if out.matrix != target:
        raise AssertionError("word reconstruction failed")
    return out


# -- the projective representation --------------------------------------

def rep_T(r: int) -> np.ndarray:
    """Diagonal Dehn-twist matrix with entries (-1)**n exp(i pi (n^2+2n)/(2r+1)).

    The entry on e_n is the full twist eigenvalue of the n-th color, sign
    included: the same factor that corrects framing in the colored Jones
    normalization.  Dropping the sign breaks (ST)^3 = S^2 (it fails to be
    a scalar, not just by a phase) and breaks the intertwining with the
    geometric side for curve classes (a, b) with ab odd; see
    docs/conventions.md.
    """
    return np.diag(_twist_eigenvalues(r, 1))


def _twist_eigenvalues(r: int, k: int) -> tuple:
    """The diagonal of rep_T to the power k, the one source of every twist power.

    theta_n^k = (-1)^(nk) exp(i pi (k(n^2+2n) mod 2(2r+1))/(2r+1)), with the
    exponent reduced in integers: each entry is within a few ulp at any k,
    and powers k and k + 2(2r+1) give the same floats.
    """
    N = 2 * RootContext(r).r + 1   # rejects a level below 3
    return tuple((-1) ** (n * k % 2)
                 * cmath.exp(1j * math.pi * (k * (n * n + 2 * n) % (2 * N)) / N)
                 for n in range(r))


def rep_S(r: int) -> np.ndarray:
    """The S-matrix on representative indices 0..r-1.

    Entry (m, n) is (2i e^{-i pi/4}/sqrt(2r+1)) sin(2 pi (m+1)(n+1)/(2r+1)),
    with (m+1)(n+1) reduced mod 2r+1 in integers.  Summing instead over all
    residues mod 2r+1 would double-count after the sign-folding
    identification, so representatives keep the matrix unitary.
    """
    N = 2 * RootContext(r).r + 1   # rejects a level below 3
    k = np.arange(1, r + 1)
    return 2j * cmath.exp(-1j * math.pi / 4) / math.sqrt(N) * np.sin(
        2 * math.pi / N * (np.outer(k, k) % N))


def sl2z_rep(word, r: int) -> np.ndarray:
    """Ordered product of rep_T / rep_S factors for a mapping class word."""
    if isinstance(word, str):
        word = MappingClassWord.from_text(word)
    factors = {"T": rep_T(r), "S": rep_S(r)}
    for tok in set(word.word) - factors.keys():   # an adjoint only for a letter in use
        factors[tok] = factors[tok[0]].conj().T
    mat = np.eye(r, dtype=np.complex128)
    for tok in word.word:
        mat = mat @ factors[tok]
    return mat


# -- curve operators -----------------------------------------------------

def curve_operator_skein(gamma, r: int) -> np.ndarray:
    """Operator of the simple closed curve with homology class (a, b).

    The meridian acts diagonally by -2 cos(2(n+1)pi/(2r+1)); the longitude
    is tridiagonal with the fold at the top index.  A mapping class u
    carries curve operators by O(u gamma) = rho(u) O(gamma) rho(u)^H, and
    Euclid's steps on (a, b) reduce a general primitive class to one of
    those two; each step conjugates by a diagonal power of rho(T), and
    each step but the last by rho(S) too.
    """
    a, b = int(gamma[0]), int(gamma[1])
    if gcd(a, b) != 1:
        raise NotPrimitive(f"({a}, {b}) is not a primitive class")
    steps = []
    while a and b:   # T^k carries (a - kb, b) to (a, b), and S carries (b, -a) to (a, b)
        k, a = divmod(a, b)
        steps.append(k)
        if a:
            a, b = b, -a
    if b == 0:
        diag = [-2 * math.cos(2 * (n + 1) * math.pi / (2 * r + 1)) for n in range(r)]
        mat = np.diag(diag).astype(np.complex128)
    else:
        band = np.full(r - 1, -1.0)
        mat = (np.diag(band, 1) + np.diag(band, -1)).astype(np.complex128)
        mat[-1, -1] = 1   # e_r = -e_{r-1}
    s = rep_S(r) if len(steps) > 1 else None
    for i, k in enumerate(reversed(steps)):
        if i:
            mat = s @ mat @ s.conj().T
        power = np.array(_twist_eigenvalues(r, k))   # rho(T)^k, diagonal
        mat = power[:, None] * mat * power.conj()
    return mat


# -- Kirby constants and surgery invariants ------------------------------

class KirbyConstants(NamedTuple):
    """Surgery weights at level r: eta, kappa, and the coloring coefficients."""

    r: int
    eta: float
    kappa: complex
    omega_coeffs: tuple


def _weights(r: int) -> tuple:
    """eta = 2 sin(2 pi/(2r+1))/sqrt(2r+1) and omega = ((-1)^i [i+1]) for i < r."""
    N = 2 * RootContext(r).r + 1   # rejects a level below 3
    unit = math.sin(2 * math.pi / N)   # [n] = sin(2 pi n/N) / unit, as roots.quantum_integer
    eta = 2 * unit / math.sqrt(N)
    return eta, tuple((-1) ** i * (math.sin(2 * math.pi * (i + 1) / N) / unit) for i in range(r))


def kirby_constants(r: int) -> KirbyConstants:
    eta, omega = _weights(r)
    kink = _twist_eigenvalues(r, -1)   # one positive kink on color i
    kappa = eta * sum(w * z * w for w, z in zip(omega, kink))
    return KirbyConstants(r, eta, complex(kappa), omega)


def rt_invariant(surgery_knot: Optional[KnotPresentation], framing: int, r: int) -> complex:
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
    kinks = _twist_eigenvalues(r, -framing)
    sigma = (framing > 0) - (framing < 0)
    terms = [w * kink * (w * complex(j))   # omega_i theta_i^-framing times (-1)^i [i+1] J_{i+1}
             for w, kink, j in zip(kc.omega_coeffs, kinks, colored_jones_values(surgery_knot, r))]
    total, size = sum(terms), sum(map(abs, terms))
    if size * (JONES_REL_TOL + 4 * r * 2.0 ** -53) >= RT_REL_TOL * abs(total):
        raise PrecisionLoss(
            f"surgery sum at r={r}, framing {framing}: terms of modulus {size:.3g} "
            f"cancel to {abs(total):.3g}, so the value misses {RT_REL_TOL:g}")
    return complex(kc.eta ** 2 * kc.kappa ** (-sigma) * total)
