"""Knot states on the torus boundary, their norms two ways, and
volume-growth sequences.

The state of a knot complement has coefficients eta * <e_{n-1}>_K over
the torus basis, n = 1..r.  Its squared norm is

    sum_{n=1..r} |eta [n]|^2 |J(K, n)(exp(2 pi i/(r+1/2)))|^2,

computable either from this formula or, at small level, as the quadrature
norm of the image section under e_l -> Phi_{l+1} (the two must agree by
orthonormality of the Phi basis).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import mpmath
import numpy as np

from .errors import UnknownCatalogEntry
from .geom import QuantizationContext, ThetaSection, inner_product, iso_from_skein
from .jones import (CATALOG_BRAIDS, KnotPresentation, catalog_jones_values,
                    colored_jones, _auto_bits)
from .roots import RootContext, quantum_integer
from .tqft import TorusVector, kirby_constants

GEOM_SECTION_BOUND = 8  # attach a section only where quadrature runs are cheap


@dataclass(frozen=True)
class KnotState:
    """Torus-boundary state of a knot complement at level r."""

    knot: KnotPresentation
    r: int
    coeffs: TorusVector
    section: Optional[ThetaSection]


@dataclass(frozen=True)
class L2Norm:
    norm_sq: float
    norm: float
    log_norm_sq: float
    argmax_n: int


@dataclass(frozen=True)
class VolumeRow:
    r: int
    norm_sq: float
    v_r: float
    argmax_n: int
    ref_vol: float
    rel_err: float


def knot_state(K: KnotPresentation, r: int, backend: str = "auto",
               tau: complex = 1j, attach_section: Optional[bool] = None) -> KnotState:
    """State coefficients eta * <e_{n-1}>_K for n = 1..r, plus the section image."""
    ctx = RootContext(r)
    eta = kirby_constants(r).eta
    coeffs = []
    for n in range(1, r + 1):
        jval = colored_jones(K, n, ctx, backend=backend).value
        qi = quantum_integer(n, ctx)
        sign = -1 if (n - 1) % 2 else 1
        coeffs.append(eta * sign * qi * jval)
    vec = TorusVector(r, tuple(coeffs))
    if attach_section is None:
        attach_section = r <= GEOM_SECTION_BOUND
    section = iso_from_skein(vec, QuantizationContext(r, tau)) if attach_section else None
    return KnotState(K, r, vec, section)


def l2_norm_formula(K: KnotPresentation, r: int,
                    precision_bits: Optional[int] = None,
                    backend: str = "auto") -> L2Norm:
    """Norm of the knot state from the weighted Jones sum.

    Summation runs in ascending color order with compensated (or
    extended-precision) accumulation; the log is computed before any value
    is squeezed back into a double, so large levels do not overflow.
    """
    bits = _auto_bits(r, precision_bits)
    name = K.name if isinstance(K, KnotPresentation) else str(K)
    use_catalog = backend in ("auto", "catalog") and name in CATALOG_BRAIDS

    if use_catalog:
        jvals = catalog_jones_values(name, r, r, precision_bits=bits)
    else:
        ctx = RootContext(r, precision=bits)
        jvals = [colored_jones(K, n, ctx, backend=backend).value for n in range(1, r + 1)]

    NN = 2 * r + 1
    with mpmath.workprec(max(bits, 64)):
        eta = 2 * mpmath.sin(2 * mpmath.pi / NN) / mpmath.sqrt(NN)
        sin1 = mpmath.sin(2 * mpmath.pi / NN)
        terms = []
        best = (-1, mpmath.mpf(0))
        for n in range(1, r + 1):
            qi = mpmath.sin(2 * mpmath.pi * n / NN) / sin1
            jabs = abs(mpmath.mpc(jvals[n - 1]))
            if jabs > best[1]:
                best = (n, jabs)
            terms.append((eta * abs(qi) * jabs) ** 2)
        total = mpmath.fsum(terms)
        log_norm_sq = float(mpmath.log(total))
        norm_sq = float(total)
        norm = float(mpmath.sqrt(total))
    return L2Norm(norm_sq, norm, log_norm_sq, best[0])


def l2_norm_quadrature(K: KnotPresentation, r: int, tau: complex = 1j,
                       backend: str = "auto") -> float:
    """Norm of the mapped section by quadrature; independent of the formula."""
    state = knot_state(K, r, backend=backend, tau=tau, attach_section=True)
    val = inner_product(state.section, state.section)
    return math.sqrt(val.real)


def lobachevsky(theta: float, tol: float = 1e-12) -> float:
    """(1/2) sum sin(2 n theta)/n**2, summed far enough for the stated tolerance.

    Pairs of consecutive terms telescope like n**-3, so the partial sum to
    M has error below ~1/(M*M*|sin theta|); M is chosen accordingly.
    """
    s = abs(math.sin(theta))
    if s < 1e-9:
        return 0.0
    M = int(math.sqrt(2.0 / (tol * s))) + 10
    n = np.arange(1, M + 1, dtype=np.float64)
    return float(0.5 * np.sum(np.sin(2 * theta * n) / n ** 2))


_REFERENCE_NAMES = {"unknot": 0.0, "trefoil": 0.0}


def reference_volume(name: str, user_value: Optional[float] = None) -> float:
    """Simplicial volume of the knot complement for catalog entries.

    Torus knots and the unknot give 0.  The figure-eight complement
    decomposes into two regular ideal tetrahedra, each of volume
    2 Lobachevsky(pi/6), giving 4 Lobachevsky(pi/6) = 2.029883212819...;
    anything else must be supplied by the caller.
    """
    if name in _REFERENCE_NAMES:
        return _REFERENCE_NAMES[name]
    if name == "figure-eight":
        return 4.0 * lobachevsky(math.pi / 6)
    if user_value is not None:
        return float(user_value)
    raise UnknownCatalogEntry(
        f"no reference volume for {name!r}; pass an explicit value")


def volume_sequence(K: KnotPresentation, r_list: Sequence[int],
                    precision_bits: Optional[int] = None,
                    ref_vol: Optional[float] = None,
                    backend: str = "auto") -> list:
    """Norm growth rows v_r = (2 pi / r) log ||state|| over the given levels."""
    ref = reference_volume(K.name, ref_vol)
    rows = []
    for r in sorted(r_list):
        res = l2_norm_formula(K, r, precision_bits=precision_bits, backend=backend)
        v_r = math.pi / r * res.log_norm_sq
        rel = abs(v_r - ref) / ref if ref > 0 else abs(v_r)
        rows.append(VolumeRow(r, res.norm_sq, v_r, res.argmax_n, ref, rel))
    return rows


CSV_COLUMNS = ("r", "norm_sq", "v_r", "argmax_n", "ref_vol", "rel_err")


def write_volume_csv(rows: Sequence[VolumeRow], path: str) -> None:
    """Emit rows with floating values at 15 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([
                row.r,
                f"{row.norm_sq:.15g}",
                f"{row.v_r:.15g}",
                row.argmax_n,
                f"{row.ref_vol:.15g}",
                f"{row.rel_err:.15g}",
            ])
