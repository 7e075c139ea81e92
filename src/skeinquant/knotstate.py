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
from functools import lru_cache
from typing import Optional, Sequence

from ._lazy import lazy_import
from .errors import UnknownCatalogEntry
from .geom import QuantizationContext, inner_product, iso_from_skein
from .jones import KnotPresentation, catalog_name, colored_jones_values
from .tqft import TorusVector, kirby_constants

mpmath = lazy_import("mpmath")


@dataclass(frozen=True)
class KnotState:
    """Torus-boundary state of a knot complement at level r."""

    knot: KnotPresentation
    r: int
    coeffs: TorusVector


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


def knot_state(K: KnotPresentation, r: int, backend: str = "auto") -> KnotState:
    """State coefficients eta * <e_{n-1}>_K for n = 1..r."""
    return _state(K, r, colored_jones_values(K, r, backend))


def _state(K: KnotPresentation, r: int, values: list) -> KnotState:
    kc = kirby_constants(r)  # omega_coeffs[n-1] = (-1)^(n-1) [n]
    return KnotState(K, r, TorusVector(r, tuple(kc.eta * w * complex(j) for w, j in
                                                zip(kc.omega_coeffs, values))))


def _state_and_norm(K: KnotPresentation, r: int, backend: str) -> tuple:
    """knot_state and l2_norm_formula from one evaluation of J(K, 1..r)."""
    values = colored_jones_values(K, r, backend)
    return _state(K, r, values), _norm(r, values)


def _log_abs(z) -> float:
    """log|z| for a complex or an mpmath real, without rounding |z| to a double.

    The real is read as its exact pair z = +-man 2^exp: log(man 2^-b) + (exp + b) log 2,
    b = bitlen(man), so neither term leaves the double range.
    """
    if not z:
        return -math.inf
    if isinstance(z, complex):
        return math.log(abs(z))
    bits = z.man.bit_length()
    return math.log(z.man / 2 ** bits) + (z.exp + bits) * math.log(2)


def l2_norm_formula(K: KnotPresentation, r: int, backend: str = "auto") -> L2Norm:
    """Norm of the knot state from the weighted Jones sum.

    The terms |eta [n] J(K, n)|^2 are summed as logs by log-sum-exp, so no
    value is squeezed into a double and large levels do not overflow.
    """
    return _norm(r, colored_jones_values(K, r, backend))


def _norm(r: int, values: list) -> L2Norm:
    kc = kirby_constants(r)
    log_j = [_log_abs(v) for v in values]
    log_terms = [2 * (math.log(kc.eta * abs(w)) + lj) for w, lj in zip(kc.omega_coeffs, log_j)]
    top = max(log_terms)
    log_norm_sq = top + math.log(math.fsum(math.exp(t - top) for t in log_terms))
    return L2Norm(_exp(log_norm_sq), _exp(log_norm_sq / 2), log_norm_sq,
                  log_j.index(max(log_j)) + 1)


def _exp(x: float) -> float:
    """exp(x); past the double range the norms read inf."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def l2_norm_quadrature(K: KnotPresentation, r: int, tau: complex = 1j,
                       backend: str = "auto") -> float:
    """Norm of the mapped section by quadrature; independent of the formula."""
    section = iso_from_skein(knot_state(K, r, backend).coeffs, QuantizationContext(r, tau))
    val = inner_product(section, section)
    return math.sqrt(val.real)


def lobachevsky(theta: float) -> float:
    """The Lobachevsky function (1/2) Cl_2(2 theta), from mpmath's Clausen function."""
    return 0.5 * float(mpmath.clsin(2, 2 * theta))


_REFERENCE_VOLUMES = {"unknot": lambda: 0.0, "trefoil": lambda: 0.0,
                      "figure-eight": lru_cache(lambda: 4.0 * lobachevsky(math.pi / 6))}


def reference_volume(name: Optional[str], user_value: Optional[float] = None) -> float:
    """Simplicial volume of the knot complement for catalog entries.

    Torus knots and the unknot give 0.  The figure-eight complement
    decomposes into two regular ideal tetrahedra, each of volume
    2 Lobachevsky(pi/6), giving 4 Lobachevsky(pi/6) = 2.029883212819...,
    computed once per process; anything else (name None for a braid
    outside the catalog) must be supplied by the caller.
    """
    if name in _REFERENCE_VOLUMES:
        return _REFERENCE_VOLUMES[name]()
    if user_value is not None:
        return float(user_value)
    raise UnknownCatalogEntry(
        f"no reference volume for {repr(name) if name else 'a braid outside the catalog'}; "
        "pass an explicit value")


def volume_sequence(K: KnotPresentation, r_list: Sequence[int],
                    ref_vol: Optional[float] = None,
                    backend: str = "auto") -> list:
    """Norm growth rows v_r = (2 pi / r) log ||state|| over the given levels."""
    ref = reference_volume(catalog_name(K), ref_vol)
    rows = []
    for r in sorted(r_list):
        res = l2_norm_formula(K, r, backend=backend)
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
