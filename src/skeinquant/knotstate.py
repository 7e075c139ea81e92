"""Knot states on the torus boundary, their norms two ways, and
volume-growth sequences.

The state of a knot complement has coefficients eta * <e_{n-1}>_K over
the torus basis, n = 1..r.  Its squared norm is

    sum_{n=1..r} |eta [n]|^2 |J(K, n)(exp(2 pi i/(r+1/2)))|^2,

computable either from this formula or as the quadrature norm of the
image section under e_l -> Phi_{l+1} (the two must agree by
orthonormality of the Phi basis at every tau; the tests compare them to
1e-12 in logs at tau = i, 0.3+1.7i and 2+3i).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

from . import jones
from .errors import SkeinQuantError, UnknownCatalogEntry
from .geom import QuantizationContext, inner_product, iso_from_skein
from .jones import KnotPresentation, catalog_name, colored_jones_values
from .roots import RootContext
from .tqft import TorusVector, _weights


class KnotState(NamedTuple):
    """Torus-boundary state of a knot complement at level r, and its norm."""

    knot: KnotPresentation
    r: int
    coeffs: TorusVector
    norm: L2Norm


class L2Norm(NamedTuple):
    norm_sq: float
    norm: float
    log_norm_sq: float
    argmax_n: int


class VolumeRow(NamedTuple):
    r: int
    norm_sq: float
    v_r: float
    argmax_n: int
    ref_vol: float
    rel_err: float


def knot_state(K: KnotPresentation, r: int, backend: str = "auto") -> KnotState:
    """State coefficients eta * <e_{n-1}>_K for n = 1..r, from one evaluation of
    J(K, 1..r), and their norm by log-sum-exp, l2_norm_formula's per-color path.
    For a catalog knot l2_norm_formula takes the entry's norm pass instead: each is
    within JONES_REL_TOL, but not the same double (the trefoil's norm_sq at r = 8
    is 6.000000000000003 here and 6.0 there)."""
    values, weights = colored_jones_values(K, r, backend), _weights(r)
    eta, omega = weights  # omega[n-1] = (-1)^(n-1) [n]
    return KnotState(K, r, TorusVector(r, tuple(eta * w * complex(j) for w, j in
                                                zip(omega, values))), _norm(values, weights))


def _log_abs(z) -> float:
    """log|z| for a complex or a Dyadic, without rounding |z| to a double.

    The Dyadic z = man 2^exp is read as log(|man| 2^-b) + (exp + b) log 2,
    b = bitlen(man), so neither term leaves the double range.
    """
    if isinstance(z, complex):
        return math.log(abs(z)) if z else -math.inf
    bits = abs(z.man).bit_length()
    return math.log(abs(z.man) / (1 << bits)) + (z.exp + bits) * math.log(2) if bits else -math.inf


def l2_norm_formula(K: KnotPresentation, r: int) -> L2Norm:
    """Norm of the knot state from the weighted Jones sum.

    A catalog knot takes the certified norm its entry's norm pass returns,
    from the entry's own partial sums (the unknot's is its closed form, 1);
    where the pass returns None, and for any other knot, the terms
    |eta [n] J(K, n)|^2 of the values of colored_jones_values, each certified
    on its own, are summed as logs by log-sum-exp, so no value is squeezed
    into a double and large levels do not overflow.
    """
    RootContext(r)   # rejects a level below 3
    entry = jones.CATALOG.get(catalog_name(K))
    found = entry and entry.norm(r)
    if found:
        norm_sq, log_norm_sq, argmax_n = found
        return L2Norm(norm_sq, _exp(log_norm_sq / 2), log_norm_sq, argmax_n)
    return _norm(colored_jones_values(K, r), _weights(r))


def _norm(values: list, weights: tuple) -> L2Norm:
    eta, omega = weights  # tqft._weights(r): |omega[n-1]| = |[n]|
    log_j = [_log_abs(v) for v in values]
    log_terms = [2 * (math.log(eta * abs(w)) + lj) for w, lj in zip(omega, log_j)]
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


def l2_norm_quadrature(K: KnotPresentation, r: int, tau: complex = 1j) -> float:
    """Norm of the mapped section by quadrature; independent of the formula."""
    section = iso_from_skein(knot_state(K, r).coeffs, QuantizationContext(r, tau))
    return math.sqrt(inner_product(section, section).real)


def reference_volume(name: Optional[str], user_value: Optional[float] = None) -> float:
    """Simplicial volume of the knot complement: a catalog entry's volume (jones.CATALOG).

    Anything else (name None for a braid outside the catalog) takes the
    caller's value, which must be finite and nonnegative; a catalog entry
    takes none.
    """
    if name in jones.CATALOG:
        if user_value is not None:
            raise SkeinQuantError(f"{name} is a catalog knot; pass no reference volume")
        return jones.CATALOG[name].volume
    if user_value is None:
        raise UnknownCatalogEntry(
            f"no reference volume for {repr(name) if name else 'a braid outside the catalog'}; "
            "pass an explicit value")
    if not 0 <= user_value < math.inf:
        raise SkeinQuantError(f"a reference volume is finite and nonnegative, not {user_value}")
    return float(user_value)


def volume_sequence(K: KnotPresentation, r_list: Sequence[int],
                    ref_vol: Optional[float] = None) -> list:
    """Norm growth rows v_r = (2 pi / r) log ||state|| over the given levels."""
    ref = reference_volume(catalog_name(K), ref_vol)
    rows = []
    for r in sorted(r_list):
        res = l2_norm_formula(K, r)
        v_r = math.pi / r * res.log_norm_sq
        rel = abs(v_r - ref) / ref if ref > 0 else abs(v_r)
        rows.append(VolumeRow(r, res.norm_sq, v_r, res.argmax_n, ref, rel))
    return rows


CSV_COLUMNS = ("r", "norm_sq", "v_r", "argmax_n", "ref_vol", "rel_err")


def write_volume_csv(rows: Sequence[VolumeRow], path: str) -> None:
    """Emit rows with floating values at 15 significant digits.

    Lines end in CRLF, as the csv module's excel dialect writes them; no
    int or 15-digit float field (inf and nan included) needs its quoting.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\r\n")
        for row in rows:
            fh.write(f"{row.r},{row.norm_sq:.15g},{row.v_r:.15g},{row.argmax_n},"
                     f"{row.ref_vol:.15g},{row.rel_err:.15g}\r\n")
