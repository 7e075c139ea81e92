"""Exception types shared across the package, and the byte budget of StateSpaceTooLarge."""

import math


class SkeinQuantError(Exception):
    """Base class for package-specific errors."""


class InexactDivision(SkeinQuantError):
    """A ring division expected to be exact left a remainder."""


BYTE_BUDGET = 1 << 28   # bytes any one array build may hold; read at call time, so it can be set


class StateSpaceTooLarge(SkeinQuantError):
    """An array would exceed BYTE_BUDGET; raised before it is built, by check_bytes."""


def check_bytes(what: str, nbytes: float) -> None:
    """StateSpaceTooLarge past BYTE_BUDGET: what needs nbytes (rounded up), in bytes and MiB."""
    if nbytes > BYTE_BUDGET:
        count = math.ceil(nbytes) if nbytes < math.inf else nbytes
        raise StateSpaceTooLarge(
            f"{what} needs {count:.15g} bytes ({nbytes / 2**20:.6g} MiB), over the "
            f"{BYTE_BUDGET}-byte ({BYTE_BUDGET / 2**20:.6g} MiB) budget")


class PrecisionLoss(SkeinQuantError):
    """A numeric value cannot be certified to the stated relative accuracy."""


class UnknownCatalogEntry(SkeinQuantError):
    """Requested knot is not in the built-in catalog."""


class NotPrimitive(SkeinQuantError):
    """Curve class (a, b) must satisfy gcd(a, b) = 1."""


class NotLatticeFraction(SkeinQuantError):
    """Translation must be an integer multiple of 1/(2r+1) in lattice coordinates."""


class DimensionMismatch(SkeinQuantError):
    """Vector length does not match the quantum-space dimension."""

