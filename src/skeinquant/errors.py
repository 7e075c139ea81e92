"""Exception types shared across the package."""


class SkeinQuantError(Exception):
    """Base class for package-specific errors."""


class InexactDivision(SkeinQuantError):
    """A ring division expected to be exact left a remainder."""


class StateSpaceTooLarge(SkeinQuantError):
    """A braid representation or bracket contraction exceeds its memory budget."""


class PrecisionLoss(SkeinQuantError):
    """A numeric value cannot be certified to the stated relative accuracy."""


class UnknownCatalogEntry(SkeinQuantError):
    """Requested knot is not in the built-in catalog."""


class NotPrimitive(SkeinQuantError):
    """Curve class (a, b) must satisfy gcd(a, b) = 1."""


class NotLatticeFraction(SkeinQuantError):
    """Translation must be an integer multiple of 1/(2r+1) in lattice coordinates."""


class NonconvergentSeries(SkeinQuantError):
    """Theta series did not reach the truncation tolerance within the term cap."""


class QuadratureNotConverged(SkeinQuantError):
    """The quadrature grid that the aliasing bound asks for passes its cap."""


class DimensionMismatch(SkeinQuantError):
    """Vector length does not match the quantum-space dimension."""


class CablingUnsupported(SkeinQuantError):
    """Cable width > 1 requires a braid-backed diagram."""
