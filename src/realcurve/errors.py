"""Exception hierarchy shared by all realcurve modules.

Every error raised by the library derives from RealCurveError so callers can
catch computation failures without swallowing programming errors.
"""

from __future__ import annotations


class RealCurveError(Exception):
    """Base class for all errors raised by this package."""


class ZeroPolynomial(RealCurveError):
    """An operation that needs a nonzero polynomial received zero."""


class NotSquare(RealCurveError):
    """Matrix operation requiring a square matrix."""


class NotSymmetric(RealCurveError):
    """Signature computation requires a symmetric matrix."""


class DegreeTooLarge(RealCurveError, ValueError):
    """A monomial degree does not fit the fields of the packed order keys."""


class VariableSetMismatch(RealCurveError):
    """Operands live in different polynomial rings."""


class NotZeroDimensional(RealCurveError):
    """The ideal does not define a finite set of points."""


class RankTooLarge(RealCurveError):
    """Requested minor size exceeds the matrix dimensions."""


class DimensionUnknown(RealCurveError):
    """Equidimensionality (or radicality) could not be certified."""


class PointNotOnVariety(RealCurveError):
    """The given point does not satisfy all generators; carries the point."""

    def __init__(self, point):
        self.point = tuple(point)
        super().__init__(f"point ({', '.join(map(str, self.point))}) is not on the variety")


class OriginNotOnVariety(RealCurveError):
    """Blow-up center (the origin) is not on the variety."""


class NotACurve(RealCurveError):
    """The ideal is not one-dimensional; carries the dimension it has."""

    def __init__(self, dimension: int):
        super().__init__(f"not a curve: the ideal has dimension {dimension}")
        self.dimension = dimension


class DepthExceeded(RealCurveError):
    """Resolution did not terminate within the allowed number of blow-ups."""

    def __init__(self, max_depth: int):
        super().__init__(f"blow-up depth limit {max_depth} exceeded")
        self.max_depth = max_depth


class IrrationalSingularFiberPoint(RealCurveError):
    """A singular point of a strict transform has non-rational coordinates.

    Carries the zero-dimensional ideal isolating the offending points so the
    caller can report exactly where resolution got stuck.
    """

    def __init__(self, ideal):
        super().__init__(
            "singular fiber point with non-rational coordinates; "
            "isolating ideal attached"
        )
        self.ideal = ideal


class NoStabilization(RealCurveError):
    """Sphere-probe counts never agreed on two consecutive radii."""


class InvalidParams(RealCurveError):
    """Four-bar design parameters violate the standing exclusions."""

    def __init__(self, violations: list[str]):
        super().__init__("invalid four-bar parameters: " + "; ".join(violations))
        self.violations = violations


class NotSingularFamily(RealCurveError):
    """Parameters do not satisfy the degenerate family relation l2 - l3 + l4 = 2."""


class IdealSyntaxError(RealCurveError):
    """Malformed ideal file; carries the 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class UnknownVariable(IdealSyntaxError):
    """A name in a polynomial is not declared in the vars header."""


class ZeroPolynomialLine(IdealSyntaxError):
    """A polynomial line in an ideal file simplified to zero."""
