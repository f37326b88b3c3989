"""Planar four-bar linkage configuration spaces and their singular points.

The coupler endpoints (x, y) and (u, v) of a four-bar with ground length 2
satisfy three circle conditions; the configuration space is the real zero set
of that ideal in Q[x, y, u, v].  Rank-drop configurations exist exactly on the
degenerate parameter families l2 +- l3 +- l4 = 2; the branch wired here is
l2 - l3 + l4 = 2, whose singular configuration is (l2, 0, l2 + l4, 0).

Parameters are instantiated rationals.  The standing exclusions l2 != 2,
l4 != 2, l3 != 2 and l2 != 8/3 keep every Groebner basis shape of the
analysis valid for the instance, so they are enforced up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .blowup import check_max_depth
from .decide import Classification, classify_point
from .errors import InvalidParams, NotSingularFamily
from .ideals import IdealPresentation, ideal
from .polynomials import Polynomial, VariableSet
from .singular import is_on_variety

Q = Fraction

FOURBAR_VARIABLES = VariableSet.of("x", "y", "u", "v")


@dataclass(frozen=True)
class FourBarParams:
    """Bar lengths l2, l3, l4 (ground bar fixed at 2)."""

    l2: Fraction
    l3: Fraction
    l4: Fraction

    @staticmethod
    def of(l2, l4, l3=None) -> "FourBarParams":
        l2, l4 = Q(l2), Q(l4)
        l3 = l2 + l4 - 2 if l3 is None else Q(l3)
        return FourBarParams(l2, l3, l4)

    def violations(self) -> list[str]:
        out = []
        for name, value in (("l2", self.l2), ("l3", self.l3), ("l4", self.l4)):
            if value <= 0:
                out.append(f"{name} = {value} must be positive")
        if self.l2 == 2:
            out.append("l2 = 2 is excluded")
        if self.l4 == 2:
            out.append("l4 = 2 is excluded")
        if self.l3 == 2:
            out.append("l3 = 2 is excluded")
        if self.l2 == Q(8, 3):
            out.append("l2 = 8/3 is excluded")
        return out

    def validate(self) -> None:
        bad = self.violations()
        if bad:
            raise InvalidParams(bad)

    def is_grashof_degenerate(self) -> bool:
        return self.l2 - self.l3 + self.l4 == 2


def fourbar_ideal(params: FourBarParams) -> IdealPresentation:
    """Constraint ideal <p1, p2, p3> in Q[x, y, u, v] for the instance."""
    params.validate()
    vs = FOURBAR_VARIABLES
    x, y, u, v = (Polynomial.variable(vs, k) for k in range(4))
    two = Polynomial.constant(vs, 2)

    def c(value) -> Polynomial:
        return Polynomial.constant(vs, value)

    p1 = x * x + y * y - c(params.l2**2)
    p2 = (u - two) * (u - two) + v * v - c(params.l3**2)
    p3 = (u - x) * (u - x) + (v - y) * (v - y) - c(params.l4**2)
    return ideal(vs, (p1, p2, p3))


def grashof_singular_point(params: FourBarParams) -> tuple[Fraction, ...]:
    """The rank-drop configuration (l2, 0, l2 + l4, 0) of the wired family."""
    params.validate()
    if not params.is_grashof_degenerate():
        raise NotSingularFamily(
            f"l2 - l3 + l4 = {params.l2 - params.l3 + params.l4} != 2"
        )
    point = (params.l2, Q(0), params.l2 + params.l4, Q(0))
    if not is_on_variety(fourbar_ideal(params), point):
        raise AssertionError("singular configuration fails the constraint equations")
    return point


@dataclass(frozen=True)
class FourBarAnalysis:
    params: FourBarParams
    ideal: IdealPresentation
    point: tuple[Fraction, ...]
    classification: Classification
    ideal_dimension: int
    singular_locus_dimension: int | None


def analyze_fourbar(
    params: FourBarParams, *, max_depth: int = 6
) -> FourBarAnalysis:
    """Classify the singular configuration of a degenerate four-bar instance."""
    check_max_depth(max_depth)
    i = fourbar_ideal(params)
    point = grashof_singular_point(params)
    classification = classify_point(i, point, max_depth=max_depth)
    radicality = classification.certificate.radicality
    return FourBarAnalysis(
        params=params,
        ideal=i,
        point=point,
        classification=classification,
        ideal_dimension=radicality.dimension,
        singular_locus_dimension=radicality.singular_locus_dimension,
    )
