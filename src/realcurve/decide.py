"""Top-level manifold-point decision for rational points of curves.

The pipeline: translate the point to the origin, certify radicality (or take
the caller's word for it), require dimension one, short-circuit on smooth
points, otherwise resolve by blow-ups and read the verdict off the fiber of
the resolved model:

    0 real fiber points                  -> isolated point
    2 or more real fiber points          -> not a manifold point
    1 real fiber point, reduced          -> manifold point at a singularity
    1 real fiber point, non-reduced      -> not a manifold point

Everything runs over the rationals; real fiber points are counted through
trace-form signatures, so realness over R is captured without ever leaving Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .blowup import FiberSummary, SmoothModel, fiber_summary, resolve_curve
from .errors import (
    DepthExceeded,
    IrrationalSingularFiberPoint,
    NotACurve,
    PointNotOnVariety,
)
from .ideals import IdealPresentation, ideal
from .singular import (
    USER_ASSERTED_RADICALITY,
    RadicalityCertificate,
    is_on_variety,
    radicality_certificate,
)


class Verdict(Enum):
    SMOOTH_MANIFOLD_POINT = "smooth-manifold-point"
    MANIFOLD_POINT_AT_SINGULARITY = "manifold-point-at-singularity"
    ISOLATED_POINT = "isolated-point"
    NOT_MANIFOLD_POINT = "not-manifold-point"
    INCONCLUSIVE = "inconclusive"

    @property
    def label(self) -> str:
        return self.value


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable evidence backing a verdict."""

    radicality: RadicalityCertificate | None
    dimension: int | None
    smooth_shortcircuit: bool
    blowup_depth: int | None
    fiber: FiberSummary | None
    reason_text: str = ""


@dataclass(frozen=True)
class Classification:
    verdict: Verdict
    certificate: Certificate


def decide_from_fiber(real_points: int, nonreduced_real_points: int) -> Verdict:
    """The decision table on (real fiber points, non-reduced real ones)."""
    if real_points == 0:
        return Verdict.ISOLATED_POINT
    if real_points >= 2:
        return Verdict.NOT_MANIFOLD_POINT
    if nonreduced_real_points == 0:
        return Verdict.MANIFOLD_POINT_AT_SINGULARITY
    return Verdict.NOT_MANIFOLD_POINT


def translate_ideal(i: IdealPresentation, point: Sequence) -> IdealPresentation:
    return ideal(i.variables, (g.translate(point) for g in i.generators))


def classify_point(
    i: IdealPresentation,
    point: Sequence,
    *,
    assume_radical: bool = False,
    max_depth: int = 6,
) -> Classification:
    """Decide whether a rational point of V(i) is a manifold point.

    Raises PointNotOnVariety when the point misses the variety; everything
    else that can go wrong is reported as an inconclusive classification with
    the reason recorded in the certificate.
    """
    if not is_on_variety(i, point):
        raise PointNotOnVariety(f"point {tuple(point)} is not on V(I)")
    at_origin = translate_ideal(i, point)

    cert = radicality_certificate(at_origin)
    if not cert.known:
        if assume_radical:
            cert = USER_ASSERTED_RADICALITY
        else:
            return Classification(
                Verdict.INCONCLUSIVE,
                Certificate(
                    cert,
                    None,
                    False,
                    None,
                    None,
                    "radicality not certified; rerun with assume_radical "
                    "if the ideal is known to be radical",
                ),
            )

    # resolve_curve checks the dimension once and takes the smooth shortcut
    try:
        model: SmoothModel = resolve_curve(
            at_origin, max_depth, certificate=cert, assume_radical=assume_radical
        )
        if model.depth == 0:
            return Classification(
                Verdict.SMOOTH_MANIFOLD_POINT,
                Certificate(cert, 1, True, 0, None, "jacobian has full codimension rank"),
            )
        summary = fiber_summary(model)
    except NotACurve as exc:
        return Classification(
            Verdict.INCONCLUSIVE,
            Certificate(cert, exc.dimension, False, None, None, str(exc)),
        )
    except DepthExceeded as exc:
        return Classification(
            Verdict.INCONCLUSIVE,
            Certificate(cert, 1, False, exc.max_depth, None, str(exc)),
        )
    except IrrationalSingularFiberPoint as exc:
        return Classification(
            Verdict.INCONCLUSIVE,
            Certificate(cert, 1, False, None, None, str(exc)),
        )

    verdict = decide_from_fiber(summary.real_points, summary.nonreduced_real_points)
    return Classification(
        verdict,
        Certificate(cert, 1, False, model.depth, summary, _explain(verdict, summary)),
    )


def _explain(verdict: Verdict, fiber: FiberSummary) -> str:
    r, nr = fiber.real_points, fiber.nonreduced_real_points
    if verdict is Verdict.ISOLATED_POINT:
        return "no real point on the resolved fiber"
    if verdict is Verdict.MANIFOLD_POINT_AT_SINGULARITY:
        return "exactly one real fiber point and it is reduced"
    if r >= 2:
        return f"{r} real fiber points (one analytic branch per point)"
    return "the unique real fiber point is non-reduced"
