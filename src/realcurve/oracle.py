"""Half-branch counting by exact intersection with small spheres.

An independent cross-check for the decider: intersect the curve with spheres
of shrinking rational radius around the point and count real intersection
points via the trace form.  Each real analytic half-branch meets every small
enough sphere exactly once, so the count stabilizes at twice the number of
branches.  There is no effective bound for "small enough", hence the
stabilization rule: accept once two consecutive radii agree.

Oracle results never feed back into the decision path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import NoStabilization, NotACurve, PointNotOnVariety
from .ideals import IdealPresentation, ideal, is_unit_ideal, krull_dimension
from .polynomials import Polynomial
from .singular import is_on_variety
from .zerodim import build, count_points

Q = Fraction

DEFAULT_RADII = tuple(Q(1, 2**k) for k in range(1, 9))


@dataclass(frozen=True)
class SphereProbe:
    center: tuple[Fraction, ...]
    radius: Fraction
    probe_ideal: IdealPresentation


def sphere_probe(i: IdealPresentation, point: Sequence, radius) -> SphereProbe:
    """The curve plus the sphere of the given radius around the point."""
    radius = Q(radius)
    coords = tuple(Q(c) for c in point)
    n = len(i.variables)
    sphere = Polynomial.constant(i.variables, -(radius**2))
    for idx in range(n):
        delta = Polynomial.variable(i.variables, idx) - Polynomial.constant(
            i.variables, coords[idx]
        )
        sphere = sphere + delta * delta
    return SphereProbe(coords, radius, ideal(i.variables, i.generators + (sphere,)))


def halfbranch_count(
    i: IdealPresentation,
    point: Sequence,
    radii: Sequence[Fraction] | None = None,
) -> int:
    """Real points on shrinking spheres around the point, once stabilized.

    Degenerate radii (probe not zero-dimensional) are skipped; running out of
    radii without two consecutive agreeing counts raises NoStabilization.
    """
    if not is_on_variety(i, point):
        raise PointNotOnVariety(f"point {tuple(point)} is not on V(I)")
    dimension = krull_dimension(i)
    if dimension != 1:
        raise NotACurve(dimension)
    schedule = DEFAULT_RADII if radii is None else tuple(Q(r) for r in radii)
    previous: int | None = None
    for radius in schedule:
        probe = sphere_probe(i, point, radius)
        if is_unit_ideal(probe.probe_ideal):
            current = 0
        else:
            if krull_dimension(probe.probe_ideal) != 0:
                continue  # degenerate radius
            current = count_points(build(probe.probe_ideal)).real_distinct
        if previous is not None and current == previous:
            return current
        previous = current
    raise NoStabilization(
        f"no two consecutive radii agreed within {len(schedule)} probes"
    )
