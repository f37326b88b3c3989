"""Iterated point blow-ups of curves and their exceptional fibers.

A blow-up of the origin is computed chart by chart: chart k substitutes
x_i -> x_k * x_i^ for i != k and divides out the exceptional divisor x_k by
saturation, giving the strict transform on that chart.  Each chart records
pullback expressions for every ORIGINAL ambient variable, composed through
the whole chain of blow-ups and translations, so the scheme-theoretic fiber
over the original point is always available as

    strict transform + pullbacks of the original variables.

Charts of one blow-up overlap; to count each geometric fiber point exactly
once, a point is attributed to the chart of its first nonzero homogeneous
coordinate.  Chart k realizes this with the linear constraints
x_1^ = ... = x_{k-1}^ = 0, and those constraints are composed down the chain
exactly like the pullbacks.

Resolution recurses: whenever the strict transform is singular at a rational
point of the dedup-restricted fiber, that point is translated to the origin
and blown up again.  Leaves are certified smooth along their restricted fiber
inside the finite-dimensional fiber algebra A = Q[x]/(restricted fiber): the
codimension-sized jacobian minors of the strict transform, reduced into A
and multiplied there, must generate all of A.  In an Artinian ring an ideal
is proper exactly when its elements share a zero, so this is the statement
that the singular-locus ideal plus the fiber ideal is the unit ideal, a
certificate over the complex numbers and not merely at real points.  No
minor is ever expanded as a polynomial, and the scan stops at the first
minors that fill A.  A leaf keeps its fiber algebra for the point counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Sequence

from .errors import (
    DepthExceeded,
    DimensionUnknown,
    IrrationalSingularFiberPoint,
    NotACurve,
    OriginNotOnVariety,
)
from .groebner import GroebnerBasis, normal_form
from .ideals import (
    IdealPresentation,
    basis_dimension,
    groebner_basis,
    ideal,
    ideal_sum,
    krull_dimension,
    saturate,
)
from .polynomials import Polynomial, VariableSet, ring_map
from .singular import (
    RadicalityCertificate,
    jacobian,
    minors,
    radicality_certificate,
    rank_at,
)
from .zerodim import (
    ZeroDimAlgebra,
    algebra_from_basis,
    count_points,
    generating_operators,
    nonreduced_ideal,
    rational_points,
)

Q = Fraction


@dataclass(frozen=True)
class BlowupChart:
    """One chart of an (iterated) blow-up.

    pullbacks[i] expresses original variable i in this chart's coordinates;
    dedup_constraints select first-nonzero-coordinate representatives, both
    composed through every blow-up and translation on the way here.  depth
    counts the blow-ups performed; the identity chart of an unresolved smooth
    origin has depth 0 and no exceptional generator.

    Two computed companions ride along without taking part in comparisons:
    strict_basis, the reduced GREVLEX basis of strict_ideal that saturation
    produced (charts fresh from a blow-up carry it), and fiber_algebra, the
    restricted fiber algebra a certified leaf was checked in.
    """

    chart_index: int
    chart_variables: VariableSet
    strict_ideal: IdealPresentation
    exceptional_generator: str | None
    pullbacks: tuple[Polynomial, ...]
    depth: int
    dedup_constraints: tuple[Polynomial, ...] = ()
    strict_basis: GroebnerBasis | None = field(default=None, compare=False, repr=False)
    fiber_algebra: ZeroDimAlgebra | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class SmoothModel:
    """Leaves of a resolution tree, smooth along their restricted fibers."""

    charts: tuple[BlowupChart, ...]

    @property
    def depth(self) -> int:
        return max((c.depth for c in self.charts), default=0)


@dataclass(frozen=True)
class FiberSummary:
    real_points: int
    complex_points: int
    nonreduced_real_points: int


def _hat_names(names: Sequence[str], keep: int) -> VariableSet:
    out = []
    taken = set(names)
    for i, name in enumerate(names):
        if i == keep:
            out.append(name)
            continue
        candidate = name + "_h"
        while candidate in taken:
            candidate += "h"
        taken.add(candidate)
        out.append(candidate)
    return VariableSet(tuple(out))


def _check_pullback_soundness(chart: BlowupChart, original: IdealPresentation) -> None:
    # every original generator must land in the strict ideal once the chart
    # substitution is applied; violating this means the bookkeeping broke
    gb = chart.strict_basis
    for g in original.generators:
        image = ring_map(g, chart.chart_variables, list(chart.pullbacks))
        if gb.is_zero_ideal():
            if not image.is_zero():
                raise AssertionError("pullback of a generator escapes the strict ideal")
        elif not normal_form(image, gb).is_zero():
            raise AssertionError("pullback of a generator escapes the strict ideal")


def blowup_origin(i: IdealPresentation) -> list[BlowupChart]:
    """Blow up the origin: one chart per ambient variable.

    On chart k the substituted ideal is saturated with respect to the chart
    variable x_k, whose vanishing is the exceptional divisor.
    """
    n = len(i.variables)
    for g in i.generators:
        if g.constant_term() != 0:
            raise OriginNotOnVariety("a generator does not vanish at the origin")
    charts = []
    for k in range(n):
        chart_vars = _hat_names(i.variables.names, k)
        center = Polynomial.variable(chart_vars, k)
        images = [
            center if idx == k else center * Polynomial.variable(chart_vars, idx)
            for idx in range(n)
        ]
        substituted = ideal(chart_vars, (ring_map(g, chart_vars, images) for g in i.generators))
        strict = saturate(substituted, ideal(chart_vars, (center,)))
        chart = BlowupChart(
            chart_index=k,
            chart_variables=chart_vars,
            strict_ideal=strict.ideal,
            exceptional_generator=chart_vars.names[k],
            pullbacks=tuple(images),
            depth=1,
            dedup_constraints=tuple(
                Polynomial.variable(chart_vars, idx) for idx in range(k)
            ),
            strict_basis=strict.basis,
        )
        _check_pullback_soundness(chart, i)
        charts.append(chart)
    return charts


def fiber_ideal(chart: BlowupChart, dedup: bool) -> IdealPresentation:
    """Scheme-theoretic fiber over the original point on this chart.

    strict transform + pullbacks of every original variable, optionally cut
    down to first-nonzero-coordinate representatives.
    """
    gens = list(chart.strict_ideal.generators) + list(chart.pullbacks)
    if dedup:
        gens += list(chart.dedup_constraints)
    return ideal(chart.chart_variables, gens)


def _identity_chart(i: IdealPresentation) -> BlowupChart:
    return BlowupChart(
        chart_index=-1,
        chart_variables=i.variables,
        strict_ideal=i,
        exceptional_generator=None,
        pullbacks=tuple(
            Polynomial.variable(i.variables, idx) for idx in range(len(i.variables))
        ),
        depth=0,
    )


def resolve_curve(
    i: IdealPresentation,
    max_depth: int = 6,
    *,
    certificate: RadicalityCertificate | None = None,
    assume_radical: bool = False,
) -> SmoothModel:
    """Resolve the curve at the origin by iterated point blow-ups.

    Smooth input is tolerated: it returns a depth-0 model whose single chart
    is the identity (the jacobian criterion, with the one computed dimension).
    Recursion only passes through rational singular fiber points; a
    non-rational one aborts with the zero-dimensional ideal that isolates it.
    """
    dimension = krull_dimension(i)
    if dimension != 1:
        raise NotACurve(dimension)
    if certificate is None and not assume_radical:
        certificate = radicality_certificate(i)
    for g in i.generators:
        if g.constant_term() != 0:
            raise OriginNotOnVariety("the origin is not on the variety")
    if not assume_radical and not certificate.known:
        raise DimensionUnknown("radicality not certified; pass assume_radical to assert it")
    n = len(i.variables)
    if rank_at(jacobian(i), [Q(0)] * n) == n - 1:
        return SmoothModel((_identity_chart(i),))
    leaves: list[BlowupChart] = []
    identity = _identity_chart(i)
    _resolve_chart(i, identity, 0, max_depth, leaves, i)
    return SmoothModel(tuple(leaves))


def _compose_chart(previous: BlowupChart, chart: BlowupChart) -> BlowupChart:
    images = list(chart.pullbacks)
    target = chart.chart_variables
    return BlowupChart(
        chart_index=chart.chart_index,
        chart_variables=target,
        strict_ideal=chart.strict_ideal,
        exceptional_generator=chart.exceptional_generator,
        pullbacks=tuple(ring_map(p, target, images) for p in previous.pullbacks),
        depth=previous.depth + 1,
        dedup_constraints=tuple(ring_map(q, target, images) for q in previous.dedup_constraints)
        + chart.dedup_constraints,
        strict_basis=chart.strict_basis,
    )


def _translate_chart(chart: BlowupChart, point: Sequence[Fraction]) -> BlowupChart:
    return BlowupChart(
        chart_index=chart.chart_index,
        chart_variables=chart.chart_variables,
        strict_ideal=IdealPresentation(
            chart.chart_variables,
            tuple(g.translate(point) for g in chart.strict_ideal.generators),
        ),
        exceptional_generator=None,
        pullbacks=tuple(p.translate(point) for p in chart.pullbacks),
        depth=chart.depth,
        dedup_constraints=tuple(q.translate(point) for q in chart.dedup_constraints),
    )


def _resolve_chart(
    current: IdealPresentation,
    state: BlowupChart,
    depth: int,
    max_depth: int,
    leaves: list[BlowupChart],
    original: IdealPresentation,
) -> None:
    if depth >= max_depth:
        raise DepthExceeded(max_depth)
    for raw in blowup_origin(current):
        chart = _compose_chart(state, raw)
        _check_pullback_soundness(chart, original)
        algebra = _fiber_algebra(chart)
        singular = _singular_fiber(chart, algebra)
        if singular is None:
            leaves.append(replace(chart, fiber_algebra=algebra))
            continue
        points, all_rational = rational_points(singular)
        if not all_rational:
            raise IrrationalSingularFiberPoint(singular)
        center = points[0]
        moved = _translate_chart(chart, center)
        _resolve_chart(moved.strict_ideal, moved, depth + 1, max_depth, leaves, original)


def _algebra(i: IdealPresentation) -> ZeroDimAlgebra:
    """Q[x]/i from one GREVLEX basis; the zero algebra when i is the unit ideal."""
    return algebra_from_basis(i, groebner_basis(i))


def _fiber_algebra(chart: BlowupChart) -> ZeroDimAlgebra:
    """Q[x]/(restricted fiber); the zero algebra when that fiber is empty."""
    return _algebra(fiber_ideal(chart, dedup=True))


def _singular_fiber(chart: BlowupChart, algebra: ZeroDimAlgebra) -> IdealPresentation | None:
    """Where the strict transform is singular on the restricted fiber.

    None when it is smooth there, i.e. when the codimension-sized jacobian
    minors, as elements of the restricted fiber algebra, generate all of it.
    Otherwise the restricted fiber plus the normal forms of the minors that
    enlarged their ideal: the same ideal as singular locus plus fiber.
    """
    strict = chart.strict_ideal
    n = len(strict.variables)
    codim = n - basis_dimension(chart.strict_basis, n)
    entries = [[algebra.operator(p) for p in row] for row in jacobian(strict).entries]
    enlarging = generating_operators(algebra, minors(entries, n, codim))
    if enlarging is None:
        return None
    return ideal_sum(
        algebra.ideal, ideal(strict.variables, (algebra.element(m) for m in enlarging))
    )


def fiber_summary(model: SmoothModel) -> FiberSummary:
    """Point counts of the fiber over the original point, across all leaves.

    Real and complex counts use the dedup-restricted fiber so every geometric
    point lands in exactly one chart; leaves from the resolution bring that
    fiber's algebra along, so it is built only for charts that lack one.
    Non-reducedness is read off the algebra of the full fiber scheme first
    (multiplicity is intrinsic), as its ideal (I : radical(I)), and only then
    restricted.  An empty fiber gives the zero algebra: reduced, no points.
    """
    real = complex_count = nonreduced_real = 0
    for chart in model.charts:
        algebra = chart.fiber_algebra
        if algebra is None:
            algebra = _fiber_algebra(chart)
        counts = count_points(algebra)
        real += counts.real_distinct
        complex_count += counts.complex_distinct
        bad = nonreduced_ideal(_algebra(fiber_ideal(chart, dedup=False)))
        if bad is None:
            continue
        dedup = ideal(chart.chart_variables, chart.dedup_constraints)
        nonreduced_real += count_points(_algebra(ideal_sum(bad, dedup))).real_distinct
    return FiberSummary(real, complex_count, nonreduced_real)
