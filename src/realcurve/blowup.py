"""Iterated point blow-ups of curves and their exceptional fibers.

One chart map, _charts, blows up a chart at a rational center: it moves the
center to the origin, then chart k substitutes x_i -> x_k * x_i^ for i != k
and divides out the exceptional divisor x_k by saturation, giving the strict
transform on that chart.  Each chart records pullback expressions for every
ORIGINAL ambient variable, carried through the same translation and
substitution at every level, so the scheme-theoretic fiber over the original
point is always available as

    strict transform + pullbacks of the original variables.

Charts of one blow-up overlap; to count each geometric fiber point exactly
once, a point is attributed to the chart of its first nonzero homogeneous
coordinate.  Chart k realizes this with the linear constraints
x_0^ = ... = x_{k-1}^ = 0, and those constraints are composed down the chain
exactly like the pullbacks.

Resolution recurses: whenever the strict transform is singular at a rational
point of the dedup-restricted fiber, the chart is blown up again at that
point, through its reduced strict basis rather than the generators its
saturation left.  Leaves are certified smooth along their restricted fiber
inside the finite-dimensional fiber algebra A = Q[x]/(restricted fiber): the
codimension-sized jacobian minors of the strict transform, reduced into A
and multiplied there, must generate all of A.  In an Artinian ring an ideal
is proper exactly when its elements share a zero, so this is the statement
that the singular-locus ideal plus the fiber ideal is the unit ideal, a
certificate over the complex numbers and not merely at real points.  No
minor is ever expanded as a polynomial, and the scan stops at the first
minors that fill A.  When they do not, the quotient of A by them is the
singular fiber's algebra, and the next centers are its rational points.  A
leaf keeps A for the point counts; its non-reduced points are read off one
algebra of its full fiber, by quotients too, with no other Groebner basis.

A chart is certified or blown up again only when its restricted fiber holds
a point.  Its fiber algebra is built first, from the strict generators and
the composed pullbacks and constraints, before the chart has a strict basis;
when the reduced basis of that fiber ideal is {1}, an exact certificate that
the fiber is empty, the chart is dropped without a strict basis, a pullback
check or a leaf.  This is sound because the restricted fibers of the charts
partition the fiber over the original point: a dropped chart adds nothing to
the real or complex counts, and its non-reduced locus, cut by the same
constraints, is empty too, so no sum in fiber_summary moves.  Emptiness is
decided over the original point, never over the chart's own center: below
the root a chart can miss its center and still carry a point of an earlier
blow-up.  Nor does skipping the checks hide anything: a pullback check only
catches a strict ideal that is too small, and a smaller ideal can only
enlarge a fiber, never empty one.

Every counted chart is checked twice.  Saturation checks its strict basis
against the substituted generators of the ideal it blew up
(SaturationResult.basis), so every kept chart is checked against its own
blow-up.  By induction those checks put the original generators, pulled back
along a composed chart, into its strict ideal, since ring maps compose and a
translation is an automorphism; they cannot see a slip in how _charts carries
the pullbacks from one level to the next.  So each leaf below the root is
also checked once against the original ideal along its composed pullbacks;
inner charts, blown up again and never counted, are not.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import (
    DepthExceeded,
    DimensionUnknown,
    IrrationalSingularFiberPoint,
    NotACurve,
    OriginNotOnVariety,
)
from .groebner import GroebnerBasis, normal_form
from .ideals import IdealPresentation, SaturationResult, basis_dimension, ideal, saturate
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
    algebra_of,
    count_points,
    nonreduced_quotient,
    rational_points,
)

Q = Fraction


@dataclass(frozen=True)
class BlowupChart:
    """One chart of an (iterated) blow-up.

    pullbacks[i] expresses original variable i in this chart's coordinates;
    dedup_constraints select first-nonzero-coordinate representatives, both
    carried through every chart map on the way here.  depth counts the
    blow-ups performed.  Chart k of a blow-up has exceptional divisor
    chart_variables.names[k]; the identity chart, the root of every
    resolution, has depth 0 and chart_index -1.

    Two computed companions ride along without taking part in comparisons:
    strict_basis, the reduced GREVLEX basis of strict_ideal that saturation
    produced and checked against the ideal blown up (the charts of
    blowup_origin and the kept charts of a resolution carry it), and
    fiber_algebra, the restricted fiber algebra a certified leaf was checked
    in.
    """

    chart_index: int
    chart_variables: VariableSet
    strict_ideal: IdealPresentation
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
    """Each generator of original, pulled back along the composed chart, must reduce to 0.

    The strict basis was already checked against the ideal its own blow-up
    started from (SaturationResult.basis); this checks the pullbacks composed
    through every chart map since the original.
    """
    target, pullbacks = chart.chart_variables, list(chart.pullbacks)
    for g in original.generators:
        if not normal_form(ring_map(g, target, pullbacks), chart.strict_basis).is_zero():
            raise AssertionError("pullback of a generator escapes the strict ideal")


def _charts(
    state: BlowupChart, center: Sequence[Fraction]
) -> Iterator[tuple[BlowupChart, SaturationResult]]:
    """Chart by chart, the blow-up of state at a rational center, before any strict basis.

    The strict generators, pullbacks and dedup constraints of state are
    translated once, moving center to the origin, where every strict
    generator must vanish (OriginNotOnVariety otherwise).  Chart k
    substitutes x_i -> x_k * x_i^ for i != k in all of them, saturates the
    substituted generators by x_k and appends its own constraints
    x_0^, ..., x_{k-1}^.  Each chart comes with that saturation, whose basis,
    checked against the substituted generators, is computed on first use.
    """
    variables = state.chart_variables
    n = len(variables)
    generators = [g.translate(center) for g in state.strict_ideal.generators]
    if any(g.constant_term() != 0 for g in generators):
        raise OriginNotOnVariety("a generator does not vanish at the center")
    pullbacks = [p.translate(center) for p in state.pullbacks]
    constraints = [q.translate(center) for q in state.dedup_constraints]
    # at the origin the identity chart's pullbacks, the variables, map to the images
    identity = state.chart_index == -1 and not any(center)
    for k in range(n):
        chart_vars = _hat_names(variables.names, k)
        exceptional = Polynomial.variable(chart_vars, k)
        images = [
            exceptional if idx == k else exceptional * Polynomial.variable(chart_vars, idx)
            for idx in range(n)
        ]

        def pull(polys: Sequence[Polynomial]) -> tuple[Polynomial, ...]:
            return tuple(ring_map(f, chart_vars, images) for f in polys)

        strict = saturate(ideal(chart_vars, pull(generators)), ideal(chart_vars, (exceptional,)))
        chart = BlowupChart(
            chart_index=k,
            chart_variables=chart_vars,
            strict_ideal=strict.ideal,
            pullbacks=tuple(images) if identity else pull(pullbacks),
            depth=state.depth + 1,
            dedup_constraints=pull(constraints)
            + tuple(Polynomial.variable(chart_vars, idx) for idx in range(k)),
        )
        yield chart, strict


def blowup_origin(i: IdealPresentation) -> list[BlowupChart]:
    """Blow up the origin: one chart per ambient variable.

    On chart k the substituted ideal is saturated with respect to the chart
    variable x_k, whose vanishing is the exceptional divisor.  Every chart
    carries its strict basis and has been checked against i.
    """
    charts = _charts(_identity_chart(i), [Q(0)] * len(i.variables))
    return [replace(chart, strict_basis=strict.basis) for chart, strict in charts]


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
    pullbacks = tuple(Polynomial.variable(i.variables, idx) for idx in range(len(i.variables)))
    return BlowupChart(
        chart_index=-1, chart_variables=i.variables, strict_ideal=i, pullbacks=pullbacks, depth=0
    )


def check_max_depth(max_depth) -> None:
    """Raise ValueError unless the blow-up depth limit is an int >= 0 (not a bool)."""
    if isinstance(max_depth, bool) or not isinstance(max_depth, int) or max_depth < 0:
        raise ValueError(f"max_depth must be a nonnegative integer, got {max_depth!r}")


def resolve_curve(
    i: IdealPresentation,
    max_depth: int = 6,
    *,
    certificate: RadicalityCertificate | None = None,
) -> SmoothModel:
    """Resolve the curve at the origin by iterated point blow-ups.

    Smooth input is tolerated: it returns a depth-0 model whose single chart
    is the identity (the jacobian criterion).  The certificate, computed when
    absent, supplies the dimension and must be known.
    Recursion only passes through rational singular fiber points; a
    non-rational one aborts with the zero-dimensional ideal that isolates it.
    """
    check_max_depth(max_depth)
    if certificate is None:
        certificate = radicality_certificate(i)
    if certificate.dimension != 1:
        raise NotACurve(certificate.dimension)
    if any(g.constant_term() != 0 for g in i.generators):
        raise OriginNotOnVariety("the origin is not on the variety")
    if not certificate.known:
        raise DimensionUnknown(
            "radicality not certified; classify_point(..., assume_radical=True) asserts it"
        )
    origin = [Q(0)] * len(i.variables)
    if rank_at(jacobian(i), origin) == len(origin) - 1:
        return SmoothModel((_identity_chart(i),))
    leaves: list[BlowupChart] = []
    _resolve_chart(_identity_chart(i), origin, max_depth, leaves, i)
    return SmoothModel(tuple(leaves))


def _resolve_chart(
    state: BlowupChart,
    center: Sequence[Fraction],
    max_depth: int,
    leaves: list[BlowupChart],
    original: IdealPresentation,
) -> None:
    if state.depth >= max_depth:
        raise DepthExceeded(max_depth)
    for chart, strict in _charts(state, center):
        algebra = _fiber_algebra(chart)
        if not algebra.dimension:
            # the reduced basis is {1}: no fiber point is counted on this chart
            continue
        chart = replace(chart, strict_basis=strict.basis)
        singular = _singular_fiber(chart, algebra)
        if singular is None:
            # a counted chart below the root: check the composed pullbacks
            # once; at the root the ideal blown up is the original one
            if state.depth > 0:
                _check_pullback_soundness(chart, original)
            leaves.append(replace(chart, fiber_algebra=algebra))
            continue
        points, all_rational = rational_points(singular)
        if not all_rational:
            raise IrrationalSingularFiberPoint(singular.ideal)
        # blow up the reduced strict basis: the same ideal as the saturation's
        # generators, whose coefficients can run to hundreds of bits
        basis = IdealPresentation(chart.chart_variables, chart.strict_basis.basis)
        _resolve_chart(replace(chart, strict_ideal=basis), points[0], max_depth, leaves, original)


def _fiber_algebra(chart: BlowupChart) -> ZeroDimAlgebra:
    """Q[x]/(restricted fiber); the zero algebra when that fiber is empty."""
    return algebra_of(fiber_ideal(chart, dedup=True))


def _singular_fiber(chart: BlowupChart, algebra: ZeroDimAlgebra) -> ZeroDimAlgebra | None:
    """Where the strict transform is singular on the restricted fiber.

    The quotient of the restricted fiber algebra by the codimension-sized
    jacobian minors, as elements of it: the algebra of singular locus plus
    fiber, whose ideal is the restricted fiber plus the normal forms of the
    minors that enlarged their ideal.  None when the strict transform is
    smooth there, i.e. when the minors generate the whole fiber algebra.
    """
    strict = chart.strict_ideal
    n = len(strict.variables)
    codim = n - basis_dimension(chart.strict_basis, n)
    entries = [[algebra.operator(p) for p in row] for row in jacobian(strict).entries]
    singular = algebra.quotient(minors(entries, n, codim))
    return singular if singular.dimension else None


def fiber_summary(model: SmoothModel) -> FiberSummary:
    """Point counts of the fiber over the original point, across all leaves.

    Real and complex counts use the dedup-restricted fiber so every geometric
    point lands in exactly one chart; leaves from the resolution bring that
    fiber's algebra along, so it is built only for charts that lack one.
    Non-reducedness is read off the algebra of the full fiber scheme
    (multiplicity is intrinsic): its non-reduced locus is its quotient by
    the annihilator of its nilradical, and that is restricted by the dedup
    constraints in the same quotient.  An empty fiber gives the zero
    algebra: reduced, no points.
    """
    real = complex_count = nonreduced_real = 0
    for chart in model.charts:
        algebra = chart.fiber_algebra
        if algebra is None:
            algebra = _fiber_algebra(chart)
        counts = count_points(algebra)
        real += counts.real_distinct
        complex_count += counts.complex_distinct
        full = algebra_of(fiber_ideal(chart, dedup=False))
        locus = nonreduced_quotient(full, chart.dedup_constraints)
        nonreduced_real += count_points(locus).real_distinct
    return FiberSummary(real, complex_count, nonreduced_real)
