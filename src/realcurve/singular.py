"""Jacobian criterion machinery: singular loci and radicality certificates.

Radicality is only ever certified through sufficient conditions: a principal
ideal with squarefree generator, or a complete intersection whose singular
locus has strictly smaller dimension (which also certifies
equidimensionality).  Anything else reports Unknown and the caller must decide
whether to assert radicality explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterator, Sequence

from .errors import DimensionUnknown, PointNotOnVariety, RankTooLarge
from .ideals import IdealPresentation, ideal, ideal_sum, krull_dimension
from .linalg import RationalMatrix
from .polynomials import Polynomial, VariableSet, squarefree_part


@dataclass(frozen=True)
class JacobianMatrix:
    """Matrix of formal partials: rows follow generators, columns variables."""

    variables: "VariableSet"
    generators: tuple[Polynomial, ...]
    entries: tuple[tuple[Polynomial, ...], ...]

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.variables)


def jacobian(i: IdealPresentation) -> JacobianMatrix:
    rows = tuple(
        tuple(g.partial_derivative(v) for v in range(len(i.variables)))
        for g in i.generators
    )
    return JacobianMatrix(i.variables, i.generators, rows)


def rank_at(m: JacobianMatrix, point: Sequence) -> int:
    """Exact rank of the jacobian evaluated at a rational point."""
    if not m.entries:
        return 0
    evaluated = RationalMatrix.from_rows(
        [[p.evaluate(point) for p in row] for row in m.entries]
    )
    return evaluated.rank()


def _det(rows: list[list]):
    # Laplace expansion along the first row; entries need +, -, * and is_zero()
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    acc = None
    for j in range(n):
        if rows[0][j].is_zero():
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        term = rows[0][j] * _det(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    if acc is None:
        return rows[0][0]  # the whole first row is zero
    return acc


def minors(entries: Sequence[Sequence], cols: int, r: int) -> Iterator:
    """Every r x r minor of a matrix with the given column count, lazily.

    Row choices vary slowest, then column choices, each in lexicographic
    order.  Entries may lie in any commutative ring whose elements support
    +, -, * and is_zero(): polynomials, or the multiplication matrices of a
    zero-dimensional algebra.
    """
    if r > min(len(entries), cols):
        raise RankTooLarge(f"{r}x{r} minors of a {len(entries)}x{cols} matrix")
    for rows_sel in combinations(range(len(entries)), r):
        for cols_sel in combinations(range(cols), r):
            yield _det([[entries[i][j] for j in cols_sel] for i in rows_sel])


def minors_ideal(m: JacobianMatrix, r: int) -> IdealPresentation:
    """Ideal of all r x r minors, as expanded determinants."""
    variables = m.variables
    if r == 0:
        return ideal(variables, (Polynomial.one(variables),))
    gens = []
    seen = set()
    for det in minors(m.entries, m.cols, r):
        if det.is_zero():
            continue
        det = det.primitive()
        key = frozenset(det.terms.items())
        if key not in seen:
            seen.add(key)
            gens.append(det)
    return ideal(variables, gens)


def _equidimensionality_certified(i: IdealPresentation, dim: int) -> bool:
    # principal nonzero ideals are unmixed of codimension 1; complete
    # intersections are equidimensional by Cohen-Macaulay unmixedness
    if len(i.generators) == 1:
        return True
    return dim >= 0 and len(i.generators) == len(i.variables) - dim


def singular_locus_ideal(
    i: IdealPresentation, *, assume_equidimensional: bool = False
) -> IdealPresentation:
    """I plus the codimension-sized minors of its jacobian.

    Only meaningful for equidimensional ideals, so callers must either pass an
    ideal whose shape certifies that (principal, or a complete intersection)
    or explicitly assume it.
    """
    dim = krull_dimension(i)
    if dim == -1:
        return ideal(i.variables, (Polynomial.one(i.variables),))
    if not assume_equidimensional and not _equidimensionality_certified(i, dim):
        raise DimensionUnknown(
            "equidimensionality not certified; pass assume_equidimensional if known"
        )
    codim = len(i.variables) - dim
    return ideal_sum(i, minors_ideal(jacobian(i), codim))


class RadicalityVerdict(Enum):
    RADICAL_EQUIDIMENSIONAL = "RadicalEquidimensional"
    RADICAL = "Radical"
    UNKNOWN = "Unknown"


class RadicalityReason(Enum):
    PRINCIPAL_SQUAREFREE = "PrincipalSquarefree"
    COMPLETE_INTERSECTION_ZERO_DIM_SING_LOCUS = "CompleteIntersectionZeroDimSingLocus"
    USER_ASSERTED = "UserAsserted"
    NONE = "None"


@dataclass(frozen=True)
class RadicalityCertificate:
    verdict: RadicalityVerdict
    reason: RadicalityReason
    # populated by the complete-intersection route, handy for reports
    singular_locus_dimension: int | None = None

    @property
    def known(self) -> bool:
        return self.verdict is not RadicalityVerdict.UNKNOWN

    @property
    def covers_equidimensionality(self) -> bool:
        # a nonzero principal ideal is unmixed, so both certified reasons
        # imply equidimensionality
        return self.reason in (
            RadicalityReason.PRINCIPAL_SQUAREFREE,
            RadicalityReason.COMPLETE_INTERSECTION_ZERO_DIM_SING_LOCUS,
        )


UNKNOWN_RADICALITY = RadicalityCertificate(RadicalityVerdict.UNKNOWN, RadicalityReason.NONE)

USER_ASSERTED_RADICALITY = RadicalityCertificate(
    RadicalityVerdict.RADICAL, RadicalityReason.USER_ASSERTED
)


def radicality_certificate(i: IdealPresentation) -> RadicalityCertificate:
    """Sufficient radicality checks; Unknown when neither route applies."""
    gens = i.generators
    if len(gens) == 1:
        f = gens[0]
        if squarefree_part(f) == f.primitive():
            return RadicalityCertificate(
                RadicalityVerdict.RADICAL, RadicalityReason.PRINCIPAL_SQUAREFREE
            )
        return UNKNOWN_RADICALITY
    dim = krull_dimension(i)
    if dim >= 0 and len(gens) == len(i.variables) - dim:
        # a complete intersection: its codimension is its generator count
        sing = ideal_sum(i, minors_ideal(jacobian(i), len(gens)))
        sing_dim = krull_dimension(sing)
        if sing_dim < dim:
            return RadicalityCertificate(
                RadicalityVerdict.RADICAL_EQUIDIMENSIONAL,
                RadicalityReason.COMPLETE_INTERSECTION_ZERO_DIM_SING_LOCUS,
                singular_locus_dimension=sing_dim,
            )
    return UNKNOWN_RADICALITY


def is_on_variety(i: IdealPresentation, point: Sequence) -> bool:
    return all(g.evaluate(point) == 0 for g in i.generators)


def is_smooth_at(
    i: IdealPresentation,
    point: Sequence,
    *,
    certificate: RadicalityCertificate | None = None,
    assume_radical: bool = False,
) -> bool:
    """Jacobian criterion at a rational point of the variety.

    True iff the evaluated jacobian has rank equal to the codimension.  Valid
    only for radical equidimensional ideals, hence the certificate gate.
    """
    if not is_on_variety(i, point):
        raise PointNotOnVariety(f"point {tuple(point)} is not on the variety")
    if certificate is None:
        certificate = radicality_certificate(i)
    if not certificate.known and not assume_radical:
        raise DimensionUnknown(
            "radicality not certified; pass assume_radical to assert it"
        )
    dim = krull_dimension(i)
    return rank_at(jacobian(i), point) == len(i.variables) - dim
