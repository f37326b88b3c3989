"""Structure of zero-dimensional quotient algebras.

A zero-dimensional ideal has a finite-dimensional quotient; its standard
monomials (those outside the leading-term ideal) form a vector-space basis and
multiplication by each variable becomes a rational matrix.  Distinct complex
and real solution counts then come out of the Hermite trace form: its rank is
the number of distinct complex points and its signature the number of real
ones, both computed exactly.  Any element acts on the algebra by its own
multiplication matrix, so questions about the ideal some elements generate
(is it the whole algebra?) become echelon-form linear algebra.

In characteristic 0 the nilradical N of A = Q[x]/I is the kernel of the trace
form, so radical(I) is I plus the lifts of N, and the non-reduced locus
(I : radical(I)) is I plus the lifts of the annihilator of N; its variety
consists exactly of the points where the fiber scheme carries nilpotents.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd as int_gcd, isqrt
from typing import Iterable

from .errors import NotZeroDimensional
from .groebner import GroebnerBasis, normal_form
from .ideals import (
    IdealPresentation,
    groebner_basis,
    ideal,
    ideal_sum,
    quotient,  # unused here; bench/test_bench.py's binding-site test pins zerodim.quotient
)
from .linalg import RationalMatrix, UnivariatePolynomial, symmetric_signature, upoly
from .polynomials import GREVLEX, Exponent, Polynomial, monomial_divides

Q = Fraction


@dataclass(frozen=True)
class PointCounts:
    complex_distinct: int
    real_distinct: int


@dataclass(frozen=True)
class ZeroDimAlgebra:
    """Quotient algebra data: standard monomial basis and multiplication matrices."""

    ideal: IdealPresentation
    gb: GroebnerBasis
    basis: tuple[Exponent, ...]
    mult_matrices: tuple[RationalMatrix, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def operator(self, f: Polynomial) -> RationalMatrix:
        """Matrix of multiplication by f; column j holds f * basis[j]."""
        return _operator(self.gb, self.basis, f)

    def element(self, m: RationalMatrix) -> Polynomial:
        """The normal-form polynomial whose multiplication matrix is m."""
        # basis[0] is the monomial 1, so column 0 holds the coordinates of m * 1
        return self.lift(m.entries[:: m.cols])

    def lift(self, coordinates) -> Polynomial:
        """The normal-form polynomial with these coordinates in the basis."""
        return Polynomial.from_terms(self.ideal.variables, dict(zip(self.basis, coordinates)))


def _standard_monomials(gb: GroebnerBasis, n: int) -> list[Exponent]:
    lms = [g.leading_monomial(gb.order) for g in gb.basis]
    bounds = [None] * n
    for lm in lms:
        active = [(i, e) for i, e in enumerate(lm) if e]
        if len(active) == 1:
            i, e = active[0]
            if bounds[i] is None or e < bounds[i]:
                bounds[i] = e
    if any(b is None for b in bounds):
        raise NotZeroDimensional("leading-term ideal admits infinitely many standard monomials")
    out = [
        e
        for e in product(*(range(b) for b in bounds))
        if not any(monomial_divides(lm, e) for lm in lms)
    ]
    out.sort(key=GREVLEX.key)
    return out


def _operator(gb: GroebnerBasis, basis: tuple[Exponent, ...], f: Polynomial) -> RationalMatrix:
    index = {e: pos for pos, e in enumerate(basis)}
    d = len(basis)
    entries = [Q(0)] * (d * d)
    for j, e in enumerate(basis):
        shifted = f * Polynomial.from_terms(f.vars, {e: 1})
        for te, tc in normal_form(shifted, gb).terms.items():
            entries[index[te] * d + j] = tc
    return RationalMatrix(d, d, tuple(entries))


def build(i: IdealPresentation) -> ZeroDimAlgebra:
    """Assemble basis and commuting multiplication matrices for a 0-dim ideal.

    One GREVLEX basis serves both the algebra and the zero-dimensionality
    test; the unit ideal is rejected too, since it has no points.
    """
    gb = groebner_basis(i, GREVLEX)
    if gb.is_unit():
        raise NotZeroDimensional("the unit ideal is not zero-dimensional")
    return algebra_from_basis(i, gb)


def algebra_from_basis(i: IdealPresentation, gb: GroebnerBasis) -> ZeroDimAlgebra:
    """The algebra Q[x]/i from a reduced GREVLEX basis of i.

    The unit ideal gives the zero algebra, with no basis monomials; an ideal
    of positive dimension raises NotZeroDimensional.
    """
    n = len(i.variables)
    basis = () if gb.is_unit() else tuple(_standard_monomials(gb, n))
    matrices = [_operator(gb, basis, Polynomial.variable(i.variables, var)) for var in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if matrices[a] * matrices[b] != matrices[b] * matrices[a]:
                raise AssertionError("multiplication matrices fail to commute")
    return ZeroDimAlgebra(i, gb, basis, tuple(matrices))


def generating_operators(
    algebra: ZeroDimAlgebra, operators: Iterable[RationalMatrix]
) -> list[RationalMatrix] | None:
    """The operators that enlarge the ideal they generate, in scan order.

    The ideal generated by an element m is spanned by m * basis[j], the
    columns of its multiplication matrix, so the ideals of the scanned
    elements accumulate in one echelon form.  Returns None, and stops
    scanning, as soon as that ideal is the whole algebra; the zero algebra
    returns None before consuming anything.
    """
    d = algebra.dimension
    if d == 0:
        return None
    pivots: list[tuple[int, list[Fraction]]] = []
    enlarging: list[RationalMatrix] = []
    for m in operators:
        grew = False
        for j in range(d):
            vec = list(m.entries[j :: d])
            for col, pvec in pivots:
                if vec[col]:
                    f = vec[col]
                    vec = [a - f * b for a, b in zip(vec, pvec)]
            nz = next((idx for idx, v in enumerate(vec) if v), None)
            if nz is None:
                continue
            pivots.append((nz, [v / vec[nz] for v in vec]))
            grew = True
            if len(pivots) == d:
                return None
        if grew:
            enlarging.append(m)
    return enlarging


def _monomial_operator_traces(algebra: ZeroDimAlgebra) -> dict[Exponent, Fraction]:
    """Trace of multiplication by each basis monomial, by chained products."""
    d = algebra.dimension
    mats: dict[Exponent, RationalMatrix] = {}
    traces: dict[Exponent, Fraction] = {}
    for e in algebra.basis:  # grevlex-ascending, so divisors come first
        if not any(e):
            mats[e] = RationalMatrix.identity(d)
        else:
            var = next(i for i, x in enumerate(e) if x)
            parent = list(e)
            parent[var] -= 1
            mats[e] = mats[tuple(parent)] * algebra.mult_matrices[var]
        traces[e] = mats[e].trace()
    return traces


def trace_form(algebra: ZeroDimAlgebra) -> RationalMatrix:
    """Hermite bilinear form B[i][j] = Trace(multiplication by b_i * b_j)."""
    d = algebra.dimension
    traces = _monomial_operator_traces(algebra)
    nf_cache: dict[Exponent, Fraction] = {}

    def trace_of_monomial(e: Exponent) -> Fraction:
        got = traces.get(e)
        if got is not None:
            return got
        got = nf_cache.get(e)
        if got is not None:
            return got
        mono = Polynomial.from_terms(algebra.ideal.variables, {e: 1})
        nf = normal_form(mono, algebra.gb)
        val = sum((c * traces[te] for te, c in nf.terms.items()), Q(0))
        nf_cache[e] = val
        return val

    entries = []
    for i in range(d):
        for j in range(d):
            e = tuple(x + y for x, y in zip(algebra.basis[i], algebra.basis[j]))
            entries.append(trace_of_monomial(e))
    return RationalMatrix(d, d, tuple(entries))


def count_points(algebra: ZeroDimAlgebra) -> PointCounts:
    """Distinct complex and real point counts from the trace form.

    rank(B) counts distinct complex points and signature(B) the real ones
    (Hermite / Pedersen-Roy-Szpirglas).  Clearing denominators first is safe:
    a positive rescaling changes neither rank nor signature.
    """
    b = trace_form(algebra)
    den = 1
    for x in b.entries:
        den = den * x.denominator // int_gcd(den, x.denominator)
    if den != 1:
        b = RationalMatrix(b.rows, b.cols, tuple(x * den for x in b.entries))
    n_plus, n_minus = symmetric_signature(b)
    return PointCounts(complex_distinct=n_plus + n_minus, real_distinct=n_plus - n_minus)


def minimal_polynomial(m: RationalMatrix) -> UnivariatePolynomial:
    """Monic minimal polynomial via exact Krylov elimination on matrix powers."""
    d = m.rows
    if d == 0:
        return upoly([1])
    pivots: list[tuple[int, list[Fraction], list[Fraction]]] = []
    power = RationalMatrix.identity(d)
    for k in range(d + 1):
        vec = list(power.entries)
        combo = [Q(0)] * k + [Q(1)]  # current row represents sum(combo[j] * M^j)
        for col, pvec, pcombo in pivots:
            if vec[col]:
                f = vec[col] / pvec[col]
                vec = [a - f * b for a, b in zip(vec, pvec)]
                for j, c in enumerate(pcombo):
                    combo[j] -= f * c
        nz = next((idx for idx, v in enumerate(vec) if v), None)
        if nz is None:
            return upoly(combo)
        pivots.append((nz, vec, combo))
        power = power * m
    raise AssertionError("no minimal polynomial of degree <= dimension found")


def eliminant(algebra: ZeroDimAlgebra, var: int | str) -> UnivariatePolynomial:
    """Minimal polynomial of the multiplication-by-variable operator.

    Every coordinate (in the chosen position) of every solution is a root.
    """
    i = algebra.ideal.variables.index(var) if isinstance(var, str) else var
    return minimal_polynomial(algebra.mult_matrices[i])


def _with_lifts(algebra: ZeroDimAlgebra, vectors) -> IdealPresentation:
    # the ideal of Q[x] whose image in A is spanned by the given elements
    i = algebra.ideal
    return ideal_sum(i, ideal(i.variables, (algebra.lift(v) for v in vectors)))


def nonreduced_ideal(algebra: ZeroDimAlgebra) -> IdealPresentation | None:
    """(I : radical(I)) as I plus the annihilator of the nilradical N of A.

    The annihilator is the common kernel of the multiplication matrices of
    a basis of N.  None when N = 0: A is reduced (the zero algebra of an
    empty fiber included) and the quotient is the unit ideal.
    """
    nil = trace_form(algebra).kernel()
    if not nil:
        return None
    d = algebra.dimension
    stacked = tuple(x for n in nil for x in algebra.operator(algebra.lift(n)).entries)
    return _with_lifts(algebra, RationalMatrix(len(nil) * d, d, stacked).kernel())


def zerodim_radical(i: IdealPresentation) -> IdealPresentation:
    """I plus the nilradical of A = Q[x]/I, the kernel of the trace form.

    Raises NotZeroDimensional, through build, unless i is zero-dimensional.
    """
    algebra = build(i)
    return _with_lifts(algebra, trace_form(algebra).kernel())


def nonreduced_locus(i: IdealPresentation) -> IdealPresentation:
    """(I : radical(I)); vanishes exactly at the non-reduced fiber points.

    Raises NotZeroDimensional, through build, unless i is zero-dimensional.
    """
    locus = nonreduced_ideal(build(i))
    return ideal(i.variables, (Polynomial.one(i.variables),)) if locus is None else locus


# ---------------------------------------------------------------------------
# rational point extraction (for blow-up recursion centers)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    if n == 0:
        return []
    out = []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return sorted(out)


def rational_roots(p: UnivariatePolynomial) -> list[Fraction]:
    """All rational roots, by the rational root theorem on the primitive part."""
    if p.is_zero():
        raise ValueError("rational roots of the zero polynomial")
    coeffs = list(p.coefficients)
    den = 1
    for c in coeffs:
        den = den * c.denominator // int_gcd(den, c.denominator)
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    roots = []
    shift = 0
    while ints and ints[0] == 0:
        ints.pop(0)
        shift += 1
    if shift:
        roots.append(Q(0))
    if len(ints) <= 1:
        return roots
    for num in _divisors(ints[0]):
        for d in _divisors(ints[-1]):
            for cand in (Q(num, d), Q(-num, d)):
                if cand not in roots and p(cand) == 0:
                    roots.append(cand)
    return sorted(roots)


def rational_points(i: IdealPresentation) -> tuple[list[tuple[Fraction, ...]], bool]:
    """(rational points of V(i), flag: every complex point is rational).

    Candidates come from rational roots of the per-variable eliminants and are
    confirmed against all generators; comparing against the distinct complex
    point count certifies whether any non-rational point remains.
    """
    algebra = build(i)
    per_var = []
    for var in range(len(i.variables)):
        per_var.append(rational_roots(eliminant(algebra, var)))
    found = []
    for candidate in product(*per_var):
        if all(g.evaluate(candidate) == 0 for g in i.generators):
            found.append(candidate)
    found.sort()
    all_rational = len(found) == count_points(algebra).complex_distinct
    return found, all_rational
