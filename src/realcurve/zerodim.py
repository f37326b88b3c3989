"""Structure of zero-dimensional quotient algebras.

A zero-dimensional ideal has a finite-dimensional quotient; its standard
monomials (those outside the leading-term ideal) form a vector-space basis and
multiplication by each variable becomes a `RationalMatrix`: one positive
denominator times an integer matrix.  Those matrices need only the normal
forms of the border monomials x_v * b_j outside the basis; every other
product, the multiplication matrix of any element and the coordinates of
every b_i * b_j, comes from integer matrix products.  Distinct complex
and real solution counts then come out of the Hermite trace form: its rank is
the number of distinct complex points and its signature the number of real
ones, both read exactly off the pivots of one symmetric elimination.  Any
element acts on the algebra by its own multiplication matrix, so questions
about the ideal some elements generate (is it the whole algebra?) become
echelon-form linear algebra on integer vectors.

In characteristic 0 the nilradical N of A = Q[x]/I is the kernel of the trace
form, so radical(I) is I plus the lifts of N, and the non-reduced locus
(I : radical(I)) is I plus the lifts of the annihilator of N; its variety
consists exactly of the points where the fiber scheme carries nilpotents.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd, lcm, prod
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
from .linalg import (
    Z_RING,
    RationalMatrix,
    integer_product,
    isolate_real_roots,
    require_univariate,
    symmetric_signature,
)
from .polynomials import GREVLEX, Exponent, Polynomial, VariableSet, monomial_divides

Q = Fraction


@dataclass(frozen=True)
class PointCounts:
    complex_distinct: int
    real_distinct: int


@dataclass(frozen=True)
class ZeroDimAlgebra:
    """Quotient algebra data: standard monomial basis and multiplication matrices.

    `mult_matrices` holds the multiplication matrix M_v = N_v / den_v of
    each variable v, built once from the normal forms of the border
    monomials x_v * b_j outside the basis; a column whose x_v * b_j is a
    basis monomial is a unit vector.  algebra_of builds them to
    check that they commute.  They take no part in == or hash.
    """

    ideal: IdealPresentation
    gb: GroebnerBasis
    basis: tuple[Exponent, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @cached_property
    def mult_matrices(self) -> tuple[RationalMatrix, ...]:
        """M_v = N_v / den_v for each variable v, in the ring's order."""
        d = self.dimension
        index = {e: k for k, e in enumerate(self.basis)}
        border: dict[Exponent, tuple[int, dict[int, int]]] = {}  # shared by the variables
        out = []
        for v in range(len(self.ideal.variables)):
            columns = []  # x_v * b_j as (denominator, {row: numerator})
            for b in self.basis:
                e = b[:v] + (b[v] + 1,) + b[v + 1 :]
                if e in index:
                    columns.append((1, {index[e]: 1}))
                    continue
                if e not in border:
                    nf = normal_form(Polynomial(self.ideal.variables, {e: 1}), self.gb)
                    num, den_e = nf.content.numerator, nf.content.denominator
                    border[e] = (den_e, {index[t]: num * c for t, c in nf.terms.items()})
                columns.append(border[e])
            den = lcm(*(c for c, _ in columns))
            ints = [0] * (d * d)
            for j, (c, column) in enumerate(columns):
                for k, x in column.items():
                    ints[k * d + j] = x * (den // c)
            out.append(RationalMatrix(d, d, ints, den))
        return tuple(out)

    def monomial_image(self, e: Exponent, cache: dict) -> tuple[int, list[int]]:
        """(den, N) with N / den the multiplication matrix of x^e, den = prod den_v^e_v.

        cache maps exponents to the images already made; each new image is
        one integer product N_v * N(e - e_v).  The images are lists that
        live as long as the cache, which each caller owns.
        """
        d = self.dimension
        if not cache:
            cache[(0,) * len(e)] = (1, [int(i == j) for i in range(d) for j in range(d)])
        steps = []
        below = e
        while below not in cache:
            v = next(i for i, k in enumerate(below) if k)
            steps.append(v)
            below = below[:v] + (below[v] - 1,) + below[v + 1 :]
        for v in reversed(steps):
            den, ints = cache[below]
            m_v = self.mult_matrices[v]
            below = below[:v] + (below[v] + 1,) + below[v + 1 :]
            cache[below] = (den * m_v.den, integer_product(m_v.ints, ints, d, d, d))
        return cache[e]

    def operator(self, f: Polynomial) -> RationalMatrix:
        """Matrix of multiplication by f; column j holds f * basis[j].

        It is the sum of c_e * M^e over the terms of f, on integer matrices
        over the common denominator prod_v den_v^(degree of f in v).
        """
        d = self.dimension
        den = prod(m.den ** max(f.degree_in(v), 0) for v, m in enumerate(self.mult_matrices))
        cache: dict = {}
        acc = [0] * (d * d)
        for e, c in f.terms.items():
            den_e, ints = self.monomial_image(e, cache)
            c *= den // den_e
            acc = [x + c * y for x, y in zip(acc, ints)]
        q = f.content
        return RationalMatrix(d, d, [q.numerator * x for x in acc], den * q.denominator)

    def element(self, m: RationalMatrix) -> Polynomial:
        """The normal-form polynomial whose multiplication matrix is m."""
        # basis[0] is the monomial 1, so column 0 holds the coordinates of m * 1
        return self.lift(Q(x, m.den) for x in m.ints[:: m.cols])

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


def build(i: IdealPresentation) -> ZeroDimAlgebra:
    """Assemble basis and commuting multiplication matrices for a 0-dim ideal.

    The unit ideal is rejected too, since it has no points.
    """
    algebra = algebra_of(i)
    if algebra.gb.is_unit():
        raise NotZeroDimensional("the unit ideal is not zero-dimensional")
    return algebra


def algebra_of(i: IdealPresentation) -> ZeroDimAlgebra:
    """The algebra Q[x]/i, from one reduced GREVLEX basis of i.

    The unit ideal gives the zero algebra, with no basis monomials; an ideal
    of positive dimension raises NotZeroDimensional.  The multiplication
    matrices are built here, and must commute: N_a N_b == N_b N_a.
    """
    gb = groebner_basis(i, GREVLEX)
    n = len(i.variables)
    basis = () if gb.is_unit() else tuple(_standard_monomials(gb, n))
    algebra = ZeroDimAlgebra(i, gb, basis)
    d = len(basis)
    images = [m.ints for m in algebra.mult_matrices]
    for a in range(n):
        for b in range(a + 1, n):
            if integer_product(images[a], images[b], d, d, d) != integer_product(
                images[b], images[a], d, d, d
            ):
                raise AssertionError("multiplication matrices fail to commute")
    return algebra


def generating_operators(
    algebra: ZeroDimAlgebra, operators: Iterable[RationalMatrix]
) -> list[RationalMatrix] | None:
    """The operators that enlarge the ideal they generate, in scan order.

    The ideal generated by an element m is spanned by m * basis[j], the
    columns of its multiplication matrix, so the ideals of the scanned
    elements accumulate in one echelon form of the integer columns, each
    kept primitive.  Returns None, and stops scanning, as soon as that
    ideal is the whole algebra; the zero algebra returns None before
    consuming anything.
    """
    d = algebra.dimension
    if d == 0:
        return None
    pivots: list[tuple[int, list[int]]] = []
    enlarging: list[RationalMatrix] = []
    for m in operators:
        grew = False
        ints = m.ints
        for j in range(d):
            vec = ints[j::d]
            for col, pvec in pivots:
                f = vec[col]
                if f:
                    p = pvec[col]
                    vec = [p * a - f * b for a, b in zip(vec, pvec)]
            nz = next((idx for idx, v in enumerate(vec) if v), None)
            if nz is None:
                continue
            g = gcd(*vec)
            pivots.append((nz, [v // g for v in vec] if g > 1 else list(vec)))
            grew = True
            if len(pivots) == d:
                return None
        if grew:
            enlarging.append(m)
    return enlarging


def trace_form(algebra: ZeroDimAlgebra) -> RationalMatrix:
    """Hermite bilinear form B[i][j] = Trace(multiplication by b_i * b_j).

    Column j of the matrix M^(b_i) of b_i holds the coordinates c_ij of
    b_i * b_j, and Trace(b_k) is the trace of M^(b_k), so B[i][j] is
    sum_k c_ij[k] * Trace(b_k) by linearity.  With M^(b_i) = N_i / D_i
    and L = lcm(D_i), Trace(b_k) = T_k / L for an integer T_k, and row i
    of B is the integer vector T^T N_i over D_i * L, so B is integral
    over L².
    """
    basis, d = algebra.basis, algebra.dimension
    cache: dict = {}
    images = [algebra.monomial_image(b, cache) for b in basis]
    common = lcm(*(den for den, _ in images))
    weights = [sum(ints[:: d + 1]) * (common // den) for den, ints in images]
    ints = [0] * (d * d)
    for i, (den, n_i) in enumerate(images):
        row = integer_product(weights, n_i, 1, d, d)
        scale = common // den
        for j in range(i, d):
            ints[i * d + j] = ints[j * d + i] = row[j] * scale
    return RationalMatrix(d, d, ints, common * common)


def count_points(algebra: ZeroDimAlgebra) -> PointCounts:
    """Distinct complex and real point counts from the trace form.

    rank(B) counts distinct complex points and signature(B) the real ones
    (Hermite / Pedersen-Roy-Szpirglas).  One symmetric elimination of B
    gives both: n_plus + n_minus is the rank and n_plus - n_minus the
    signature.
    """
    n_plus, n_minus = symmetric_signature(trace_form(algebra))
    return PointCounts(complex_distinct=n_plus + n_minus, real_distinct=n_plus - n_minus)


def minimal_polynomial(m: RationalMatrix) -> Polynomial:
    """Monic minimal polynomial in Z_RING, from one kernel of matrix powers.

    The columns of the (d^2) x (d+1) matrix are vec(I), vec(M), ...,
    vec(M^d).  The first kernel vector belongs to the first column M^k that
    lies in the span of the columns before it, and it is 1 at k and 0 beyond,
    so its entries are the coefficients of the monic minimal polynomial.
    """
    powers = [RationalMatrix.identity(m.rows)]
    for _ in range(m.rows):
        powers.append(powers[-1] * m)
    den = lcm(*(p.den for p in powers))
    columns = [[x * (den // p.den) for x in p.ints] for p in powers]
    stacked = [x for row in zip(*columns) for x in row]
    coefficients = RationalMatrix(m.rows * m.rows, m.rows + 1, stacked, den).kernel()[0]
    return Polynomial.from_terms(Z_RING, {(j,): c for j, c in enumerate(coefficients)})


def eliminant(algebra: ZeroDimAlgebra, var: int | str) -> Polynomial:
    """Minimal polynomial of the multiplication-by-variable operator.

    It lives in the one-variable ring named after var.  Every coordinate (in
    the chosen position) of every solution is a root.
    """
    names = algebra.ideal.variables.names
    i = names.index(var) if isinstance(var, str) else var
    mu = minimal_polynomial(algebra.mult_matrices[i])
    return Polynomial(VariableSet.of(names[i]), mu.terms, mu.content)


def _with_lifts(algebra: ZeroDimAlgebra, vectors) -> IdealPresentation:
    # the ideal of Q[x] whose image in A is spanned by the given elements
    i = algebra.ideal
    return ideal_sum(i, ideal(i.variables, (algebra.lift(v) for v in vectors)))


def nonreduced_ideal(algebra: ZeroDimAlgebra) -> IdealPresentation | None:
    """(I : radical(I)) as I plus the annihilator of the nilradical N of A.

    The annihilator is the common kernel of the multiplication matrices of
    a basis of N; scaling each matrix's block of rows by its denominator
    leaves that kernel as it is.  None when N = 0: A is reduced (the zero
    algebra of an empty fiber included) and the quotient is the unit ideal.
    """
    nil = trace_form(algebra).kernel()
    if not nil:
        return None
    d = algebra.dimension
    stacked = [x for n in nil for x in algebra.operator(algebra.lift(n)).ints]
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


def rational_roots(p: Polynomial) -> list[Fraction]:
    """All rational roots of a one-variable p, in increasing order.

    Let lc be the leading coefficient of the primitive integer terms of p.
    A rational root n/d of p in lowest terms has d dividing lc (rational
    root theorem), and two distinct fractions with denominators at most lc
    lie at least 1/lc² apart.  Sturm bisection narrows each real root of p
    into an interval (a, b] shorter than 1/(2·lc²), so a rational root lies
    within 1/(4·lc²) of the midpoint and is the fraction nearest to it with
    denominator at most lc, `limit_denominator(lc)`.  That candidate counts
    only if p vanishes there exactly and it lies in (a, b]: near an
    irrational root it can be the root of a neighbouring interval.  A p of
    degree 1, c1·x + c0, has the one root -c0/c1 and needs no Sturm chain.
    Raises ValueError for p = 0.
    """
    require_univariate(p)
    if p.is_zero():
        raise ValueError("rational roots of the zero polynomial")
    top = p.degree_in(0)
    if top == 1:
        return [Q(-p.terms.get((0,), 0), p.terms[(1,)])]
    lc = abs(p.terms[(top,)])
    roots = []
    for a, b in isolate_real_roots(p, Q(1, 2 * lc * lc)):
        candidate = ((a + b) / 2).limit_denominator(lc)
        if a < candidate <= b and p.evaluate((candidate,)) == 0:
            roots.append(candidate)
    return roots


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
