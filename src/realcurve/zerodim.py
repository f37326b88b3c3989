"""Structure of zero-dimensional quotient algebras.

A zero-dimensional ideal has a finite-dimensional quotient; its standard
monomials (those outside the leading-term ideal) form a vector-space basis and
multiplication by each variable becomes a `RationalMatrix`: one positive
denominator times an integer matrix.  algebra_of builds those matrices from
one reduced GREVLEX basis, and needs only the normal forms of the border
monomials x_v * b_j outside the basis; every other product, the
multiplication matrix of any element and the coordinates of every b_i * b_j,
comes from integer matrix products.  Distinct complex and real solution
counts then come out of the Hermite trace form: its rank is the number of
distinct complex points and its signature the number of real ones, both read
exactly off the pivots of one symmetric elimination.

The columns of an element's multiplication matrix span the ideal it
generates, so the quotient by the ideal some elements generate comes from
one integer echelon (`linalg.echelon_insert`), with no Groebner basis
(ZeroDimAlgebra.quotient); so do the minimal polynomials behind eliminants.
In characteristic 0 the nilradical N of A = Q[x]/I is the kernel of the
trace form, so Q[x]/radical(I) is A/N, and the non-reduced locus
(I : radical(I)) is A over the annihilator of N: its points are exactly
those where the fiber scheme carries nilpotents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations, product
from math import lcm, prod
from typing import Iterable

from .errors import NotZeroDimensional
from .groebner import GroebnerBasis, normal_form
from .ideals import (
    IdealPresentation,
    groebner_basis,
    ideal,
    quotient,  # unused here; bench/test_bench.py's binding-site test pins zerodim.quotient
)
from .linalg import (
    Z_RING,
    RationalMatrix,
    echelon_insert,
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
    """Q[x]/ideal as a standard monomial basis and its multiplication matrices.

    basis lists the standard monomials of the ideal in increasing GREVLEX
    order, so the monomial 1 is basis[0] unless the algebra is zero.
    mult_matrices holds the multiplication matrix M_v = N_v / den_v of each
    variable v, in the ring's order; column j holds the coordinates of
    x_v * b_j.  algebra_of builds them from a reduced basis of the ideal,
    quotient projects them onto a quotient's basis, and both check that they
    commute.
    """

    ideal: IdealPresentation
    basis: tuple[Exponent, ...]
    mult_matrices: tuple[RationalMatrix, ...] = field(repr=False)

    @property
    def dimension(self) -> int:
        return len(self.basis)

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

    def lift(self, coordinates) -> Polynomial:
        """The normal-form polynomial with these coordinates in the basis."""
        return Polynomial.from_terms(self.ideal.variables, dict(zip(self.basis, coordinates)))

    def quotient(self, operators: Iterable[RationalMatrix]) -> ZeroDimAlgebra:
        """A/J, for J the ideal of A generated by the elements with these matrices.

        The columns m * b_j of the operators m span J.  They go into one
        echelon in reversed coordinates, so a row's pivot is its largest
        nonzero index: its leading GREVLEX monomial.  The other basis
        monomials are then the standard monomials of the ideal I' of Q[x]
        that maps onto J, and clearing a vector's pivot entries by their
        rows gives its normal form mod I', which projects each M_v.  I' is
        presented as I plus the normal forms of the elements that enlarged
        J.  The scan stops once J is all of A, so the zero algebra consumes
        no operator.
        """
        d = self.dimension
        reversed_rows: dict[int, list[int]] = {}
        enlarging = []
        for m in operators if d else ():
            size = len(reversed_rows)
            for j in range(d):
                if len(reversed_rows) == d:
                    break
                echelon_insert(reversed_rows, m.ints[j::d][::-1])
            if len(reversed_rows) > size:
                # basis[0] is the monomial 1, so column 0 holds the element m * 1
                enlarging.append(self.lift(Q(x, m.den) for x in m.ints[::d]))
            if len(reversed_rows) == d:
                break
        gens = ideal(self.ideal.variables, self.ideal.generators + tuple(enlarging))
        rows = {d - 1 - p: row[::-1] for p, row in reversed_rows.items()}
        kept = [k for k in range(d) if k not in rows]
        if not kept:
            return self._zero(gens)
        # column c holds the coordinates of the normal form of b_c mod I'
        den = lcm(*(row[p] for p, row in rows.items()))
        projection = [
            -rows[c][k] * (den // rows[c][c]) if c in rows else den * (c == k)
            for k in kept
            for c in range(d)
        ]
        project = RationalMatrix(len(kept), d, projection, den)
        include = RationalMatrix(d, len(kept), [int(r == c) for r in range(d) for c in kept])
        matrices = tuple(project * m * include for m in self.mult_matrices)
        return _commuting(ZeroDimAlgebra(gens, tuple(self.basis[k] for k in kept), matrices))

    def _zero(self, i: IdealPresentation) -> ZeroDimAlgebra:
        # the zero algebra of a quotient of A, presented by the ideal i
        return ZeroDimAlgebra(i, (), (RationalMatrix.zero(0, 0),) * len(self.mult_matrices))


def _commuting(algebra: ZeroDimAlgebra) -> ZeroDimAlgebra:
    # the algebra, once its multiplication matrices pass N_a N_b == N_b N_a
    d = algebra.dimension
    for a, b in combinations([m.ints for m in algebra.mult_matrices], 2):
        if integer_product(a, b, d, d, d) != integer_product(b, a, d, d, d):
            raise AssertionError("multiplication matrices fail to commute")
    return algebra


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


def _mult_matrices(
    gb: GroebnerBasis, variables: VariableSet, basis: tuple[Exponent, ...]
) -> tuple[RationalMatrix, ...]:
    # M_v from the normal forms of the border monomials x_v * b_j outside the
    # basis, shared by the variables; a column whose x_v * b_j is a basis
    # monomial is a unit vector
    d = len(basis)
    index = {e: k for k, e in enumerate(basis)}
    border: dict[Exponent, tuple[int, dict[int, int]]] = {}
    out = []
    for v in range(len(variables)):
        columns = []  # x_v * b_j as (denominator, {row: numerator})
        for b in basis:
            e = b[:v] + (b[v] + 1,) + b[v + 1 :]
            if e in index:
                columns.append((1, {index[e]: 1}))
                continue
            if e not in border:
                nf = normal_form(Polynomial(variables, {e: 1}), gb)
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


def build(i: IdealPresentation) -> ZeroDimAlgebra:
    """Assemble basis and commuting multiplication matrices for a 0-dim ideal.

    The unit ideal is rejected too, since it has no points.
    """
    algebra = algebra_of(i)
    if not algebra.dimension:
        raise NotZeroDimensional("the unit ideal is not zero-dimensional")
    return algebra


def algebra_of(i: IdealPresentation) -> ZeroDimAlgebra:
    """The algebra Q[x]/i, from one reduced GREVLEX basis of i.

    The unit ideal gives the zero algebra, with no basis monomials; an ideal
    of positive dimension raises NotZeroDimensional.  The multiplication
    matrices are built here, and must commute.
    """
    gb = groebner_basis(i, GREVLEX)
    basis = () if gb.is_unit() else tuple(_standard_monomials(gb, len(i.variables)))
    return _commuting(ZeroDimAlgebra(i, basis, _mult_matrices(gb, i.variables, basis)))


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
    """Monic minimal polynomial in Z_RING, from the first dependent power of M.

    vec(M^k) followed by den(M^k) * e_k goes into one echelon for k = 0, 1,
    ..., so each row is vec(sum c_j M^j) followed by the c_j.  The first M^k
    in the span of the powers before it leaves a row with matrix part 0: a
    dependency sum c_j M^j = 0 with c_k != 0 and nothing beyond k, c_k times
    the minimal polynomial.  So only deg mu powers of M are formed.
    """
    d, rows, power = m.rows, {}, RationalMatrix.identity(m.rows)
    for k in range(d + 1):
        pivot = echelon_insert(rows, power.ints + (0,) * k + (power.den,) + (0,) * (d - k))
        if pivot >= d * d:
            break
        power = power * m
    c = rows[pivot][d * d :]
    return Polynomial.from_terms(Z_RING, {(j,): Q(x, c[k]) for j, x in enumerate(c)})


def eliminant(algebra: ZeroDimAlgebra, var: int | str) -> Polynomial:
    """Minimal polynomial of the multiplication-by-variable operator.

    It lives in the one-variable ring named after var.  Every coordinate (in
    the chosen position) of every solution is a root.
    """
    names = algebra.ideal.variables.names
    i = names.index(var) if isinstance(var, str) else var
    mu = minimal_polynomial(algebra.mult_matrices[i])
    return Polynomial(VariableSet.of(names[i]), mu.terms, mu.content)


def _operators(algebra: ZeroDimAlgebra, vectors) -> Iterable[RationalMatrix]:
    # the multiplication matrices of the elements with these coordinates
    return (algebra.operator(algebra.lift(v)) for v in vectors)


def nonreduced_quotient(algebra: ZeroDimAlgebra, cut: Iterable[Polynomial] = ()) -> ZeroDimAlgebra:
    """The algebra of the non-reduced locus (I : radical(I)), cut by more polynomials.

    The image of (I : radical(I)) in A is the annihilator of the nilradical
    N: the common kernel of the multiplication matrices of a basis of N;
    scaling each matrix's block of rows by its denominator leaves that kernel
    as it is.  When N = 0 (the zero algebra of an empty fiber included) the
    annihilator is A and the quotient is the zero algebra.  It is returned
    at once, presented as quotient would present it: by I plus the unit
    element, or by I alone when A is already zero.
    """
    nil = trace_form(algebra).kernel()
    d = algebra.dimension
    if not nil:
        unit = (Polynomial.one(algebra.ideal.variables),) if d else ()
        return algebra._zero(ideal(algebra.ideal.variables, algebra.ideal.generators + unit))
    stacked = [x for m in _operators(algebra, nil) for x in m.ints]
    annihilator = RationalMatrix(len(nil) * d, d, stacked).kernel()
    elements = chain(_operators(algebra, annihilator), (algebra.operator(f) for f in cut))
    return algebra.quotient(elements)


def zerodim_radical(i: IdealPresentation) -> IdealPresentation:
    """I plus the nilradical of A = Q[x]/I, the kernel of the trace form.

    Raises NotZeroDimensional, through build, unless i is zero-dimensional.
    """
    algebra = build(i)
    return algebra.quotient(_operators(algebra, trace_form(algebra).kernel())).ideal


def nonreduced_locus(i: IdealPresentation) -> IdealPresentation:
    """(I : radical(I)); vanishes exactly at the non-reduced fiber points.

    Raises NotZeroDimensional, through build, unless i is zero-dimensional.
    """
    return nonreduced_quotient(build(i)).ideal


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


def rational_points(algebra: ZeroDimAlgebra) -> tuple[list[tuple[Fraction, ...]], bool]:
    """(rational points of the algebra's variety, flag: every complex point is rational).

    Candidates are the rational roots of the per-variable eliminants that
    satisfy every generator of its ideal; the distinct complex point count
    certifies whether any non-rational point remains.
    """
    gens = algebra.ideal.generators
    per_var = [rational_roots(eliminant(algebra, v)) for v in range(len(algebra.mult_matrices))]
    found = sorted(c for c in product(*per_var) if all(g.evaluate(c) == 0 for g in gens))
    return found, len(found) == count_points(algebra).complex_distinct
