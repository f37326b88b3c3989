"""Shared helpers: compact constructors for polynomials and ideals."""

from __future__ import annotations

import math
import random
import signal
from collections import Counter
from fractions import Fraction

import pytest

from realcurve import IdealPresentation, Polynomial, VariableSet
from realcurve.ideals import ideal
from realcurve.linalg import RationalMatrix
from realcurve.parsing import parse_polynomial
from realcurve.polynomials import MonomialOrder

Q = Fraction


def varset(names: str) -> VariableSet:
    return VariableSet(tuple(n.strip() for n in names.split(",")))


def poly(text: str, names: str = "x,y") -> Polynomial:
    return parse_polynomial(text, varset(names))


def zpoly(coeffs, name: str = "z") -> Polynomial:
    """The one-variable polynomial with these coefficients, lowest degree first."""
    return Polynomial.from_terms(VariableSet.of(name), {(k,): c for k, c in enumerate(coeffs)})


def make_ideal(names: str, *gens: str) -> IdealPresentation:
    vs = varset(names)
    return ideal(vs, tuple(parse_polynomial(g, vs) for g in gens))


def _grevlex_tuple(e: tuple) -> tuple:
    return (sum(e), tuple(-v for v in reversed(e)))


def reference_order_key(order: MonomialOrder, e: tuple) -> tuple:
    """The monomial order as a tuple key, as the package defined it before packed keys."""
    if order.kind == "grevlex":
        return _grevlex_tuple(e)
    if order.kind == "lex":
        return e
    k = order.split
    return (_grevlex_tuple(e[:k]), _grevlex_tuple(e[k:]))


def fraction_matrix(rows: int, cols: int, entries) -> RationalMatrix:
    """The rows x cols matrix with these row-major rational entries."""
    entries = [Q(x) for x in entries]
    den = math.lcm(*(x.denominator for x in entries))
    return RationalMatrix(rows, cols, [x.numerator * (den // x.denominator) for x in entries], den)


def reference_product(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """a * b entry by entry in Fractions, as the package computed it before integer matrices."""
    n, m, k = a.rows, b.cols, a.cols
    out = [Q(0)] * (n * m)
    for i in range(n):
        for t in range(k):
            c = a.entries[i * k + t]
            if c:
                for j in range(m):
                    out[i * m + j] += c * b.entries[t * m + j]
    return fraction_matrix(n, m, out)


def reference_kernel(m: RationalMatrix) -> list[tuple[Fraction, ...]]:
    """A kernel basis by Gauss-Jordan elimination in Fractions (pivots scaled to 1)."""
    rows = [list(m.row(i)) for i in range(m.rows)]
    pivots: list[int] = []
    for col in range(m.cols):
        r = len(pivots)
        pivot = next((k for k in range(r, m.rows) if rows[k][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for k in range(m.rows):
            if k != r and rows[k][col]:
                f = rows[k][col]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
        pivots.append(col)
    basis = []
    for col in sorted(set(range(m.cols)) - set(pivots)):
        v = [Q(0)] * m.cols
        v[col] = Q(1)
        for r, p in enumerate(pivots):
            v[p] = -rows[r][col]
        basis.append(tuple(v))
    return basis


def reference_congruence_signature(m: RationalMatrix) -> tuple[int, int]:
    """(n_plus, n_minus) from a symmetric elimination in Fractions.

    Any nonzero diagonal entry of the active block is the pivot; an all-zero
    diagonal with a[p][k] != 0 first adds row and column k to row and column p.
    """
    a = [list(m.row(i)) for i in range(m.rows)]
    active = list(range(m.rows))
    n_plus = n_minus = 0
    while active:
        p = next((i for i in active if a[i][i]), None)
        if p is None:
            pk = next(((i, k) for i in active for k in active if a[i][k]), None)
            if pk is None:
                break
            p, k = pk
            row = a[p] = [x + y for x, y in zip(a[p], a[k])]
            row[p] += row[k]
            for i in active:
                a[i][p] = row[i]
        pivot = a[p]
        if pivot[p] > 0:
            n_plus += 1
        else:
            n_minus += 1
        active.remove(p)
        for i in active:
            f = a[i][p] / pivot[p]
            if f:
                for j in active:
                    a[i][j] -= f * pivot[j]
    return n_plus, n_minus


def reference_operator(algebra, f: Polynomial) -> RationalMatrix:
    """Multiplication by f on the algebra, one normal form per basis monomial."""
    from realcurve.groebner import normal_form
    from realcurve.ideals import groebner_basis

    gb = groebner_basis(algebra.ideal)
    index = {e: k for k, e in enumerate(algebra.basis)}
    d = algebra.dimension
    entries = [Q(0)] * (d * d)
    for j, e in enumerate(algebra.basis):
        nf = normal_form(f * Polynomial(f.vars, {e: 1}), gb)
        for te, tc in nf.terms.items():
            entries[index[te] * d + j] = nf.content * tc
    return fraction_matrix(d, d, entries)


def reference_trace_form(algebra) -> RationalMatrix:
    """B[i][j] = Trace(b_i * b_j), from the normal forms of the products b_i * b_j."""
    from realcurve.groebner import normal_form
    from realcurve.ideals import groebner_basis

    gb = groebner_basis(algebra.ideal)
    basis, d = algebra.basis, algebra.dimension
    index = {e: k for k, e in enumerate(basis)}

    def coordinates(e) -> dict[int, Fraction]:
        if e in index:
            return {index[e]: Q(1)}
        nf = normal_form(Polynomial.from_terms(algebra.ideal.variables, {e: 1}), gb)
        return {index[te]: nf.content * c for te, c in nf.terms.items()}

    table = [[coordinates(tuple(x + y for x, y in zip(a, b))) for b in basis] for a in basis]
    traces = [sum((row[j].get(j, 0) for j in range(d)), Q(0)) for row in table]
    entries = (sum((c * traces[k] for k, c in cell.items()), Q(0)) for row in table for cell in row)
    return fraction_matrix(d, d, entries)


def reference_characteristic_polynomial(m: RationalMatrix) -> Polynomial:
    """det(z*Id - M) in Q[z], by the Faddeev-LeVerrier recurrence.

    The recurrence only ever divides traces by small integers, which is exact
    over the rationals.
    """
    n = m.rows
    ident = RationalMatrix.identity(n).entries
    coeffs = [Q(0)] * n + [Q(1)]
    a, c = RationalMatrix.zero(n, n), Q(1)
    for k in range(1, n + 1):
        shifted = fraction_matrix(n, n, [x + c * e for x, e in zip(a.entries, ident)])
        a = reference_product(m, shifted)
        c = -sum(a.at(i, i) for i in range(n)) / k
        coeffs[n - k] = c
    return zpoly(coeffs)


def reference_signature(m: RationalMatrix) -> tuple[int, int]:
    """(n_plus, n_minus) by Descartes' rule on the characteristic polynomial.

    All eigenvalues of a symmetric matrix are real, so the rule is exact,
    multiplicities included.  Zero eigenvalues show up as missing low-degree
    terms, which count for neither sign.
    """

    def variations(signs: list[int]) -> int:
        return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)

    # ascending degree; flipping the odd degrees gives the signs of p(-z)
    terms = sorted(reference_characteristic_polynomial(m).terms.items())
    n_plus = variations([c for _, c in terms])
    n_minus = variations([c * (-1) ** e[0] for e, c in terms])
    return n_plus, n_minus


def random_elementary_product(
    rng: random.Random, n: int, steps: int
) -> tuple[RationalMatrix, RationalMatrix]:
    """(P, P^-1) for P a product of random integer elementary matrices.

    Each factor swaps two rows or adds an integer multiple of one row to
    another; P^-1 is the product of the inverse factors in reverse order.
    """
    p = p_inv = RationalMatrix.identity(n)
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        e = [[int(r == c) for c in range(n)] for r in range(n)]
        e_inv = [row[:] for row in e]
        if rng.random() < 0.3:
            e[i], e[j] = e[j], e[i]
            e_inv = e
        else:
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            e[i][j], e_inv[i][j] = c, -c
        p = RationalMatrix.from_rows(e) * p
        p_inv = p_inv * RationalMatrix.from_rows(e_inv)
    return p, p_inv


def block_diagonal(blocks: list[list[list]]) -> RationalMatrix:
    n = sum(len(b) for b in blocks)
    rows = []
    offset = 0
    for b in blocks:
        for row in b:
            rows.append([0] * offset + list(row) + [0] * (n - offset - len(row)))
        offset += len(b)
    return RationalMatrix.from_rows(rows) if rows else RationalMatrix.zero(0, 0)


def reference_resolve_curve(i: IdealPresentation, max_depth: int = 6):
    """resolve_curve as it ran before charts with an empty restricted fiber were dropped.

    Every chart of every blow-up gets its strict basis and its pullback
    checks, and is certified or blown up again through the raw generators of
    its saturation; every smooth one is a leaf, the charts that hold no fiber
    point included.  The singular points come from an algebra that
    Buchberger builds anew for the singular fiber's ideal, not from the
    quotient of the fiber algebra.
    """
    from dataclasses import replace

    from realcurve import blowup
    from realcurve.errors import DepthExceeded, IrrationalSingularFiberPoint
    from realcurve.singular import jacobian, rank_at
    from realcurve.zerodim import build, rational_points

    origin = [Q(0)] * len(i.variables)
    if rank_at(jacobian(i), origin) == len(origin) - 1:
        return blowup.SmoothModel((blowup._identity_chart(i),))
    leaves = []

    def resolve(state, center):
        if state.depth >= max_depth:
            raise DepthExceeded(max_depth)
        for chart, strict in blowup._charts(state, center):
            chart = replace(chart, strict_basis=strict.basis)
            if state.depth > 0:
                blowup._check_pullback_soundness(chart, i)
            algebra = blowup._fiber_algebra(chart)
            singular = blowup._singular_fiber(chart, algebra)
            if singular is None:
                leaves.append(replace(chart, fiber_algebra=algebra))
                continue
            points, all_rational = rational_points(build(singular.ideal))
            if not all_rational:
                raise IrrationalSingularFiberPoint(singular.ideal)
            resolve(chart, points[0])

    resolve(blowup._identity_chart(i), origin)
    return blowup.SmoothModel(tuple(leaves))


# Six distinct factors of a surface in Q[x, y, z].  A recursive
# pseudo-remainder gcd ran for minutes on the squarefree part of their
# product with the second factor squared.
SURFACE_FACTORS = (
    "x + y + z - 1",
    "x - 2y + 3z",
    "y - x - 2x^2 - 1",
    "2x + y - z + 3",
    "3x - y + 2z + 1",
    "x + 3y - 2",
)
SURFACE_WITH_A_SQUARE = "*".join(f"({t})" for t in SURFACE_FACTORS + SURFACE_FACTORS[1:2])


@pytest.fixture
def node() -> IdealPresentation:
    return make_ideal("x,y", "y^2 - x^2 - x^3")


@pytest.fixture
def cusp() -> IdealPresentation:
    return make_ideal("x,y", "y^2 - x^3")


@pytest.fixture
def buchberger_inputs(monkeypatch) -> Counter:
    """How often each (generators, order) input reaches Buchberger from here on."""
    import realcurve.ideals as ideals_module

    calls: Counter = Counter()
    original = ideals_module.buchberger

    def counting(gens, order):
        calls[tuple(gens), str(order)] += 1
        return original(gens, order)

    monkeypatch.setattr(ideals_module, "buchberger", counting)
    return calls


@pytest.fixture
def hang_guard():
    """Fail a test that runs past 30 s instead of letting it hang (needs SIGALRM)."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def on_alarm(signum, frame):
        pytest.fail("over the 30 s limit", pytrace=False)

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(30)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
