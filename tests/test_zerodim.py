"""Zero-dimensional algebras: bases, point counts, eliminants, radicals."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from realcurve import Polynomial
from realcurve.errors import NotZeroDimensional
from realcurve.ideals import ideal_equal, is_unit_ideal
from realcurve.linalg import isolate_real_roots
from realcurve.polynomials import rename_variables
from realcurve.zerodim import (
    build,
    count_points,
    eliminant,
    nonreduced_locus,
    rational_points,
    zerodim_radical,
)

from conftest import (
    block_diagonal,
    fraction_matrix,
    make_ideal,
    poly,
    random_elementary_product,
    reference_characteristic_polynomial,
    varset,
    zpoly,
)

Q = Fraction


def test_build_monomial_square():
    a = build(make_ideal("x,y", "x^2", "y^2"))
    assert set(a.basis) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert a.dimension == 4


def test_build_univariate_in_disguise():
    a = build(make_ideal("t,y", "t", "y^3 + 2y"))
    assert set(a.basis) == {(0, 0), (0, 1), (0, 2)}


def test_build_single_point():
    a = build(make_ideal("x,y", "x - 1", "y - 2"))
    assert a.basis == ((0, 0),)
    assert a.mult_matrices[0].entries == (Q(1),)
    assert a.mult_matrices[1].entries == (Q(2),)


def test_build_rejects_curves():
    with pytest.raises(NotZeroDimensional):
        build(make_ideal("x,y", "y^2 - x^3"))


def test_count_two_real_points():
    counts = count_points(build(make_ideal("t,y", "t", "y^2 - 1")))
    assert (counts.complex_distinct, counts.real_distinct) == (2, 2)


def test_count_conjugate_pair():
    counts = count_points(build(make_ideal("t,y", "t", "y^2 + 1")))
    assert (counts.complex_distinct, counts.real_distinct) == (2, 0)


def test_count_mixed_cubic():
    counts = count_points(build(make_ideal("t,y", "t", "y(y^2 + 2)")))
    assert (counts.complex_distinct, counts.real_distinct) == (3, 1)


def test_eliminant_transfers_relation():
    a = build(make_ideal("x,y", "x^2 - 2", "y - x"))
    assert eliminant(a, "y") == zpoly([-2, 0, 1], "y")


def test_eliminant_single_variable():
    a = build(make_ideal("x", "x - 5"))
    assert eliminant(a, "x") == zpoly([-5, 1], "x")


def test_eliminant_nilpotent():
    a = build(make_ideal("t,y", "t", "y^2"))
    assert eliminant(a, "y") == zpoly([0, 0, 1], "y")


def test_radical_strips_nilpotents():
    rad = zerodim_radical(make_ideal("t,y", "t", "y^2"))
    assert ideal_equal(rad, make_ideal("t,y", "t", "y"))


def test_radical_fixes_radical_ideals():
    i = make_ideal("t,y", "t", "y^2 - 1")
    assert ideal_equal(zerodim_radical(i), i)


def test_radical_of_fat_point():
    assert ideal_equal(
        zerodim_radical(make_ideal("x,y", "x^2", "y^2")), make_ideal("x,y", "x", "y")
    )


def test_nonreduced_locus_of_fat_point():
    out = nonreduced_locus(make_ideal("t,y", "t", "y^2"))
    assert ideal_equal(out, make_ideal("t,y", "t", "y"))


def test_nonreduced_locus_empty_for_radical():
    assert is_unit_ideal(nonreduced_locus(make_ideal("t,y", "t", "y^2 - 1")))


def test_reduced_algebra_reaches_the_zero_algebra_without_echelon_or_operator(monkeypatch):
    # N = 0: the annihilator is all of A, so the quotient is the zero algebra
    # of I + <1>, exactly as the quotient by the unit element presents it
    from realcurve import zerodim
    from realcurve.zerodim import ZeroDimAlgebra, nonreduced_quotient

    a = build(make_ideal("x,y", "x^2 - 1", "y - x"))
    expected = a.quotient([a.operator(poly("1"))])
    cut = [poly("x - 1")]

    def forbidden(*args):
        raise AssertionError("the reduced case reached the echelon or an operator")

    monkeypatch.setattr(zerodim, "echelon_insert", forbidden)
    monkeypatch.setattr(ZeroDimAlgebra, "operator", forbidden)
    out = nonreduced_quotient(a, cut)
    assert out.ideal.generators == a.ideal.generators + (poly("1"),)
    assert (out.ideal, out.basis, out.mult_matrices) == (
        expected.ideal,
        expected.basis,
        expected.mult_matrices,
    )


def test_nonreduced_locus_mixed():
    # y^2*(y^2+1): primary components <y^2> and <y^2+1>; only y=0 among the
    # real points carries multiplicity
    out = nonreduced_locus(make_ideal("t,y", "t", "y^2(y^2 + 1)"))
    assert count_points(build(out)).real_distinct == 1


def test_rank_dim_radicality_relation():
    i_rad = make_ideal("t,y", "t", "y^2 - 1")
    i_fat = make_ideal("t,y", "t", "y^2")
    a_rad, a_fat = build(i_rad), build(i_fat)
    assert count_points(a_rad).complex_distinct == a_rad.dimension
    assert count_points(a_fat).complex_distinct < a_fat.dimension
    assert ideal_equal(zerodim_radical(i_rad), i_rad)
    assert not ideal_equal(zerodim_radical(i_fat), i_fat)


def test_counts_insensitive_to_nilpotents():
    i = make_ideal("x,y", "x^3", "y^2 - x")
    rad = zerodim_radical(i)
    assert count_points(build(i)) == count_points(build(rad))


def test_mult_matrices_commute():
    a = build(make_ideal("x,y", "x^2 + y - 1", "y^2 - x"))
    mx, my = a.mult_matrices
    assert mx * my == my * mx


def _random_univariate(rng: random.Random):
    degree = rng.randint(1, 5)
    coeffs = [Q(rng.randint(-6, 6)) for _ in range(degree)] + [Q(rng.randint(1, 4))]
    return zpoly(coeffs, "y")


def test_trace_form_agrees_with_sturm():
    # univariate-in-disguise ideals <t, f(y)>: the trace-form real count must
    # equal the Sturm count of f
    rng = random.Random(43)
    vs = varset("t,y")
    done = 0
    while done < 25:
        f = _random_univariate(rng)
        if f.degree_in(0) < 1:
            continue
        lifted = rename_variables(f, vs)
        i = make_ideal("t,y", "t")
        i = type(i)(i.variables, i.generators + (lifted,))
        counts = count_points(build(i))
        assert counts.real_distinct == len(isolate_real_roots(f, Q(1)))
        done += 1


TRACE_FORM_IDEALS = [
    ("x,y", "x^2", "y^2"),
    ("x,y", "x^2 - 2", "y^2 - x"),
    ("x,y", "x^2 - 2", "y^2 - 3"),
    ("x,y", "y^2 - x^3", "x*y", "x^4"),
    ("x,y", "3x^2 - 1", "2y^3 - x*y + 2"),
    ("x,y,z", "x^2 - y", "y^2 - z", "z^2 - x"),
    ("x,y,z", "x^2", "y^2 - x*z", "z^2 + y - 1"),
]


@pytest.mark.parametrize("gens", TRACE_FORM_IDEALS, ids=lambda g: "; ".join(g[1:]))
def test_trace_form_entries_are_traces_of_products(gens):
    from realcurve.zerodim import trace_form

    a = build(make_ideal(*gens))
    b = trace_form(a)
    assert b.rows == b.cols == a.dimension > 1
    for i, bi in enumerate(a.basis):
        for j, bj in enumerate(a.basis):
            product = Polynomial.from_terms(
                a.ideal.variables, {tuple(x + y for x, y in zip(bi, bj)): 1}
            )
            m = a.operator(product)
            assert b.at(i, j) == sum(m.at(k, k) for k in range(m.rows))


@pytest.mark.parametrize("gens", TRACE_FORM_IDEALS, ids=lambda g: "; ".join(g[1:]))
def test_structure_constants_match_normal_forms(gens):
    from realcurve.zerodim import trace_form

    from conftest import reference_operator, reference_trace_form

    a = build(make_ideal(*gens))
    assert trace_form(a) == reference_trace_form(a)
    for f in (poly("x"), poly("x^3 y - 2/5 y^2 + 7"), poly("(x + 2y - 1/3)^4")):
        f = rename_variables(f, a.ideal.variables)
        assert a.operator(f) == reference_operator(a, f)


def test_minimal_polynomial_annihilates_and_divides_charpoly():
    import random as _random

    from realcurve.groebner import normal_form
    from realcurve.linalg import RationalMatrix
    from realcurve.zerodim import minimal_polynomial

    rng = _random.Random(61)
    for _ in range(10):
        n = rng.randint(1, 4)
        m = RationalMatrix.from_rows(
            [[Q(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        )
        mu = minimal_polynomial(m)
        # evaluate mu at the matrix
        acc = RationalMatrix.zero(n, n)
        power = RationalMatrix.identity(n)
        for k in range(mu.degree_in(0) + 1):
            c = mu.content * mu.terms.get((k,), 0)
            if c:
                acc = fraction_matrix(
                    n, n, [a + c * b for a, b in zip(acc.entries, power.entries)]
                )
            power = power * m
        assert all(x == 0 for x in acc.entries)
        # and it divides the characteristic polynomial
        assert normal_form(reference_characteristic_polynomial(m), [mu]).is_zero()


# pairwise coprime factors, irreducible over Q, lowest degree first:
# z - 1, z + 2, z, z^2 + 1, z^2 - 2
MINPOLY_FACTORS = ([-1, 1], [2, 1], [0, 1], [1, 0, 1], [-2, 0, 1])


def _companion(p: Polynomial) -> list[list]:
    # the companion matrix of a monic p of degree n >= 1; its minimal polynomial is p
    n = p.degree_in(0)
    low = [p.content * p.terms.get((k,), 0) for k in range(n)]
    return [[int(r == c + 1) for c in range(n - 1)] + [-low[r]] for r in range(n)]


def _with_known_minimal_polynomial(rng: random.Random):
    # a matrix similar to a block diagonal of companion matrices, and its
    # minimal polynomial: the lcm of the blocks' polynomials
    from realcurve.linalg import RationalMatrix

    blocks, top = [], [0] * len(MINPOLY_FACTORS)
    for _ in range(rng.randint(0, 3)):
        powers = [rng.choice((0, 0, 0, 1, 2)) for _ in MINPOLY_FACTORS]
        p = zpoly([1])
        for f, k in zip(MINPOLY_FACTORS, powers):
            p = p * zpoly(f) ** k
        if not 0 < p.degree_in(0) <= 6 - sum(len(b) for b in blocks):
            continue
        blocks.append(_companion(p))
        top = [max(a, b) for a, b in zip(top, powers)]
    expected = zpoly([1])
    for f, k in zip(MINPOLY_FACTORS, top):
        expected = expected * zpoly(f) ** k
    n = sum(len(b) for b in blocks)
    p, p_inv = random_elementary_product(rng, n, 2 * n)
    assert p * p_inv == RationalMatrix.identity(n)
    return p * block_diagonal(blocks) * p_inv, expected


def test_minimal_polynomial_by_construction():
    from realcurve.zerodim import minimal_polynomial

    rng = random.Random(67)
    for _ in range(120):
        m, expected = _with_known_minimal_polynomial(rng)
        assert minimal_polynomial(m) == expected


def test_minimal_polynomial_forms_only_the_powers_it_needs(monkeypatch):
    # M, M^2, ..., M^(deg mu): one matrix product per power, and none past
    # the first dependent one.  A matrix similar to diag(A, A) has A's
    # minimal polynomial, of degree at most half its size
    from realcurve.linalg import RationalMatrix
    from realcurve.zerodim import minimal_polynomial

    multiply = RationalMatrix.__mul__
    products = 0

    def counted(a, b):
        nonlocal products
        products += 1
        return multiply(a, b)

    rng = random.Random(73)
    below = 0
    for _ in range(60):
        a, expected = _with_known_minimal_polynomial(rng)
        n = 2 * a.rows
        p, p_inv = random_elementary_product(rng, n, 2 * n)
        rows = [a.row(i) for i in range(a.rows)]
        m = p * block_diagonal([rows, rows]) * p_inv
        products = 0
        with monkeypatch.context() as patch:
            patch.setattr(RationalMatrix, "__mul__", counted)
            assert minimal_polynomial(m) == expected
        assert products == expected.degree_in(0)
        below += expected.degree_in(0) < m.rows
    assert below >= 30


def test_rational_points_found_and_certified():
    pts, all_rational = rational_points(build(make_ideal("x,y", "x^2 - x", "y - x")))
    assert pts == [(Q(0), Q(0)), (Q(1), Q(1))]
    assert all_rational


def test_rational_points_detect_irrational():
    pts, all_rational = rational_points(build(make_ideal("x,y", "x^2 - 2", "y")))
    assert pts == []
    assert not all_rational


def test_rational_points_of_large_height(hang_guard):
    # two points with 30-digit coordinates, one of them fractional
    a, b, c = 10**29 + 7, 3 * 10**29 + 11, 10**30 - 3
    i = make_ideal("x,y", f"(x - {a})*(7x - {b})", f"y - {c}x - 1")
    pts, all_rational = rational_points(build(i))
    assert pts == sorted([(Q(a), Q(c * a + 1)), (Q(b, 7), Q(c * b, 7) + 1)])
    assert all_rational
    # x = a is rational and x = a +- sqrt(2) / 10^30 are not
    near = make_ideal("x,y", f"(x - {a})*((10^30 x - {a * 10**30})^2 - 2)", "y")
    pts, all_rational = rational_points(build(near))
    assert pts == [(Q(a), Q(0))]
    assert not all_rational


def test_build_rejects_unit_ideal():
    with pytest.raises(NotZeroDimensional):
        build(make_ideal("x,y", "x", "x - 1"))


def test_nonreduced_locus_rejects_unit_ideal_and_curves():
    for i in (make_ideal("x,y", "x", "x - 1"), make_ideal("x,y", "y^2 - x^3")):
        with pytest.raises(NotZeroDimensional):
            nonreduced_locus(i)


def test_build_computes_one_basis(monkeypatch):
    import realcurve.ideals as ideals_module

    calls = []
    original = ideals_module.buchberger

    def counting(gens, order):
        calls.append(order)
        return original(gens, order)

    monkeypatch.setattr(ideals_module, "buchberger", counting)
    build(make_ideal("x,y", "x^2 - 2", "y^2 - x"))
    assert len(calls) == 1


def test_unit_ideal_gives_the_zero_algebra():
    from realcurve.zerodim import algebra_of

    a = algebra_of(make_ideal("x,y", "x", "x - 1"))
    assert a.dimension == 0

    def unread():
        raise AssertionError("the zero algebra consumed an operator")
        yield

    assert a.quotient(unread()).dimension == 0


def test_operators_multiply_like_their_elements():
    from realcurve.groebner import normal_form
    from realcurve.ideals import groebner_basis

    a = build(make_ideal("x,y", "x^2 - 2", "y^2 - x"))
    f, g = poly("x*y + 3"), poly("x - y^3")
    assert a.operator(f) * a.operator(g) == a.operator(f * g)
    assert a.operator(poly("x")) == a.mult_matrices[0]
    # column 0 of f's matrix is f * 1: the coordinates of f's normal form
    m = a.operator(f)
    assert a.lift(Q(x, m.den) for x in m.ints[:: m.cols]) == normal_form(
        f, groebner_basis(a.ideal)
    )


def _vanishing_element(rng: random.Random, a: int, b: int, c: int) -> Polynomial:
    # an element through the point (a, b + c*a), with random cofactors
    def cofactor():
        return poly(f"{rng.randint(-3, 3)} + {rng.randint(-2, 2)}*x + {rng.randint(-2, 2)}*y")

    return poly(f"(x - ({a}))^{rng.randint(1, 2)}") * cofactor() + poly(
        f"(y - ({b}) - ({c})*x)^{rng.randint(1, 2)}"
    ) * cofactor()


def test_quotients_are_the_algebras_buchberger_builds():
    # fat points: <p(x), q(x, y)> with p a product of powers of x - a and q
    # one of powers of y - b - c*x, so the points (a, b + c*a) carry
    # multiplicities; they are cut by elements through some of the points,
    # and by a unit now and then, once and then again in the quotient
    from realcurve.zerodim import algebra_of

    rng = random.Random(71)
    fat = proper = 0
    for _ in range(40):
        xs = rng.sample(range(-3, 4), rng.randint(1, 2))
        lines = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rng.randint(1, 2))]
        px = "*".join(f"(x - ({a}))^{rng.randint(1, 3)}" for a in xs)
        qy = "*".join(f"(y - ({b}) - ({c})*x)^{rng.randint(1, 2)}" for b, c in lines)
        a = build(make_ideal("x,y", px, qy))
        fat += a.dimension > count_points(a).complex_distinct
        q = a
        for _ in range(2):
            elements = [
                _vanishing_element(rng, rng.choice(xs), *rng.choice(lines))
                for _ in range(rng.randint(1, 3))
            ]
            if rng.random() < 0.1:
                elements.append(poly(f"{rng.randint(1, 3)} + x*y"))
            parent, q = q, q.quotient(q.operator(f) for f in elements)
            proper += 0 < q.dimension < parent.dimension
            reference = algebra_of(q.ideal)
            assert q.basis == reference.basis
            assert q.mult_matrices == reference.mult_matrices
    assert fat >= 20 and proper >= 20


def test_quotient_stops_once_the_ideal_is_everything():
    a = build(make_ideal("x,y", "x^2 - 1", "y"))
    scanned = []

    def operators(texts):
        for text in texts:
            scanned.append(text)
            yield a.operator(poly(text))

    # x - 1 and x + 1 each vanish at one of the two points; together they fill A
    assert a.quotient(operators(["x - 1", "x + 1", "x"])).dimension == 0
    assert scanned == ["x - 1", "x + 1"]
    # 2x - 2 and y = 0 lie in the ideal x - 1 generates: only x - 1 joins it
    q = a.quotient(operators(["x - 1", "2x - 2", "y"]))
    assert q.ideal.generators == a.ideal.generators + (poly("x - 1"),)
    assert q.basis == ((0, 0),)
    assert q.mult_matrices == (fraction_matrix(1, 1, [1]), fraction_matrix(1, 1, [0]))
