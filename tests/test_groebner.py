"""Division, Buchberger, membership."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest

from realcurve import (
    GREVLEX,
    LEX,
    Polynomial,
    buchberger,
    eliminate,
    ideal_equal,
    ideal_membership,
    is_groebner_basis,
    normal_form,
)
from realcurve.ideals import ideal

from conftest import make_ideal, poly, varset

Q = Fraction


def test_normal_form_substitutes_leading_terms():
    r = normal_form(poly("x^2y"), [poly("x^2 - y")])
    assert r == poly("y^2")


def test_normal_form_of_basis_element_is_zero():
    gens = [poly("x^2 - y"), poly("xy - 1")]
    gb = buchberger(gens, GREVLEX)
    for g in gb.basis:
        assert normal_form(g, gb).is_zero()


def test_normal_form_linear():
    assert normal_form(poly("x + y"), [poly("x - y")]) == poly("2y")


def test_normal_form_is_exact():
    # remainder plus quotient combination reproduces f: spot-check membership
    f = poly("x^3y^2 + 7/3 x y - 5")
    g = poly("x^2 - y")
    r = normal_form(f, [g])
    assert ideal_membership(f - r, [g])


def test_buchberger_linear_pair():
    gb = buchberger([poly("x + y"), poly("x - y")], GREVLEX)
    assert set(gb.basis) == {poly("x"), poly("y")}


def test_buchberger_lex_example():
    gens = [poly("xy - 1"), poly("y^2 - 1")]
    gb = buchberger(gens, LEX)
    expected = [poly("x - y"), poly("y^2 - 1")]
    # same ideal both ways
    for g in expected:
        assert ideal_membership(g, gens, LEX)
    for g in gb.basis:
        assert ideal_membership(g, expected, LEX)
    assert set(gb.basis) == set(expected)


def test_membership_basics():
    assert ideal_membership(poly("xy"), [poly("x")])
    assert not ideal_membership(poly("1"), make_ideal("x,y", "x", "y"))
    node = poly("y^2 - x^2 - x^3")
    assert ideal_membership(node, [node])


@pytest.mark.parametrize("zero", [ideal(varset("x,y"), ()), []], ids=["presentation", "list"])
def test_membership_in_the_zero_ideal(zero):
    assert ideal_membership(poly("0"), zero)
    assert not ideal_membership(poly("x"), zero)


def test_groebner_self_check_passes_on_output():
    gens = [poly("x^2 + y^2 - 1"), poly("xy - 2")]
    for order in (LEX, GREVLEX):
        gb = buchberger(gens, order)
        assert is_groebner_basis(gb.basis, order)
        assert gb.reduced


def test_buchberger_idempotent():
    gens = [poly("x^3 - 2xy"), poly("x^2y - 2y^2 + x")]
    gb = buchberger(gens, GREVLEX)
    again = buchberger(list(gb.basis), GREVLEX)
    assert list(again.basis) == list(gb.basis)


def test_reduced_basis_is_monic_and_interreduced():
    gens = [poly("2x^2 + 3y"), poly("4xy - 5x")]
    gb = buchberger(gens, GREVLEX)
    for g in gb.basis:
        assert g.leading_coefficient(GREVLEX) == 1
        others = [h for h in gb.basis if h is not g]
        if others:
            assert normal_form(g, others, GREVLEX) == g


def test_unit_ideal_detected():
    gb = buchberger([poly("x"), poly("x + 1")], GREVLEX)
    assert gb.is_unit()


def test_zero_ideal():
    gb = buchberger([Polynomial.zero(varset("x,y"))], GREVLEX)
    assert gb.is_zero_ideal()


def _random_ideal(rng: random.Random, vs):
    gens = []
    for _ in range(rng.randint(1, 3)):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = tuple(rng.randint(0, 2) for _ in range(len(vs)))
            c = rng.randint(-4, 4)
            if c:
                terms[e] = Q(c)
        if terms:
            gens.append(Polynomial.from_terms(vs, terms))
    return gens or [Polynomial.variable(vs, 0)]


def test_membership_is_order_independent():
    rng = random.Random(37)
    vs = varset("x,y")
    for _ in range(15):
        gens = _random_ideal(rng, vs)
        probe = _random_ideal(rng, vs)[0]
        assert ideal_membership(probe, gens, LEX) == ideal_membership(
            probe, gens, GREVLEX
        )


def test_every_random_basis_satisfies_buchberger_criterion():
    rng = random.Random(41)
    vs = varset("x,y,z")
    for _ in range(10):
        gens = _random_ideal(rng, vs)
        for order in (LEX, GREVLEX):
            gb = buchberger(gens, order)
            if not gb.is_zero_ideal():
                assert is_groebner_basis(gb.basis, order)


# ---------------------------------------------------------------------------
# cross-check against sympy (test-only; skipped when sympy is missing)


def _monic_terms(terms):
    lead = terms[0][1]
    return frozenset((e, c / lead) for e, c in terms)


def _basis_terms(gb):
    return {_monic_terms(g.sorted_terms(gb.order)) for g in gb.basis}


def _sympy_basis(sympy, gens, order):
    syms = sympy.symbols(gens[0].vars.names)
    polys = [
        sympy.Poly.from_dict(
            {e: sympy.Rational(c.numerator, c.denominator) for e, c in g.sorted_terms(LEX)},
            *syms,
            domain=sympy.QQ,
        )
        for g in gens
    ]
    return sympy.groebner(polys, *syms, order=order)


def _from_sympy(sympy_poly, vs):
    return Polynomial.from_terms(vs, {e: Q(int(c.p), int(c.q)) for e, c in sympy_poly.terms()})


def _small_random_ideal(rng: random.Random, vs):
    # 1-3 generators of 1-4 terms, each of total degree <= 3
    monomials = [e for e in product(range(4), repeat=len(vs)) if sum(e) <= 3]
    return [
        Polynomial.from_terms(vs, {e: rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)) for e in terms})
        for terms in (rng.sample(monomials, rng.randint(1, 4)) for _ in range(rng.randint(1, 3)))
    ]


def test_reduced_bases_agree_with_sympy_under_permuted_variable_orders():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(43)
    names = ("w", "x", "y", "z")
    for _ in range(30):
        picked = rng.sample(names, rng.randint(2, 4))  # a permuted variable order
        gens = _small_random_ideal(rng, varset(",".join(picked)))
        for order, sympy_order in ((LEX, "lex"), (GREVLEX, "grevlex")):
            expected = _sympy_basis(sympy, gens, sympy_order)
            ours = buchberger(gens, order)
            theirs = [_from_sympy(p, gens[0].vars) for p in expected.polys]
            assert _basis_terms(ours) == {_monic_terms(p.sorted_terms(order)) for p in theirs}


def test_elimination_agrees_with_sympy_lex_elimination():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(47)
    for n in (2, 3, 3, 4):
        vs = varset(",".join(("w", "x", "y", "z")[:n]))
        gens = _small_random_ideal(rng, vs) + _small_random_ideal(rng, vs)
        rest = varset(",".join(vs.names[1:]))
        lex = _sympy_basis(sympy, gens, "lex")
        expected = [
            Polynomial.from_terms(rest, {e[1:]: c for e, c in p.sorted_terms(LEX)})
            for p in (_from_sympy(q, vs) for q in lex.polys)
            if all(e[0] == 0 for e in p.terms)
        ]
        assert ideal_equal(eliminate(ideal(vs, gens), 1), ideal(rest, expected))
