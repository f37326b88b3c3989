"""Division, Buchberger, membership."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import gcd
from operator import add, le, sub

import pytest

from realcurve import Polynomial
from realcurve.groebner import (
    GroebnerBasis,
    _Reducer,
    buchberger,
    ideal_membership,
    is_groebner_basis,
    normal_form,
)
from realcurve.ideals import eliminate, groebner_basis, ideal, ideal_equal
from realcurve.polynomials import FIELD_BITS, GREVLEX, LEX, block_order

from conftest import make_ideal, poly, reference_order_key, varset

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
    assert ideal_membership(f - r, buchberger([g]))


def test_buchberger_linear_pair():
    gb = buchberger([poly("x + y"), poly("x - y")], GREVLEX)
    assert set(gb.basis) == {poly("x"), poly("y")}


def test_buchberger_lex_example():
    gens = [poly("xy - 1"), poly("y^2 - 1")]
    gb = buchberger(gens, LEX)
    expected = [poly("x - y"), poly("y^2 - 1")]
    # same ideal both ways
    for g in expected:
        assert ideal_membership(g, gb)
    for g in gb.basis:
        assert ideal_membership(g, buchberger(expected, LEX))
    assert set(gb.basis) == set(expected)


def test_membership_basics():
    assert ideal_membership(poly("xy"), buchberger([poly("x")]))
    assert not ideal_membership(poly("1"), groebner_basis(make_ideal("x,y", "x", "y")))
    node = poly("y^2 - x^2 - x^3")
    assert ideal_membership(node, buchberger([node]))


@pytest.mark.parametrize(
    "zero",
    [groebner_basis(ideal(varset("x,y"), ())), buchberger([Polynomial.zero(varset("x,y"))])],
    ids=["presentation", "list"],
)
def test_membership_in_the_zero_ideal(zero):
    assert ideal_membership(poly("0"), zero)
    assert not ideal_membership(poly("x"), zero)


def test_groebner_self_check_passes_on_output():
    gens = [poly("x^2 + y^2 - 1"), poly("xy - 2")]
    for order in (LEX, GREVLEX):
        gb = buchberger(gens, order)
        assert is_groebner_basis(gb.basis, order)


def test_buchberger_idempotent():
    gens = [poly("x^3 - 2xy"), poly("x^2y - 2y^2 + x")]
    gb = buchberger(gens, GREVLEX)
    again = buchberger(list(gb.basis), GREVLEX)
    assert list(again.basis) == list(gb.basis)


def test_reduced_basis_is_monic_and_interreduced():
    gens = [poly("2x^2 + 3y"), poly("4xy - 5x")]
    gb = buchberger(gens, GREVLEX)
    for g in gb.basis:
        assert g.sorted_terms(GREVLEX)[0][1] == 1
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
        assert ideal_membership(probe, buchberger(gens, LEX)) == ideal_membership(
            probe, buchberger(gens, GREVLEX)
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
# packed terms and the heap reducer


def _reference_normal_form(f: Polynomial, divisors, order) -> Polynomial:
    """Division as before packed keys: max over the pending terms by tuple key."""

    def keyf(e):
        return reference_order_key(order, e)

    table = []
    for g in divisors:
        lm = max(g.terms, key=keyf)
        sign = 1 if g.terms[lm] > 0 else -1
        table.append((lm, {e: sign * c for e, c in g.terms.items()}))
    work, rem, mult = dict(f.terms), {}, 1
    while work:
        e = max(work, key=keyf)
        c = work.pop(e)
        hit = next(((lm, terms) for lm, terms in table if all(map(le, lm, e))), None)
        if hit is None:
            rem[e] = c
            continue
        lm, terms = hit
        a, b = terms[lm] // gcd(c, terms[lm]), c // gcd(c, terms[lm])
        work = {k: a * v for k, v in work.items()}
        rem = {k: a * v for k, v in rem.items()}
        mult *= a
        d = tuple(map(sub, e, lm))
        for te, tc in terms.items():
            if te != lm:
                k = tuple(map(add, te, d))
                s = work.get(k, 0) - b * tc
                work[k] = s
                if not s:
                    del work[k]
    return Polynomial(f.vars, rem, f.content / mult)


class _CancelLog(dict):
    """A pending-term dict that counts keys which cancel and later come back."""

    def __init__(self, items):
        super().__init__(items)
        self.cancelled: set = set()
        self.returned = 0

    def __delitem__(self, k):
        super().__delitem__(k)
        self.cancelled.add(k)

    def __setitem__(self, k, v):
        if k in self.cancelled and k not in self:
            self.returned += 1
        super().__setitem__(k, v)


def test_a_term_that_cancels_and_comes_back_is_reduced_like_a_fresh_one():
    # x^2 - 2 cancels the constant of f; reducing 2y by 2y + 1 brings it back
    f, divisors = poly("x^2 + 2y - 2"), [poly("2y + 1"), poly("x^2 - 2")]
    red = _Reducer(GREVLEX, 2)
    for g in divisors:
        red.push(red.packed_terms(g.terms))
    work, words = red.encode(f.terms)
    log = _CancelLog(work)
    rem, mult = red.reduce(log, words)
    assert log.returned == 1
    assert red.polynomial(f.vars, rem, f.content / mult) == poly("-1")
    assert normal_form(f, divisors) == _reference_normal_form(f, divisors, GREVLEX) == poly("-1")


@pytest.mark.parametrize("order", [LEX, GREVLEX, block_order(1)], ids=str)
def test_heap_reduction_matches_the_tuple_key_reference(order):
    rng = random.Random(83)
    vs = varset("x,y,z")
    for _ in range(40):
        divisors = _random_ideal(rng, vs)
        f = _random_ideal(rng, vs)[0]
        assert normal_form(f, divisors, order) == _reference_normal_form(f, divisors, order)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_guard_bit_divisibility_agrees_with_exponentwise_comparison(n):
    rng = random.Random(89 + n)
    red = _Reducer(GREVLEX, n)
    top = ((1 << FIELD_BITS) - 1) // n

    def exponents():
        return tuple(rng.choice((0, 1, 2, rng.randint(0, top), top)) for _ in range(n))

    for _ in range(300):
        a = exponents()
        b = exponents() if rng.random() < 0.5 else tuple(min(top, x + rng.randint(0, 1)) for x in a)
        for x, y in ((a, b), (b, a), (a, a)):
            assert red.divides(red.word(x), red.word(y)) == all(map(le, x, y)), (x, y)
            assert red.exponent(red.word(x)) == x


def test_reduction_refuses_a_product_beyond_the_field_width():
    # under lex, x -> y^(2^15) twice reaches y^(2^16), one degree too many
    vs = varset("x,y")
    half = 1 << (FIELD_BITS - 1)
    g = Polynomial.from_terms(vs, {(1, 0): 1, (0, half): -1})
    assert normal_form(poly("x"), [g], LEX) == Polynomial.from_terms(vs, {(0, half): 1})
    with pytest.raises(ValueError):
        normal_form(poly("x^2"), [g], LEX)


def test_normal_form_through_the_basis_table_matches_the_generator_list():
    rng = random.Random(97)
    vs = varset("x,y,z")
    for order in (LEX, GREVLEX, block_order(1)):
        for _ in range(8):
            gb = buchberger(_random_ideal(rng, vs), order)
            for _ in range(5):
                f = _random_ideal(rng, vs)[0]
                assert normal_form(f, gb) == normal_form(f, list(gb.basis), order)
    gb = buchberger([poly("x^2 - y"), poly("xy - 1")], GREVLEX)
    fresh = GroebnerBasis(gb.basis, gb.order)
    normal_form(poly("x^3"), gb)
    assert gb.divisor_table is gb.divisor_table  # built once per basis
    assert gb == fresh and hash(gb) == hash(fresh)  # the table is not part of the value


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


def test_lex_basis_of_a_small_three_variable_ideal_finishes(hang_guard):
    # ranking lex pairs by degree first ran this input for over two minutes
    sympy = pytest.importorskip("sympy")
    texts = ("y^2*x - 3y^2*z - 4x^2", "y^2*z - 3y*x*z - y*z^2 + 2y", "-3y^2*x*z - 2y*x*z^2 + 2x*z")
    gens = [poly(text, "y,x,z") for text in texts]
    vs = gens[0].vars
    ours = buchberger(gens, LEX)
    theirs = [_from_sympy(p, vs) for p in _sympy_basis(sympy, gens, "lex").polys]
    assert _basis_terms(ours) == {_monic_terms(p.sorted_terms(LEX)) for p in theirs}
