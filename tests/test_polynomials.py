"""Polynomial ring arithmetic, orders, ring maps, gcd."""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction

import pytest

from realcurve import Polynomial, VariableSet
from realcurve.errors import VariableSetMismatch
from realcurve.ideals import multivariate_gcd
from realcurve.polynomials import (
    FIELD_BITS,
    GREVLEX,
    LEX,
    MonomialOrder,
    block_order,
    exact_divide,
    rename_variables,
    ring_map,
    squarefree_part,
)

from conftest import SURFACE_FACTORS, SURFACE_WITH_A_SQUARE, poly, reference_order_key, varset

Q = Fraction


def test_binomial_square():
    assert poly("(x+y)(x+y)") == poly("x^2 + 2xy + y^2")


def test_multiply_by_zero():
    p = poly("x^2 + y")
    assert (p * Polynomial.zero(p.vars)).is_zero()


def test_additive_inverse():
    assert (poly("x - y") + poly("y - x")).is_zero()


def test_variable_set_mismatch_raises():
    with pytest.raises(VariableSetMismatch):
        poly("x", "x,y") * poly("x", "x,z")


def test_partial_derivative_power_rule():
    f = poly("y^3 + 2x^2y - x^4")
    assert f.partial_derivative("y") == poly("3y^2 + 2x^2")
    assert f.partial_derivative("x") == poly("4xy - 4x^3")


def test_partial_derivative_of_constant():
    assert poly("5").partial_derivative("x").is_zero()


def test_derivative_after_substitution_of_length():
    f = poly("x^2 + y^2 - 9/4")
    assert f.partial_derivative("x") == poly("2x")


def test_translate_fourbar_p1():
    # x^2+y^2-(3/2)^2 moved by (3/2, 0) picks up the 2*l2*x linear term
    f = poly("x^2 + y^2 - 9/4")
    assert f.translate([Q(3, 2), 0]) == poly("x^2 + y^2 + 3x")


def test_translate_fourbar_p2():
    f = poly("(u-2)^2 + v^2 - 1", "u,v")
    assert f.translate([Q(3), 0]) == poly("u^2 + v^2 + 2u", "u,v")


def test_translate_by_origin_is_identity():
    f = poly("y^2 - x^2 - x^3")
    assert f.translate([0, 0]) == f


def test_translate_roundtrip():
    f = poly("y^3 + 2x^2y - x^4")
    p = [Q(1, 2), Q(-3)]
    assert f.translate(p).translate([-c for c in p]) == f


def test_substitute_blowup_chart():
    f = poly("y^2 - x^2 - x^3")
    x = poly("x")
    y = poly("y")
    assert ring_map(f, f.vars, [x, x * y]) == poly("x^2y^2 - x^2 - x^3")


def test_substitute_identity():
    f = poly("y^2 - x^2 - x^3")
    assert ring_map(f, f.vars, [poly("x"), poly("y")]) == f


def test_substitute_chart_instance():
    # x^2+y^2+3x under x -> y*xh, y -> y factors as y * (y xh^2 + y + 3 xh)
    f = poly("x^2 + y^2 + 3x")
    sub = ring_map(f, f.vars, [poly("yx"), poly("y")])  # reuse x as the hat variable
    assert sub == poly("y^2x^2 + y^2 + 3yx")
    assert sub == poly("y") * poly("yx^2 + y + 3x")


def test_squarefree_part_of_square():
    assert squarefree_part(poly("x^2")) == poly("x")


def test_squarefree_part_already_squarefree():
    f = poly("y^3 + 2y", "t,y")
    assert squarefree_part(f) == f


def test_squarefree_part_y3_x10():
    f = poly("y^3 - x^10")
    # gcd with both partials is 1: any common factor would divide 3y^2 and
    # 10x^9, hence be a monomial, and no variable divides f
    assert multivariate_gcd(
        multivariate_gcd(f, f.partial_derivative("x")), f.partial_derivative("y")
    ).is_constant()
    assert squarefree_part(f) == f.primitive()


def test_multivariate_gcd_common_factor():
    f = poly("(x+y)^2 (x-y)")
    g = poly("(x+y) (x+2y)")
    assert multivariate_gcd(f, g) == poly("x+y")


def _distinct_parabolas(rng: random.Random, count: int, constants=(0,)) -> list[Polynomial]:
    # y - a x - b x^2 - c: irreducible (linear in y), pairwise coprime when distinct
    shapes = [(a, b, c) for a in range(-5, 6) for b in range(-3, 4) if b for c in constants]
    return [poly(f"y - {a}x - {b}x^2 - {c}") for a, b, c in rng.sample(shapes, count)]


def test_multivariate_gcd_of_products_of_known_factors(hang_guard):
    rng = random.Random(73)
    one = poly("1")
    for _ in range(2):
        fs = _distinct_parabolas(rng, 18)
        shared = math.prod(fs[:5], start=one)
        f = shared * math.prod(fs[5:12], start=one)
        g = shared * math.prod(fs[12:], start=one)
        assert max(map(sum, f.terms)) == 24
        h = multivariate_gcd(f, g)
        assert h == shared.primitive()  # primitive, leading coefficient positive
        assert multivariate_gcd(exact_divide(f, h), exact_divide(g, h)).is_constant()


def test_squarefree_part_drops_repeated_known_factors(hang_guard):
    rng = random.Random(79)
    one = poly("1")
    for _ in range(3):
        fs = _distinct_parabolas(rng, 4, constants=(0, 1))
        powers = rng.sample((1, 2, 4, 5), 4)
        f = math.prod((p**m for p, m in zip(fs, powers)), start=one)
        assert max(map(sum, f.terms)) == 24
        assert squarefree_part(f) == math.prod(fs, start=one).primitive()


def test_exact_divide():
    f = poly("(x+y)(x^2 - y)")
    assert exact_divide(f, poly("x+y")) == poly("x^2 - y")
    with pytest.raises(ValueError):
        exact_divide(poly("x^2+1"), poly("x+y"))


def test_leading_term_orders():
    f = poly("x^2 + xy^2 + y^3")
    assert f.leading_monomial(LEX) == (2, 0)
    assert f.leading_monomial(GREVLEX) == (1, 2)  # degree 3 beats degree 2


def test_grevlex_tiebreak():
    f = poly("x^2y + xy^2")
    # equal degree: smaller exponent in the last variable wins
    assert f.leading_monomial(GREVLEX) == (2, 1)


def test_block_order_eliminates_first_block():
    order = block_order(1)
    f = poly("x + y^5")
    # any power of the second block stays below one unit of the first block
    assert f.leading_monomial(order) == (1, 0)


def _random_exponents(rng: random.Random, n: int) -> tuple:
    # mostly small entries, some near the packed field width
    top = ((1 << FIELD_BITS) - 1) // (2 * n)
    return tuple(rng.choice((0, 1, 2, 3, rng.randint(0, top), top)) for _ in range(n))


_ORDERS = (LEX, GREVLEX, block_order(1), block_order(2), block_order(3))


@pytest.mark.parametrize("order", _ORDERS, ids=str)
def test_packed_keys_order_like_the_tuple_keys(order):
    rng = random.Random(67)
    for n in range(1, 6):
        sample = [_random_exponents(rng, n) for _ in range(60)]
        sample += [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(60)]
        for a, b in zip(sample, sample[1:] + sample[:1]):
            ka, kb = order.key(a), order.key(b)
            ra, rb = reference_order_key(order, a), reference_order_key(order, b)
            assert (ka < kb, ka == kb) == (ra < rb, ra == rb), (a, b)
        assert sorted(sample, key=order.key) == sorted(
            sample, key=lambda e: reference_order_key(order, e)
        )


@pytest.mark.parametrize("order", _ORDERS, ids=str)
def test_packed_keys_add_under_multiplication(order):
    rng = random.Random(71)
    for n in range(1, 6):
        for _ in range(80):
            a, b = _random_exponents(rng, n), _random_exponents(rng, n)
            assert order.key(tuple(map(operator.add, a, b))) == order.key(a) + order.key(b)
    # the largest degree that still fits
    full = (1 << FIELD_BITS) - 1
    assert order.key((full, 0, 0)) == order.key((full - 5, 0, 0)) + order.key((5, 0, 0))


@pytest.mark.parametrize("order", _ORDERS, ids=str)
def test_packed_keys_refuse_degrees_beyond_the_field_width(order):
    limit = 1 << FIELD_BITS
    order.key((limit - 1, 0))
    with pytest.raises(ValueError):
        order.key((limit, 0))
    with pytest.raises(ValueError):  # no entry overflows, the degree does
        order.key((limit // 2, limit // 2))


def test_ring_axioms_on_random_samples():
    rng = random.Random(23)
    vs = varset("x,y,z")

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 5)):
            e = tuple(rng.randint(0, 3) for _ in range(3))
            terms[e] = Q(rng.randint(-6, 6))
        return Polynomial.from_terms(vs, terms)

    for _ in range(40):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a


def test_leading_term_multiplicative():
    rng = random.Random(29)
    vs = varset("x,y,z")
    for order in (LEX, GREVLEX, block_order(2)):
        for _ in range(25):
            def rand_poly():
                terms = {}
                for _ in range(rng.randint(1, 4)):
                    e = tuple(rng.randint(0, 4) for _ in range(3))
                    terms[e] = Q(rng.randint(1, 5))  # positive: no cancellation
                return Polynomial.from_terms(vs, terms)

            a, b = rand_poly(), rand_poly()
            lm = (a * b).leading_monomial(order)
            expected = tuple(
                x + y
                for x, y in zip(a.leading_monomial(order), b.leading_monomial(order))
            )
            assert lm == expected


def test_translate_is_ring_homomorphism():
    rng = random.Random(31)
    vs = varset("x,y")
    for _ in range(20):
        def rand_poly():
            terms = {}
            for _ in range(rng.randint(1, 4)):
                e = (rng.randint(0, 3), rng.randint(0, 3))
                terms[e] = Q(rng.randint(-5, 5))
            return Polynomial.from_terms(vs, terms)

        f, g = rand_poly(), rand_poly()
        p = [Q(rng.randint(-2, 2)), Q(rng.randint(-2, 2), rng.randint(1, 2))]
        assert (f * g).translate(p) == f.translate(p) * g.translate(p)


def test_rename_variables_permutes():
    f = poly("x^2 - y", "x,y")
    g = rename_variables(f, varset("y,x"))
    assert g == poly("x^2 - y", "y,x")
    # under lex with y first, the linear y term now leads
    assert g.leading_monomial(LEX) == (1, 0)


# ---------------------------------------------------------------------------
# content * primitive integer terms, against a Fraction-dict reference


def _ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def _ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _ref_pow(a, n, one):
    out = one
    for _ in range(n):
        out = _ref_mul(out, a)
    return out


def _ref_ring_map(a, images, one):
    out = {}
    for e, c in a.items():
        term = {k: c * v for k, v in one.items()}
        for img, k in zip(images, e):
            term = _ref_mul(term, _ref_pow(img, k, one))
        out = _ref_add(out, term)
    return out


def _coefficients(p):
    return dict(p.sorted_terms(GREVLEX))


def _assert_canonical(p):
    if p.is_zero():
        assert p.content == 0 and not p.terms
        return
    assert p.content > 0
    assert all(isinstance(c, int) and c for c in p.terms.values())
    assert math.gcd(*p.terms.values()) == 1


def _rand_coeffs(rng, n):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        e = tuple(rng.randint(0, 2) for _ in range(n))
        terms[e] = Q(rng.randint(-9, 9), rng.randint(1, 6))
    return {e: c for e, c in terms.items() if c}


def test_arithmetic_agrees_with_fraction_reference():
    rng = random.Random(41)
    for n in (2, 3, 4):
        vs = varset(",".join("xyzw"[:n]))
        zero_e = (0,) * n
        one = {zero_e: Q(1)}
        for _ in range(15):
            ra, rb = _rand_coeffs(rng, n), _rand_coeffs(rng, n)
            a, b = Polynomial.from_terms(vs, ra), Polynomial.from_terms(vs, rb)
            c = Q(rng.randint(-5, 5), rng.randint(1, 4))
            k = rng.randint(0, 3)
            point = [Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
            results = {
                "add": (a + b, _ref_add(ra, rb)),
                "sub": (a - b, _ref_add(ra, rb, -1)),
                "neg": (-a, _ref_add({}, ra, -1)),
                "mul": (a * b, _ref_mul(ra, rb)),
                "pow": (a**k, _ref_pow(ra, k, one)),
                "scale": (a.scale(c), {e: c * v for e, v in ra.items() if c}),
            }
            for var in range(n):
                ref = {}
                for e, v in ra.items():
                    if e[var]:
                        d = list(e)
                        d[var] -= 1
                        ref[tuple(d)] = v * e[var]
                results[f"d{var}"] = (a.partial_derivative(var), ref)
            images_ref = [_rand_coeffs(rng, n) for _ in range(n)]
            images = [Polynomial.from_terms(vs, t) for t in images_ref]
            results["ring_map"] = (ring_map(a, vs, images), _ref_ring_map(ra, images_ref, one))
            shift_ref = [
                _ref_add({tuple(int(i == j) for j in range(n)): Q(1)}, {zero_e: p})
                for i, p in enumerate(point)
            ]
            results["translate"] = (a.translate(point), _ref_ring_map(ra, shift_ref, one))
            for name, (got, ref) in results.items():
                _assert_canonical(got)
                assert _coefficients(got) == ref, name
            expected = sum(
                (v * math.prod(x**e_i for x, e_i in zip(point, e)) for e, v in ra.items()),
                Q(0),
            )
            assert a.evaluate(point) == expected
            assert a.translate(point).translate([-x for x in point]) == a
            if not b.is_zero():
                assert exact_divide(a * b, b) == a
                if not b.is_constant():
                    with pytest.raises(ValueError):
                        exact_divide(a * b + Polynomial.one(vs), b)


def _ref_evaluate(terms, point):
    return sum((v * math.prod(x**k for x, k in zip(point, e)) for e, v in terms.items()), Q(0))


def _assert_matches(got, ref):
    _assert_canonical(got)
    want = Polynomial.from_terms(got.vars, ref)
    assert (got.terms, got.content) == (want.terms, want.content)


def test_kernels_agree_with_fraction_reference_on_monomial_images_and_long_shifts():
    rng = random.Random(43)
    vs = varset("x,y,z")
    unit = [tuple(int(i == j) for j in range(3)) for i in range(3)]
    one = {(0, 0, 0): Q(1)}
    for _ in range(40):
        ra = _rand_coeffs(rng, 3)
        a = Polynomial.from_terms(vs, ra)
        # c * x_k * x_i with rational c; x and y go to the same monomial, so
        # the images of x^i y^j and x^j y^i merge
        shared = tuple(map(operator.add, unit[rng.randrange(3)], unit[rng.randrange(3)]))
        images_ref = [{shared: Q(rng.randint(-9, 9) or 1, rng.randint(1, 7))} for _ in range(2)]
        e = tuple(map(operator.add, unit[rng.randrange(3)], unit[rng.randrange(3)]))
        images_ref.append({e: Q(rng.randint(-9, 9) or 1, rng.randint(1, 7))})
        images = [Polynomial.from_terms(vs, t) for t in images_ref]
        _assert_matches(ring_map(a, vs, images), _ref_ring_map(ra, images_ref, one))
        # degree up to 10 in x, shifts with denominators up to 7
        rb = {
            (k, rng.randint(0, 1), 0): Q(rng.randint(-9, 9), rng.randint(1, 3))
            for k in range(rng.randint(1, 11))
        }
        rb = {e: c for e, c in rb.items() if c} or {(10, 0, 0): Q(1)}
        b = Polynomial.from_terms(vs, rb)
        point = [Q(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(3)]
        shift_ref = [_ref_add({unit[i]: Q(1)}, {(0, 0, 0): p}) for i, p in enumerate(point)]
        _assert_matches(b.translate(point), _ref_ring_map(rb, shift_ref, one))
        assert b.evaluate(point) == _ref_evaluate(rb, point)
        mixed = [Q(1, 2), Q(-2, 3), Q(5, 7)]
        assert a.evaluate(mixed) == _ref_evaluate(ra, mixed)
        assert b.evaluate(mixed) == _ref_evaluate(rb, mixed)
    zero = Polynomial.zero(vs)
    assert zero.translate([Q(1, 3), 2, Q(-5, 7)]) == zero
    _assert_canonical(zero.translate([Q(1, 3), 2, Q(-5, 7)]))
    assert zero.evaluate([Q(1, 3), 2, Q(-5, 7)]) == 0
    f = poly("x^3y - 2/3z + 1", "x,y,z")
    assert f.translate([0, 0, Q(0)]) is f


def test_exact_divide_rejects_nonintegral_quotient():
    # x^2 + 1 = (2x + 1)(x/2 - 1/4) + 5/4: the primitive leading terms do not divide
    with pytest.raises(ValueError):
        exact_divide(poly("x^2 + 1"), poly("2x + 1"))
    half = Polynomial.constant(varset("x,y"), Q(1, 2))
    assert exact_divide(poly("x + 1"), poly("2x + 2")) == half


def test_exact_divide_keys_each_term_once(monkeypatch):
    # two dense degree-12 polynomials of 91 terms and their product
    rng = random.Random(29)
    vs = varset("x,y")

    def dense() -> Polynomial:
        exponents = [(i, j) for i in range(13) for j in range(13 - i)]
        coefficients = [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in exponents]
        return Polynomial.from_terms(vs, dict(zip(exponents, coefficients)))

    g, q = dense(), dense()
    f = g * q
    calls = 0
    key = MonomialOrder.key

    def counting(self, e):
        nonlocal calls
        calls += 1
        return key(self, e)

    monkeypatch.setattr(MonomialOrder, "key", counting)
    assert exact_divide(f, g) == q
    assert calls <= len(f.terms) + len(q.terms) * len(g.terms)


def test_exact_divide_refuses_a_product_beyond_the_field_width():
    # under lex, x + y^40000 leads with x; the first step subtracts
    # y^30000 (x + y^40000), and the key of y^70000 would wrap onto that of
    # x y^4464 and cancel it, so the inexact division would come out exact
    vs = varset("x,y")
    f = Polynomial.from_terms(vs, {(1, 30000): 1, (1, 4464): 1})
    g = Polynomial.from_terms(vs, {(1, 0): 1, (0, 40000): 1})
    with pytest.raises(ValueError):
        exact_divide(f, g, LEX)


def test_canonical_form_is_unique():
    vs = varset("x,y")
    half = Polynomial.constant(vs, Q(1, 2))
    forms = [
        poly("x + 1"),
        poly("2x + 2") * half,
        poly("2x + 2").scale(Q(1, 2)),
        Polynomial.from_terms(vs, {(1, 0): Q(3, 3), (0, 0): Q(2, 2)}),
        Polynomial.from_terms(vs, {(1, 0): "1", (0, 0): 1, (0, 1): "0"}),
        poly("3/4x + 3/4").scale(Q(4, 3)),
        -poly("-x - 1"),
    ]
    for p in forms:
        _assert_canonical(p)
        assert p == forms[0]
        assert hash(p) == hash(forms[0])
        assert p.terms == {(1, 0): 1, (0, 0): 1} and p.content == 1
    neg = poly("-6x^2 + 4/3y")
    _assert_canonical(neg)
    assert neg.terms == {(2, 0): -9, (0, 1): 2} and neg.content == Q(2, 3)
    assert neg.sorted_terms(GREVLEX)[0][1] == -6 and neg.constant_term() == 0
    assert neg.primitive() == poly("9x^2 - 2y") and neg.primitive().content == 1
    zeros = (
        Polynomial.zero(vs),
        neg - neg,
        neg.scale(0),
        Polynomial.from_terms(vs, {}),
        Polynomial.from_terms(vs, {(1, 0): "0", (0, 0): Q(0)}),
        Polynomial.constant(vs, 0),
    )
    for zero in zeros:
        _assert_canonical(zero)
        assert zero == Polynomial.zero(vs) and zero.content == 0


# ---------------------------------------------------------------------------
# the modular squarefree certificate, on products of known factors


def _exactly_squarefree(f: Polynomial) -> bool:
    return squarefree_part(f) == f.primitive()


@pytest.fixture
def fallbacks(monkeypatch) -> list:
    """The polynomials that is_squarefree hands to the exact squarefree_part."""
    from realcurve import polynomials

    calls = []
    original = polynomials.squarefree_part

    def counting(f):
        calls.append(f)
        return original(f)

    monkeypatch.setattr(polynomials, "squarefree_part", counting)
    return calls


def _known_factors(rng: random.Random, names: str, count: int) -> list[Polynomial]:
    # lines a.x + c with primitive coefficient vectors whose first nonzero
    # entry is positive, so distinct vectors are coprime irreducibles, and
    # parabolas y - a x - b x^2 - c (y is the second variable)
    vs = varset(names)
    n = len(vs)
    out: list[Polynomial] = []
    seen = set()
    while len(out) < count:
        if rng.random() < 0.5:
            coeffs = [rng.randint(-3, 3) for _ in range(n + 1)]
            g = math.gcd(*coeffs)
            lead = next((c for c in coeffs[:n] if c), 0)
            if not lead:
                continue
            coeffs = tuple(c // g * (1 if lead > 0 else -1) for c in coeffs)
            terms = {tuple(int(i == v) for i in range(n)): c for v, c in enumerate(coeffs[:n])}
            terms[(0,) * n] = coeffs[n]
        else:
            a, b, c = rng.randint(-4, 4), rng.choice((-2, -1, 1, 2)), rng.randint(-3, 3)
            coeffs = ("parabola", a, b, c)
            e = lambda i, k: tuple(k if j == i else 0 for j in range(n))  # noqa: E731
            terms = {e(1, 1): 1, e(0, 1): -a, e(0, 2): -b, (0,) * n: -c}
        if coeffs not in seen:
            seen.add(coeffs)
            out.append(Polynomial.from_terms(vs, terms))
    return out


@pytest.mark.parametrize("names, most", [("x,y", 5), ("x,y,z", 4)])
def test_is_squarefree_on_products_of_known_factors(names, most, fallbacks):
    from realcurve.polynomials import is_squarefree

    rng = random.Random(211 + len(names))
    one = Polynomial.one(varset(names))
    for _ in range(20):
        fs = _known_factors(rng, names, rng.randint(1, most))
        f = math.prod(fs, start=one).scale(Q(rng.choice((-3, 1, 5)), rng.choice((1, 2))))
        del fallbacks[:]
        assert is_squarefree(f) and _exactly_squarefree(f)
        assert not fallbacks  # decided modulo p
        squared = f * rng.choice(fs)
        assert not is_squarefree(squared) and not _exactly_squarefree(squared)


def test_multivariate_gcd_of_three_variable_products_of_known_factors(hang_guard):
    rng = random.Random(97)
    one = Polynomial.one(varset("x,y,z"))
    for _ in range(6):
        fs = _known_factors(rng, "x,y,z", 7)
        s = math.prod(fs[:3], start=one).scale(Q(rng.choice((-3, 5)), 2))
        a = math.prod(fs[3:5], start=one)
        b = math.prod(fs[5:], start=one)
        assert multivariate_gcd(s * a, s * b) == s.primitive()


def test_squarefree_part_of_a_three_variable_surface_finishes(hang_guard, fallbacks):
    from realcurve.polynomials import is_squarefree

    f = poly(SURFACE_WITH_A_SQUARE, "x,y,z")
    assert not is_squarefree(f)
    assert fallbacks == [f]
    distinct = math.prod((poly(t, "x,y,z") for t in SURFACE_FACTORS), start=poly("1", "x,y,z"))
    assert squarefree_part(f) == distinct.primitive()


def test_is_squarefree_sees_a_repeated_factor_in_one_variable(fallbacks):
    from realcurve.polynomials import is_squarefree

    f = poly("x^2 (y - x)")
    assert not is_squarefree(f) and not _exactly_squarefree(f)
    assert fallbacks == [f]  # the image in F_p[x] has a double root at 0
    assert is_squarefree(poly("x (y - x)"))
    assert is_squarefree(poly("x^3 - 5y^3", "x,y"))
    assert not is_squarefree(poly("(x y z - 1)^2 (x + z)", "x,y,z"))


def test_is_squarefree_of_constants_and_zero(fallbacks):
    from realcurve.polynomials import is_squarefree
    from realcurve.errors import ZeroPolynomial

    assert is_squarefree(poly("3")) and is_squarefree(poly("-2/7"))
    assert not fallbacks
    with pytest.raises(ZeroPolynomial):
        is_squarefree(Polynomial.zero(varset("x,y")))


def test_is_squarefree_falls_back_when_a_leading_coefficient_vanishes(fallbacks):
    # q = (x - a) y + 1, with a the evaluation point's x coordinate: the
    # image of q in F_p[y] loses its y-degree, so the fast path decides nothing
    from realcurve.polynomials import is_squarefree
    from realcurve.polynomials import _evaluation_point, _univariate_image

    point = _evaluation_point(2)
    q = Polynomial.from_terms(varset("x,y"), {(1, 1): 1, (0, 1): -point[0], (0, 0): 1})
    assert _univariate_image(q, 1, point)[-1] == 0
    for f, expected in ((q * poly("y - x"), True), (q * q * poly("y - x"), False)):
        del fallbacks[:]
        assert is_squarefree(f) is expected is _exactly_squarefree(f)
        assert fallbacks == [f]


# the radicality side: certifies_squarefree, the modular test with no fallback


def _unlucky_at(points: int) -> Polynomial:
    # (x - a_0) ... (x - a_(k-1)) y + 1 with a_j the x coordinate of point j:
    # squarefree, but its image in F_p[y] loses its y-degree at those k points
    from realcurve.polynomials import _evaluation_point

    vs = varset("x,y")
    lead = Polynomial.one(vs)
    for k in range(points):
        lead = lead * (poly("x") - Polynomial.constant(vs, _evaluation_point(2, k)[0]))
    return lead * poly("y") + Polynomial.one(vs)


@pytest.mark.parametrize("names, most", [("x,y", 5), ("x,y,z", 4)])
def test_certifies_squarefree_on_products_of_known_factors(names, most, fallbacks):
    from realcurve.polynomials import certifies_squarefree

    rng = random.Random(307 + len(names))
    one = Polynomial.one(varset(names))
    for _ in range(20):
        fs = _known_factors(rng, names, rng.randint(1, most))
        f = math.prod(fs, start=one).scale(Q(rng.choice((-3, 1, 5)), rng.choice((1, 2))))
        assert certifies_squarefree(f) and _exactly_squarefree(f)
        for g in fs:
            assert not certifies_squarefree(f * g) and not _exactly_squarefree(f * g)
    assert not fallbacks  # the certificate never reaches the exact squarefree part


def test_certifies_squarefree_at_a_later_point(fallbacks):
    from realcurve import Verdict, classify_point
    from realcurve.ideals import ideal
    from realcurve.polynomials import _evaluation_point, _univariate_image, certifies_squarefree
    from realcurve.singular import RadicalityReason, RadicalityVerdict

    q = _unlucky_at(1)
    assert _univariate_image(q, 1, _evaluation_point(2))[-1] == 0
    assert _univariate_image(q, 1, _evaluation_point(2, 1))[-1] != 0
    f = q * poly("y - x")
    assert certifies_squarefree(f)
    c = classify_point(ideal(f.vars, (f,)), [0, 0])
    assert c.verdict is Verdict.SMOOTH_MANIFOLD_POINT
    assert c.certificate.radicality.verdict is RadicalityVerdict.RADICAL
    assert c.certificate.radicality.reason is RadicalityReason.PRINCIPAL_SQUAREFREE
    assert not fallbacks


def test_certifies_squarefree_builds_a_point_only_for_a_variable_still_unpassed(monkeypatch):
    from realcurve import polynomials

    passes_at_0, passes_at_1 = poly("y^2 - x^2 - x^3"), _unlucky_at(1) * poly("y - x")
    built = []
    evaluation_point = polynomials._evaluation_point

    def counted(n, k=0):
        built.append(k)
        return evaluation_point(n, k)

    monkeypatch.setattr(polynomials, "_evaluation_point", counted)
    assert polynomials.certifies_squarefree(passes_at_0)
    assert built == [0]
    del built[:]
    assert polynomials.certifies_squarefree(passes_at_1)
    assert built == [0, 1]


def test_certifies_squarefree_refuses_an_input_built_against_every_point():
    from realcurve import Verdict, classify_point
    from realcurve.ideals import ideal
    from realcurve.polynomials import certifies_squarefree, is_squarefree
    from realcurve.singular import RadicalityVerdict

    f = _unlucky_at(3) * poly("y - x")
    assert not certifies_squarefree(f)  # a known limit: Unknown, not wrong
    assert is_squarefree(f) and _exactly_squarefree(f)
    i = ideal(f.vars, (f,))
    c = classify_point(i, [0, 0])
    assert c.verdict is Verdict.INCONCLUSIVE
    assert c.certificate.radicality.verdict is RadicalityVerdict.UNKNOWN
    assert classify_point(i, [0, 0], assume_radical=True).verdict is Verdict.SMOOTH_MANIFOLD_POINT
