"""Ideal calculus: elimination, intersection, quotient, saturation, dimension."""

from __future__ import annotations

from fractions import Fraction

from realcurve import (
    eliminate,
    ideal_equal,
    ideal_membership,
    intersect,
    is_unit_ideal,
    krull_dimension,
    quotient,
    saturate,
)
from realcurve.ideals import basis_dimension, groebner_basis

from conftest import make_ideal

Q = Fraction


def test_eliminate_joins_tangent_lines():
    i = make_ideal("t,x,y", "t - x", "t - y")
    out = eliminate(i, 1)
    assert ideal_equal(out, make_ideal("x,y", "x - y"))


def test_eliminate_everything_gives_zero_ideal():
    out = eliminate(make_ideal("x,y", "x"), 1)
    assert out.generators == ()


def test_eliminate_t_trick_product():
    i = make_ideal("t,x,y", "tx", "(1-t)y")
    out = eliminate(i, 1)
    # xy = y*(tx) + x*((1-t)y); check equality through double membership
    assert ideal_equal(out, make_ideal("x,y", "xy"))


def test_intersect_principal():
    a = make_ideal("x,y", "x")
    b = make_ideal("x,y", "y")
    assert ideal_equal(intersect(a, b), make_ideal("x,y", "xy"))


def test_intersect_with_unit():
    i = make_ideal("x,y", "x^2 - y")
    assert ideal_equal(intersect(i, make_ideal("x,y", "1")), i)


def test_intersect_nested():
    assert ideal_equal(
        intersect(make_ideal("x,y", "x^2"), make_ideal("x,y", "x")),
        make_ideal("x,y", "x^2"),
    )


def test_quotient_textbook():
    assert ideal_equal(
        quotient(make_ideal("x,y", "x^2", "xy"), make_ideal("x,y", "x")),
        make_ideal("x,y", "x", "y"),
    )


def test_quotient_by_unit():
    i = make_ideal("x,y", "x^2", "xy")
    assert ideal_equal(quotient(i, make_ideal("x,y", "1")), i)


def test_quotient_two_generators():
    i = make_ideal("t,y", "t", "y^2")
    j = make_ideal("t,y", "t", "y")
    assert ideal_equal(quotient(i, j), j)


def test_saturate_strips_powers():
    i = make_ideal("t,x,y", "t^2x", "t^3y")
    res = saturate(i, make_ideal("t,x,y", "t"))
    assert ideal_equal(res.ideal, make_ideal("t,x,y", "x", "y"))
    assert res.iterations == 3


def test_saturate_by_unit_is_identity():
    i = make_ideal("x,y", "x^2", "xy")
    res = saturate(i, make_ideal("x,y", "1"))
    assert ideal_equal(res.ideal, i)
    assert res.iterations == 0


def test_saturation_idempotent():
    i = make_ideal("x,y", "x^2y", "x^3")
    j = make_ideal("x,y", "x")
    once = saturate(i, j)
    twice = saturate(once.ideal, j)
    assert ideal_equal(once.ideal, twice.ideal)
    assert twice.iterations == 0


def test_quotient_and_saturation_grow():
    i = make_ideal("x,y", "x^2y")
    j = make_ideal("x,y", "x")
    q = quotient(i, j)
    s = saturate(i, j).ideal
    for g in i.generators:
        assert ideal_membership(g, q)
    for g in q.generators:
        assert ideal_membership(g, s)


def test_intersection_contained_in_both_and_commutes():
    a = make_ideal("x,y", "x^2 - y", "xy")
    b = make_ideal("x,y", "y^2", "x^3")
    meet = intersect(a, b)
    for g in meet.generators:
        assert ideal_membership(g, a)
        assert ideal_membership(g, b)
    assert ideal_equal(meet, intersect(b, a))


def test_dimension_fourbar_leading_ideal():
    i = make_ideal("v,y,u,x", "u^2x", "vu", "vx^2", "y^2", "vy", "v^2")
    assert krull_dimension(i) == 1


def test_dimension_point():
    assert krull_dimension(make_ideal("x,y", "x", "y")) == 0


def test_dimension_zero_ideal():
    assert krull_dimension(make_ideal("x,y,z")) == 3


def test_dimension_unit_ideal():
    assert krull_dimension(make_ideal("x,y", "x", "x+1")) == -1


def test_unit_ideal_detection():
    assert is_unit_ideal(make_ideal("x,y", "x", "x + 1"))
    assert not is_unit_ideal(make_ideal("x,y", "x"))


def test_saturation_carries_the_basis_of_its_limit():
    i = make_ideal("t,x,y", "t^2x", "t^3y")
    res = saturate(i, make_ideal("t,x,y", "t"))
    assert res.basis == groebner_basis(res.ideal)


def test_basis_dimension_matches_krull_dimension():
    for gens in (("y^2 - x^3",), ("x", "y"), ("x", "x - 1"), ("x*y",), ("0",)):
        i = make_ideal("x,y", *gens)
        assert basis_dimension(groebner_basis(i), 2) == krull_dimension(i)
