"""Ideal calculus: elimination, intersection, quotient, saturation, dimension."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from realcurve import Polynomial
from realcurve.ideals import (
    basis_dimension,
    eliminate,
    groebner_basis,
    ideal,
    ideal_equal,
    intersect,
    is_subideal,
    is_unit_ideal,
    krull_dimension,
    quotient,
    saturate,
)

from conftest import make_ideal, varset
from test_blowup import AGREEMENT_RUNS

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
    assert is_subideal(i, q)
    assert is_subideal(q, s)


def test_intersection_contained_in_both_and_commutes():
    a = make_ideal("x,y", "x^2 - y", "xy")
    b = make_ideal("x,y", "y^2", "x^3")
    meet = intersect(a, b)
    assert is_subideal(meet, a)
    assert is_subideal(meet, b)
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


def test_saturation_basis_rejects_a_limit_that_misses_a_source_generator():
    from dataclasses import replace

    res = saturate(make_ideal("t,x,y", "t^2x", "t^3y"), make_ideal("t,x,y", "t"))
    assert ideal_equal(res.ideal, make_ideal("t,x,y", "x", "y"))
    assert len(res.ideal.generators) == 2
    short = replace(res, ideal=ideal(res.ideal.variables, res.ideal.generators[:1]))
    with pytest.raises(AssertionError, match="escapes its saturation"):
        short.basis


def test_basis_dimension_matches_krull_dimension():
    for gens in (("y^2 - x^3",), ("x", "y"), ("x", "x - 1"), ("x*y",), ("0",)):
        i = make_ideal("x,y", *gens)
        assert basis_dimension(groebner_basis(i), 2) == krull_dimension(i)


def test_saturate_runs_one_homogeneous_and_one_grevlex_basis(monkeypatch):
    import realcurve.ideals as ideals_module

    calls = []
    original = ideals_module.buchberger

    def counting(gens, order):
        calls.append((gens[0].vars.names, str(order)))
        return original(gens, order)

    def forbidden(*args):
        raise AssertionError("saturate reached the quotient chain")

    monkeypatch.setattr(ideals_module, "buchberger", counting)
    for name in ("quotient", "intersect", "eliminate"):
        monkeypatch.setattr(ideals_module, name, forbidden)
    for gens, expected in ((("t^2x", "t^3y"), 3), (("x^2", "xy"), 0)):
        calls.clear()
        res = saturate(make_ideal("x,t,y", *gens), make_ideal("x,t,y", "t"))
        assert res.iterations == expected
        # the basis of the limit is built on first use, once
        assert calls == [(("x", "y", "h", "t"), "grevlex")]
        assert res.basis is res.basis
        assert calls == [(("x", "y", "h", "t"), "grevlex"), (("x", "t", "y"), "grevlex")]


@pytest.mark.parametrize("gens", [("x + y",), ("x", "y"), ("x^2",), ("xy",), ("x + 1",)])
def test_saturate_rejects_anything_but_one_variable(gens):
    with pytest.raises(ValueError, match="x_k"):
        saturate(make_ideal("x,y", "x^2", "xy"), make_ideal("x,y", *gens))


def test_saturate_accepts_a_scaled_variable():
    res = saturate(make_ideal("t,x,y", "t^2x", "t^3y"), make_ideal("t,x,y", "-3t"))
    assert ideal_equal(res.ideal, make_ideal("t,x,y", "x", "y"))
    assert res.iterations == 3


@pytest.mark.parametrize("j", ["t", "1"])
def test_saturate_returns_the_zero_ideal_unchanged(j):
    i = make_ideal("t,x,y")
    res = saturate(i, make_ideal("t,x,y", j))
    assert res.ideal is i
    assert res.iterations == 0
    assert res.basis.is_zero_ideal()


def test_saturate_by_a_constant_generator_returns_its_input():
    i = make_ideal("t,x,y", "t^2x", "t^3y")
    for j in (make_ideal("t,x,y", "1"), make_ideal("t,x,y", "t", "2")):
        res = saturate(i, j)
        assert res.ideal is i
        assert res.iterations == 0
        assert res.basis == groebner_basis(i)


def test_saturate_names_h_apart_from_the_ring():
    res = saturate(make_ideal("h,t,x", "t^2h", "t^2x - t"), make_ideal("h,t,x", "t"))
    assert ideal_equal(res.ideal, make_ideal("h,t,x", "h", "tx - 1"))


# ---------------------------------------------------------------------------
# agreement with the reference quotient chain i ⊆ i : j ⊆ i : j^2 ⊆ ...


def _chain_saturation(i, j):
    """Reference saturation: iterate quotient until the chain stabilizes."""
    current = i
    while True:
        nxt = quotient(current, j)
        if is_subideal(nxt, current):
            return current
        current = nxt


def _assert_agrees_with_chain(i, j):
    res = saturate(i, j)
    assert res.basis == groebner_basis(_chain_saturation(i, j))
    assert res.basis == groebner_basis(res.ideal)


def _recorded_saturations(monkeypatch, run):
    from realcurve import blowup

    inputs = []
    original = blowup.saturate

    def recording(i, j):
        inputs.append((i, j))
        return original(i, j)

    with monkeypatch.context() as m:
        m.setattr(blowup, "saturate", recording)
        run()
    return inputs


@pytest.mark.parametrize("label, run", AGREEMENT_RUNS, ids=[label for label, _ in AGREEMENT_RUNS])
def test_saturate_agrees_with_the_quotient_chain_on_every_visited_chart(monkeypatch, label, run):
    inputs = _recorded_saturations(monkeypatch, run)
    assert inputs
    for i, j in inputs:
        _assert_agrees_with_chain(i, j)


_LOW_MONOMIALS = [
    (a, b, c) for a in range(4) for b in range(4) for c in range(4) if 0 < a + b + c <= 3
]


def _random_affine_ideal(rng):
    # 1-3 generators of degree <= 3 with a nonzero constant term, each times t^a
    vs = varset("t,x,y")
    gens = []
    for _ in range(rng.randint(1, 3)):
        terms = {(0, 0, 0): rng.choice((-3, -2, -1, 1, 2, 3))}
        for e in rng.sample(_LOW_MONOMIALS, rng.randint(1, 3)):
            terms[e] = rng.randint(-3, 3) or 1
        a = rng.randint(0, 3)
        gens.append(Polynomial.from_terms(vs, {(e[0] + a,) + e[1:]: c for e, c in terms.items()}))
    return ideal(vs, gens)


def test_saturate_agrees_with_the_quotient_chain_on_random_affine_ideals():
    rng = random.Random(1)
    j = make_ideal("t,x,y", "t")
    for _ in range(40):
        _assert_agrees_with_chain(_random_affine_ideal(rng), j)
