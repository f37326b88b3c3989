"""Shared helpers: compact constructors for polynomials and ideals."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest

from realcurve import IdealPresentation, Polynomial, VariableSet, ideal, parse_polynomial

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
