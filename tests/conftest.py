"""Shared helpers: compact constructors for polynomials and ideals."""

from __future__ import annotations

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
