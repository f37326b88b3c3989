"""Shared helpers: compact constructors for polynomials and ideals."""

from __future__ import annotations

import signal
from collections import Counter
from fractions import Fraction

import pytest

from realcurve import (
    IdealPresentation,
    MonomialOrder,
    Polynomial,
    VariableSet,
    ideal,
    parse_polynomial,
)

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
