"""Shared helpers: compact constructors for polynomials and ideals."""

from __future__ import annotations

import random
import signal
from collections import Counter
from fractions import Fraction

import pytest

from realcurve import (
    IdealPresentation,
    MonomialOrder,
    Polynomial,
    RationalMatrix,
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
        a = m * RationalMatrix(n, n, tuple(x + c * e for x, e in zip(a.entries, ident)))
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
